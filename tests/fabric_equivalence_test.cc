// Fixed-seed fabric golden at overlay scale: for 5 seeds at N in {64, 512},
// a full engine bring-up, jittered epochs, a partition with a crash, repair
// and rejoin inside it, and the heal must reproduce bitwise digests of every
// live latency pair, every Vivaldi coordinate and every placed circuit
// recorded in `tests/golden/fabric_lifecycle.golden`. The golden was
// generated by an independent dense implementation (a materialized live
// matrix rewritten every epoch) and is the reference the on-read fabric
// must keep reproducing: a mismatch is a behaviour change, not a reason to
// regenerate it.
//
// The binary also audits the sketch base's memory claim through a counting
// operator new: while a sketch-base fabric is built and driven through the
// same lifecycle, no single heap allocation may come anywhere near an
// N x N latency matrix (or an N(N+1)/2 triangle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "harness/golden.h"
#include "net/churn.h"
#include "net/generators.h"
#include "net/fabric.h"

namespace {
size_t g_max_alloc_size = 0;
}  // namespace

// gcc pairs the malloc/free inside these replacements with the inlined
// callers' new/delete and reports a spurious mismatch once container
// construction inlines far enough; the replacement set is complete and
// consistent, so the warning is suppressed for these definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (size > g_max_alloc_size) g_max_alloc_size = size;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sbon::test {
namespace {

// Transit-stub topology of ~target nodes (the fixture presets only cover a
// few sizes; the golden pins N ~ 64 and ~512).
net::Topology TopoOfSize(size_t target, uint64_t seed) {
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 3;
  const size_t transit = p.transit_domains * p.transit_nodes_per_domain;
  p.nodes_per_stub_domain = std::max<size_t>(
      2, (target - transit) / (transit * p.stub_domains_per_transit_node));
  Rng rng(seed);
  auto topo = net::GenerateTransitStub(p, &rng);
  EXPECT_TRUE(topo.ok());
  return std::move(topo.value());
}

// An engine over TopoOfSize(target, seed) with six submitted queries (some
// may fail to place; the golden records the circuit count).
std::unique_ptr<engine::StreamEngine> BuildEngine(size_t target,
                                                  uint64_t seed) {
  engine::EngineOptions eo;
  eo.topology = TopoOfSize(target, seed);
  eo.sbon.seed = seed;
  eo.sbon.latency_jitter_sigma = 0.1;
  eo.config = TestOptimizerConfig();
  auto eng = engine::StreamEngine::Create(std::move(eo)).value();
  const overlay::Sbon& sbon = eng->sbon();
  const query::WorkloadParams wp = TestWorkloadParams();
  eng->SetCatalog(MakeCatalog(sbon, wp, seed * 3 + 1));
  const auto specs = MakeQueries(sbon, eng->catalog(), wp, 6, seed * 5 + 2);
  for (const auto& spec : specs) (void)eng->Submit(spec);
  return eng;
}

// Bitwise digests (FNV-1a over the raw IEEE-754 bits, so one differing ulp
// anywhere changes the line) of the three things the fabric feeds: every
// ordered live pair, diagonal and mirrors included; every Vivaldi vector
// coordinate plus scalar penalty; every placed circuit vertex's host.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string LiveDigest(const overlay::Sbon& sbon) {
  Digest d;
  const size_t n = sbon.topology().NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) d.Add(sbon.latency().Latency(a, b));
  }
  return d.Hex();
}

std::string CoordDigest(const overlay::Sbon& sbon) {
  Digest d;
  const auto& space = sbon.cost_space();
  for (NodeId n = 0; n < space.NumNodes(); ++n) {
    const Vec& v = space.VectorCoord(n);
    for (size_t k = 0; k < v.dims(); ++k) d.Add(v[k]);
    d.Add(space.ScalarPenalty(n));
  }
  return d.Hex();
}

std::string PlacementDigest(const overlay::Sbon& sbon) {
  Digest d;
  for (const auto& [id, circuit] : sbon.circuits()) {
    d.Add(static_cast<uint64_t>(id));
    for (size_t v = 0; v < circuit.NumVertices(); ++v) {
      d.Add(static_cast<uint64_t>(circuit.vertex(static_cast<int>(v)).host));
    }
  }
  return d.Hex();
}

void Record(std::string* out, const overlay::Sbon& sbon, size_t target,
            uint64_t seed, const char* stage, bool coords, bool placements) {
  *out += "N~" + std::to_string(target) + " seed=" + std::to_string(seed) +
          " " + stage + " live=" + LiveDigest(sbon);
  if (coords) *out += " coords=" + CoordDigest(sbon);
  if (placements) {
    *out += " circuits=" + std::to_string(sbon.circuits().size()) +
            " hosts=" + PlacementDigest(sbon);
  }
  *out += "\n";
}

// Drives one overlay through every fabric state — bring-up, three jittered
// epochs, then a scripted churn schedule run through the engine's epoch
// pipeline: a partition starts, a node hosting an operator crashes (its
// orphans are repaired against the partitioned fabric), rejoins, and the
// partition heals — appending one digest line per stage.
void RunLifecycle(engine::StreamEngine* eng, size_t target, uint64_t seed,
                  std::string* out) {
  const overlay::Sbon& sbon = eng->sbon();
  Record(out, sbon, target, seed, "bring-up", true, true);

  engine::EpochOptions epoch;
  epoch.dt = 1.0;
  epoch.tick_network = true;
  epoch.vivaldi_samples = 1;
  epoch.refresh_index = true;
  epoch.refresh_epsilon = 1.0;
  epoch.threads = 1;
  for (int e = 1; e <= 3; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
    const std::string stage = "tick" + std::to_string(e);
    Record(out, sbon, target, seed, stage.c_str(), true, e == 3);
  }

  // The victim hosts an unpinned operator of the first circuit, so the
  // crash orphans something; the middle overlay node if nothing qualifies.
  const std::vector<NodeId>& nodes = sbon.overlay_nodes();
  NodeId victim = nodes[nodes.size() / 2];
  if (!sbon.circuits().empty()) {
    const overlay::Circuit& first = sbon.circuits().begin()->second;
    for (size_t v = 0; v < first.NumVertices(); ++v) {
      const auto& vertex = first.vertex(static_cast<int>(v));
      if (!vertex.pinned) {
        victim = vertex.host;
        break;
      }
    }
  }
  net::ChurnModel churn(nodes, net::ChurnModel::Params());
  net::ChurnEvent ev;
  ev.type = net::ChurnEventType::kPartitionStart;
  ev.group.assign(nodes.begin(), nodes.begin() + nodes.size() / 4);
  ev.severity = 4.0;
  churn.ScheduleAt(0, ev);
  ev = net::ChurnEvent();
  ev.node = victim;
  ev.type = net::ChurnEventType::kCrash;
  churn.ScheduleAt(1, ev);
  ev.type = net::ChurnEventType::kRejoin;
  churn.ScheduleAt(2, ev);
  ev = net::ChurnEvent();
  ev.type = net::ChurnEventType::kPartitionHeal;
  churn.ScheduleAt(3, ev);
  epoch.churn = &churn;

  const char* stages[] = {"mid-partition", "crashed", "rejoined",
                          "end-partition"};
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
    Record(out, sbon, target, seed, stages[e], true, e % 2 == 1);
  }
  ASSERT_FALSE(sbon.partition_active());
  const engine::RepairStats& repair = eng->repair_stats();
  *out += "N~" + std::to_string(target) + " seed=" + std::to_string(seed) +
          " victim=" + std::to_string(victim) +
          " crashes=" + std::to_string(repair.crashes) +
          " orphaned=" + std::to_string(repair.circuits_orphaned) +
          " repaired=" + std::to_string(repair.queries_repaired) +
          " dropped=" + std::to_string(repair.queries_dropped) + "\n";
}

// The sketch regime's flat-memory claim: a sketch-base fabric over `topo`,
// driven through ticks, a partition, a down endpoint and its revival with
// every ordered pair read in each state, returns the largest single heap
// allocation it made.
size_t SketchLifecycleMaxAlloc(const net::Topology& topo, uint64_t seed) {
  g_max_alloc_size = 0;
  Rng rng(seed);
  net::NetworkFabric fabric(topo, 0.1, &rng, /*materialize_max_nodes=*/0);
  EXPECT_FALSE(fabric.materialized());
  const size_t n = fabric.NumNodes();
  double sink = 0.0;
  auto read_all = [&] {
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) sink += fabric.live().Latency(a, b);
    }
  };
  read_all();
  for (int e = 0; e < 3; ++e) {
    fabric.TickNetwork(&rng);
    read_all();
  }
  std::vector<NodeId> group;
  for (NodeId v = 0; v < n / 4; ++v) group.push_back(v);
  EXPECT_TRUE(fabric.BeginPartition(group, 4.0).ok());
  fabric.TickNetwork(&rng);
  fabric.SetEndpointDown(static_cast<NodeId>(n / 2), true);
  read_all();
  fabric.SetEndpointDown(static_cast<NodeId>(n / 2), false);
  EXPECT_TRUE(fabric.EndPartition().ok());
  read_all();
  EXPECT_FALSE(std::isnan(sink));
  return g_max_alloc_size;
}

TEST(FabricEquivalenceTest, BitIdenticalAcrossBackendsSeedsAndSizes) {
  std::string out;
  for (const size_t target : {size_t{64}, size_t{512}}) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      auto eng = BuildEngine(target, seed);
      ASSERT_TRUE(eng->sbon().fabric().materialized());
      RunLifecycle(eng.get(), target, seed, &out);

      const net::Topology& topo = eng->sbon().topology();
      const size_t n = topo.NumNodes();
      const size_t sketch_max = SketchLifecycleMaxAlloc(topo, seed);
      // Asserted where quadratic buffers are unambiguously larger than any
      // legitimate O(N) array.
      if (n >= 256) {
        const size_t triangle_bytes = n * (n + 1) / 2 * sizeof(double);
        EXPECT_LT(sketch_max, triangle_bytes)
            << "sketch fabric allocated a dense-sized buffer at N=" << n;
      }
    }
  }
  EXPECT_EQ("", CheckGolden("fabric_lifecycle", out));
}

// The pinned dead-endpoint semantic, identical on both base stores: while
// an endpoint is down, every live() read involving it (self-pair included)
// is +infinity — never stale-finite, never NaN — base() stays pristine, the
// sentinel survives jitter ticks and partitions, and a revived node's row
// is bit-identical to never having crashed.
TEST(FabricEquivalenceTest, DeadEndpointLatencyIsInfiniteAcrossBackends) {
  const net::Topology topo = MakeTransitStubTopology(TopologySize::kTiny, 11);
  const size_t n = topo.NumNodes();
  for (const size_t materialize_max_nodes :
       {net::kMaterializeMaxNodes, size_t{0}}) {
    Rng rng(11);
    Rng twin_rng(11);
    net::NetworkFabric fabric(topo, 0.1, &rng, materialize_max_nodes);
    // Reference row captured from an untouched twin driven through the
    // same schedule: crash + revival must be invisible afterwards.
    net::NetworkFabric twin(topo, 0.1, &twin_rng, materialize_max_nodes);
    const char* where = fabric.materialized() ? "matrix" : "sketch";
    const NodeId victim = 7;

    fabric.SetEndpointDown(victim, true);
    EXPECT_TRUE(fabric.EndpointDown(victim));
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_TRUE(std::isinf(fabric.live().Latency(victim, b)))
          << where << ": live (" << victim << "," << b << ") not +inf";
      EXPECT_TRUE(std::isinf(fabric.live().Latency(b, victim)))
          << where << ": live (" << b << "," << victim << ") not +inf";
      EXPECT_FALSE(std::isnan(fabric.live().Latency(victim, b)));
      // The pristine view answers "what would the healed network look
      // like" and must stay finite.
      EXPECT_TRUE(std::isfinite(fabric.base().Latency(victim, b)))
          << where << ": base (" << victim << "," << b << ") poisoned";
    }

    // The sentinel must survive a jitter tick and an active partition.
    fabric.TickNetwork(&rng);
    twin.TickNetwork(&twin_rng);
    EXPECT_TRUE(std::isinf(fabric.live().Latency(victim, 0)))
        << where << ": tick restored a dead endpoint's latency";
    const std::vector<NodeId> group = {0, 1, 2, 3};
    ASSERT_TRUE(fabric.BeginPartition(group, 8.0).ok());
    ASSERT_TRUE(twin.BeginPartition(group, 8.0).ok());
    EXPECT_TRUE(std::isinf(fabric.live().Latency(victim, 0)));
    ASSERT_TRUE(fabric.EndPartition().ok());
    ASSERT_TRUE(twin.EndPartition().ok());
    EXPECT_TRUE(std::isinf(fabric.live().Latency(victim, 0)));

    // Revival restores the row bit-identically to the never-crashed twin.
    fabric.SetEndpointDown(victim, false);
    EXPECT_FALSE(fabric.EndpointDown(victim));
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(fabric.live().Latency(victim, b),
                twin.live().Latency(victim, b))
          << where << ": revived row differs from never-crashed at b=" << b;
      ASSERT_EQ(fabric.live().Latency(b, victim),
                twin.live().Latency(b, victim))
          << where << ": revived column differs at b=" << b;
    }
  }
}

// Centralized coordinate modes (MDS / true coordinates) solve over every
// exact pair, so they need the materialized base: Create accepts them up
// to net::kMaterializeMaxNodes nodes and rejects them above, before any
// substrate is built. Vivaldi is accepted at any size.
TEST(FabricEquivalenceTest, CentralizedCoordsNeedMaterializedBase) {
  overlay::Sbon::Options mds;
  mds.coord_mode = coords::CoordMode::kMds;
  auto small = MakeTransitStubSbon(TopologySize::kTiny, 3, mds);
  EXPECT_TRUE(small->fabric().materialized());

  const net::Topology big = TopoOfSize(net::kMaterializeMaxNodes + 600, 3);
  ASSERT_GT(big.NumNodes(), net::kMaterializeMaxNodes);
  auto status = overlay::Sbon::Create(big, mds);
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
  overlay::Sbon::Options truth;
  truth.coord_mode = coords::CoordMode::kTrue;
  EXPECT_EQ(overlay::Sbon::Create(big, truth).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sbon::test
