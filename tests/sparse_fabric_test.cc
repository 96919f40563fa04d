// net::NetworkFabric, the single latency substrate: its live view against
// the live-latency formula evaluated independently over a dense reference
// (a LatencyMatrix built from the same topology) in every state the fabric
// can be in — pristine, jittered epochs, partitions, the end-partition-
// without-tick edge — on both base stores; the Rng draw contract; partition
// validation; the landmark sketch's guarantees; and value-invariance of the
// sketch's neighbor cache.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "harness/fixtures.h"
#include "net/dynamics.h"
#include "net/fabric.h"
#include "net/shortest_path.h"

namespace sbon::test {
namespace {

net::Topology TinyTopo(uint64_t seed) {
  return MakeTransitStubTopology(TopologySize::kTiny, seed);
}

// The two base stores: the default (materialized at this size) and the
// landmark sketch, reached at small N through the switch-point argument.
struct Store {
  const char* name;
  size_t materialize_max_nodes;
};
constexpr Store kStores[] = {{"matrix", net::kMaterializeMaxNodes},
                             {"sketch", 0}};

// The documented live-latency formula (all endpoints up), evaluated over a
// reference base: base(a, b) before the first tick,
// base(lo, hi) * JitterFactorAt(seed, sigma, pair) after it, times the
// partition factor across the cut.
struct LiveReference {
  const net::LatencyView* base = nullptr;
  double sigma = 0.0;
  uint64_t seed = 0;
  bool jitter_applied = false;
  std::vector<bool> partitioned;  // empty = no active partition
  double factor = 1.0;

  double Expected(NodeId a, NodeId b) const {
    if (a == b) return 0.0;
    double v;
    if (jitter_applied) {
      const NodeId lo = a < b ? a : b;
      const NodeId hi = a < b ? b : a;
      v = base->Latency(lo, hi) *
          net::JitterFactorAt(seed, sigma,
                              net::JitterPairIndex(lo, hi, base->NumNodes()));
    } else {
      v = base->Latency(a, b);
    }
    if (!partitioned.empty() && partitioned[a] != partitioned[b]) v *= factor;
    return v;
  }
};

// Bitwise equality over every ordered pair. EXPECT_EQ on doubles is exact
// equality — one differing ulp anywhere fails.
void ExpectLiveMatches(const net::NetworkFabric& fabric,
                       const LiveReference& ref, const char* where) {
  const size_t n = fabric.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(fabric.live().Latency(a, b), ref.Expected(a, b))
          << where << ": live (" << a << "," << b << ")";
    }
  }
}

// The reference base of a store: the independently built dense matrix for
// the materialized store (whose base must equal it bitwise), the fabric's
// own sketch otherwise.
const net::LatencyView& ReferenceBase(const net::NetworkFabric& fabric,
                                      const net::LatencyMatrix& dense) {
  return fabric.materialized() ? static_cast<const net::LatencyView&>(dense)
                               : fabric.base();
}

TEST(SparseFabricTest, PristineViewsMatchDenseBitwise) {
  const net::Topology topo = TinyTopo(3);
  const net::LatencyMatrix dense(topo);
  Rng rng(11);
  net::NetworkFabric fabric(topo, 0.0, &rng);
  EXPECT_TRUE(fabric.materialized());
  EXPECT_FALSE(fabric.has_jitter());
  EXPECT_EQ(fabric.num_landmarks(), 0u);
  const size_t n = topo.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(fabric.base().Latency(a, b), dense.Latency(a, b))
          << "base (" << a << "," << b << ")";
      EXPECT_EQ(fabric.live().Latency(a, b), dense.Latency(a, b))
          << "live (" << a << "," << b << ")";
    }
  }
  EXPECT_EQ(fabric.cache_stats().base_reads, 0u);
}

TEST(SparseFabricTest, JitteredEpochsMatchDenseBitwise) {
  const net::Topology topo = TinyTopo(5);
  const net::LatencyMatrix dense(topo);
  for (const Store& store : kStores) {
    Rng rng(99);
    Rng twin(99);
    net::NetworkFabric fabric(topo, 0.15, &rng, store.materialize_max_nodes);
    EXPECT_TRUE(fabric.has_jitter());
    LiveReference ref;
    ref.base = &ReferenceBase(fabric, dense);
    ref.sigma = 0.15;
    ref.seed = twin.Next();  // the construction draw
    // Pre-first-tick the live view equals base.
    ExpectLiveMatches(fabric, ref, store.name);
    for (int epoch = 0; epoch < 3; ++epoch) {
      fabric.TickNetwork(&rng);
      ref.seed = twin.Next();
      ref.jitter_applied = true;
      ExpectLiveMatches(fabric, ref, store.name);
    }
  }
}

TEST(SparseFabricTest, PartitionLifecycleMatchesDenseBitwise) {
  const net::Topology topo = TinyTopo(7);
  const net::LatencyMatrix dense(topo);
  const std::vector<NodeId> group = {0, 1, 2, 5};
  for (const Store& store : kStores) {
    Rng rng(21);
    Rng twin(21);
    net::NetworkFabric fabric(topo, 0.1, &rng, store.materialize_max_nodes);
    LiveReference ref;
    ref.base = &ReferenceBase(fabric, dense);
    ref.sigma = 0.1;
    twin.Next();
    fabric.TickNetwork(&rng);
    ref.seed = twin.Next();
    ref.jitter_applied = true;

    ASSERT_TRUE(fabric.BeginPartition(group, 8.0).ok());
    EXPECT_TRUE(fabric.partition_active());
    ref.partitioned.assign(topo.NumNodes(), false);
    for (NodeId g : group) ref.partitioned[g] = true;
    ref.factor = 8.0;
    EXPECT_TRUE(fabric.CrossesPartition(0, 3));
    EXPECT_FALSE(fabric.CrossesPartition(0, 1));
    ExpectLiveMatches(fabric, ref, "partitioned");

    // The penalty survives a tick on top of the fresh factors.
    fabric.TickNetwork(&rng);
    ref.seed = twin.Next();
    ExpectLiveMatches(fabric, ref, "partitioned+ticked");

    ASSERT_TRUE(fabric.EndPartition().ok());
    EXPECT_FALSE(fabric.partition_active());
    EXPECT_FALSE(fabric.CrossesPartition(0, 3));
    ref.partitioned.clear();
    ExpectLiveMatches(fabric, ref, "healed");
  }
}

// EndPartition re-applies the *current* factors, so on a fabric that was
// never ticked it starts applying the construction-epoch factors — live !=
// base afterwards. This (surprising) state machine is pinned: every golden
// recorded through it depends on it.
TEST(SparseFabricTest, EndPartitionWithoutTickMatchesDenseBitwise) {
  const net::Topology topo = TinyTopo(9);
  const net::LatencyMatrix dense(topo);
  for (const Store& store : kStores) {
    Rng rng(5);
    Rng twin(5);
    net::NetworkFabric fabric(topo, 0.2, &rng, store.materialize_max_nodes);
    LiveReference ref;
    ref.base = &ReferenceBase(fabric, dense);
    ref.sigma = 0.2;
    ref.seed = twin.Next();
    ASSERT_TRUE(fabric.BeginPartition({1, 3}, 4.0).ok());
    ASSERT_TRUE(fabric.EndPartition().ok());
    ref.jitter_applied = true;
    ExpectLiveMatches(fabric, ref, store.name);
    // And the state really is jittered now, not pristine.
    bool any_jittered = false;
    const size_t n = fabric.NumNodes();
    for (NodeId a = 0; a < n && !any_jittered; ++a) {
      for (NodeId b = a + 1; b < n && !any_jittered; ++b) {
        any_jittered =
            fabric.live().Latency(a, b) != fabric.base().Latency(a, b);
      }
    }
    EXPECT_TRUE(any_jittered) << store.name;
  }
}

// The draw contract: exactly one draw at construction iff sigma > 0,
// exactly one per TickNetwork iff jitter exists, none anywhere else — on
// either base store, so the caller's shared Rng stays stream-aligned.
TEST(SparseFabricTest, RngDrawCountsMatchDense) {
  const net::Topology topo = TinyTopo(13);
  for (const Store& store : kStores) {
    for (const double sigma : {0.0, 0.1}) {
      Rng rng(77);
      Rng twin(77);
      net::NetworkFabric fabric(topo, sigma, &rng,
                                store.materialize_max_nodes);
      if (sigma > 0.0) twin.Next();
      EXPECT_EQ(rng.Next(), twin.Next())
          << store.name << " construction drift, sigma=" << sigma;
      fabric.TickNetwork(&rng);
      if (sigma > 0.0) twin.Next();
      ASSERT_TRUE(fabric.BeginPartition({0, 2}, 2.0).ok());
      fabric.SetEndpointDown(1, true);
      fabric.SetEndpointDown(1, false);
      ASSERT_TRUE(fabric.EndPartition().ok());
      EXPECT_EQ(rng.Next(), twin.Next())
          << store.name << " lifecycle drift, sigma=" << sigma;
    }
  }
}

TEST(SparseFabricTest, PartitionValidationMatchesDense) {
  const net::Topology topo = TinyTopo(17);
  Rng rng(1);
  net::NetworkFabric fabric(topo, 0.0, &rng);
  EXPECT_EQ(fabric.EndPartition().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fabric.BeginPartition({}, 2.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.BeginPartition({0}, 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric
                .BeginPartition({static_cast<NodeId>(topo.NumNodes())}, 2.0)
                .code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(fabric.BeginPartition({0, 1}, 2.0).ok());
  EXPECT_EQ(fabric.BeginPartition({2}, 2.0).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fabric.EndPartition().ok());
}

TEST(SparseFabricTest, SketchIsSymmetricZeroDiagonalUpperBound) {
  const net::Topology topo = TinyTopo(23);
  const net::LatencyMatrix dense(topo);
  Rng rng(4);
  net::NetworkFabric sketch(topo, 0.0, &rng, /*materialize_max_nodes=*/0);
  EXPECT_FALSE(sketch.materialized());
  EXPECT_GT(sketch.num_landmarks(), 0u);
  EXPECT_LE(sketch.num_landmarks(), net::NetworkFabric::kSketchLandmarks);
  const size_t n = topo.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(sketch.base().Latency(a, a), 0.0);
    for (NodeId b = a + 1; b < n; ++b) {
      const double est = sketch.base().Latency(a, b);
      EXPECT_EQ(est, sketch.base().Latency(b, a)) << "asymmetric sketch";
      // Triangle inequality: the landmark detour can only overestimate.
      EXPECT_GE(est, dense.Latency(a, b) - 1e-9)
          << "sketch undercut the true shortest path at (" << a << "," << b
          << ")";
    }
  }
}

// The neighbor cache is pure memoization: reads in an adversarial order
// (striding through pairs so the per-node slots keep evicting each other)
// return exactly what a twin sketch read in plain row order returns.
TEST(SparseFabricTest, CachesNeverChangeValues) {
  const net::Topology topo = TinyTopo(29);
  Rng ra(8);
  Rng rb(8);
  net::NetworkFabric strided(topo, 0.1, &ra, /*materialize_max_nodes=*/0);
  net::NetworkFabric ordered(topo, 0.1, &rb, /*materialize_max_nodes=*/0);
  strided.TickNetwork(&ra);
  ordered.TickNetwork(&rb);
  const size_t n = topo.NumNodes();
  ASSERT_GT(n, net::NetworkFabric::kSketchCacheSlots);
  std::vector<double> want(n * n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      want[a * n + b] = ordered.live().Latency(a, b);
    }
  }
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n * n; i += 7) {
      const NodeId a = static_cast<NodeId>(i / n);
      const NodeId b = static_cast<NodeId>(i % n);
      EXPECT_EQ(strided.live().Latency(a, b), want[a * n + b]);
      EXPECT_EQ(strided.live().Latency(b, a), want[b * n + a]);
    }
  }
  const auto& stats = strided.cache_stats();
  EXPECT_GT(stats.base_reads, 0u);
  EXPECT_GT(stats.neighbor_hits, 0u);
  EXPECT_LT(stats.neighbor_hits, stats.base_reads);
}

// Mean/Max of the live view run the generic O(n^2) LatencyView walk in the
// same loop order as the dense matrix's overrides, so even the fp
// accumulation matches a dense matrix holding the same values.
TEST(SparseFabricTest, MeanAndMaxMatchDense) {
  const net::Topology topo = TinyTopo(31);
  Rng rng(6);
  net::NetworkFabric fabric(topo, 0.1, &rng);
  fabric.TickNetwork(&rng);
  net::LatencyMatrix dense_live(topo);
  const size_t n = topo.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      dense_live.Set(a, b, fabric.live().Latency(a, b));
    }
  }
  EXPECT_EQ(fabric.live().MeanLatency(), dense_live.MeanLatency());
  EXPECT_EQ(fabric.live().MaxLatency(), dense_live.MaxLatency());
  const net::LatencyMatrix dense_base(topo);
  EXPECT_EQ(fabric.base().MeanLatency(), dense_base.MeanLatency());
}

}  // namespace
}  // namespace sbon::test
