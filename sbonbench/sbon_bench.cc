// The SBON benchmark driver: one process, one closed-loop client, three
// workloads (maintain / place / chaos) over engine::StreamEngine. See
// README.md in this directory for the workloads, the metric -> layer map and
// the open/closed-loop statement; run.py builds this binary, runs it and
// checks its metric names against BENCHMARK.json.
//
//   sbon_bench --workload maintain|place|chaos --seed N --seconds S --trace 0|1
//
// A trial is setup plus a fixed number of epochs. A run cycles through
// kDraws traffic draws of its seed until --seconds have passed. Every trial
// of a draw replays the same program, so it must end on the same state
// fingerprint with the same deterministic counts; a mismatch fails the run.
// --trace 0 reports the end-to-end metrics from untraced trials. --trace 1
// alternates untraced and traced trials and reports the per-layer metrics of
// the traced ones: in the oracle workloads the traced trial issues
// Submit/Remove/Reoptimize as their public layer calls and times each; in
// chaos it times the StreamEngine calls whole. Epoch stage times come from
// last_epoch_trace().
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. A correctness failure still prints it (correct=false) and exits 1.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/reopt.h"
#include "engine/registry.h"
#include "engine/stream_engine.h"
#include "net/churn.h"
#include "net/generators.h"
#include "query/workload.h"

// ---------------------------------------------------------------------------
// Counting operator new. Counting is switched on only inside traced loops;
// untraced trials pay one relaxed load per allocation.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// gcc pairs the malloc/free inside these replacements with inlined callers'
// new/delete and may report a spurious mismatch; the set is complete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
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

namespace sbon {
namespace {

using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ------------------------------------------------------------- workloads

/// Epochs per trial. Short trials give each draw many repeats to pick the
/// quiet ones from.
constexpr size_t kLoopEpochs = 100;

struct Workload {
  const char* name = "";
  /// Seeds the workload's fixed scenario: the topology, the stream catalog,
  /// the consumer sites and the overlay's own Rng. The run's --seed draws
  /// the query traffic, churn and faults.
  uint64_t scenario_seed = 0;
  net::TransitStubParams topology;
  engine::ExecMode exec = engine::ExecMode::kOracle;
  std::string optimizer = "integrated";
  bool refresh_index_on_install = false;
  size_t epoch_threads = 1;
  query::WorkloadParams queries;
  /// Nodes that consume query results (0 = every overlay node).
  size_t consumer_sites = 0;
  /// Steady population (maintain, chaos): this many queries run from setup
  /// on; each epoch removes one and submits a fresh one into its slot.
  size_t fixed_queries = 0;
  bool local_reopt_per_epoch = false;
  /// Open arrivals (place): Poisson arrivals per epoch, exponential
  /// lifetimes in epochs; setup pre-populates the steady state.
  double arrivals_per_epoch = 0.0;
  double mean_lifetime_epochs = 0.0;
  double crash_rate = 0.0;  ///< chaos: expected crashes per epoch
};

net::TransitStubParams StubTopology(size_t transit_domains) {
  net::TransitStubParams p;
  p.transit_domains = transit_domains;
  p.transit_nodes_per_domain = 4;
  p.stub_domains_per_transit_node = 3;
  p.nodes_per_stub_domain = 10;
  return p;
}

std::optional<Workload> FindWorkload(const std::string& name,
                                     size_t hw_threads) {
  Workload w;
  // Stream rates stay skewed but with a lighter tail than the library
  // default (Pareto shape 1.6), whose few heaviest joins otherwise decide
  // the mean network usage of a run.
  w.queries.rate_pareto_alpha = 3.0;
  if (name == "maintain") {
    // 496 nodes (480 overlay): maintenance dominates the loop.
    w.name = "maintain";
    w.scenario_seed = 11;
    w.topology = StubTopology(4);
    w.epoch_threads = std::min<size_t>(2, std::max<size_t>(1, hw_threads));
    w.queries.num_streams = 48;
    w.fixed_queries = 64;
    w.local_reopt_per_epoch = true;
    return w;
  }
  if (name == "place") {
    // 248 nodes (240 overlay): placement of a shareable mix dominates.
    w.name = "place";
    w.scenario_seed = 12;
    w.topology = StubTopology(2);
    w.optimizer = "multi-query";
    w.refresh_index_on_install = true;
    w.queries.num_streams = 16;
    w.queries.min_streams_per_query = 2;
    w.queries.max_streams_per_query = 4;
    w.queries.join_sel_log10_min = -3.0;
    w.queries.join_sel_log10_max = -3.0;
    w.queries.filter_prob = 0.0;
    w.queries.aggregate_prob = 0.0;
    w.arrivals_per_epoch = 15.0;
    w.mean_lifetime_epochs = 64.0;
    return w;
  }
  if (name == "chaos") {
    // 248 nodes in message mode with faults, reliability, the detector and
    // crash/rejoin churn.
    w.name = "chaos";
    w.scenario_seed = 13;
    w.topology = StubTopology(2);
    w.exec = engine::ExecMode::kMessage;
    w.queries.num_streams = 48;
    w.fixed_queries = 32;
    w.consumer_sites = 32;
    w.crash_rate = 0.02;
    return w;
  }
  return std::nullopt;
}

msg::RuntimeParams ChaosRuntime(uint64_t seed) {
  msg::RuntimeParams mp;
  for (msg::FaultRates& r : mp.bus.faults.protocol) {
    r.loss = 0.10;
    r.duplicate = 0.05;
  }
  mp.bus.faults.seed = seed * 0x9e3779b97f4a7c15ULL + 17;
  mp.reliability.enabled = true;
  mp.reliability.retry_after_epochs = 1;
  mp.reliability.max_backoff_epochs = 2;
  mp.reliability.max_retries = 3;
  mp.detector.enabled = true;
  return mp;
}

// ----------------------------------------------------------- calibration

/// A fixed kernel timed before every untraced trial: a dependent sqrt/exp
/// chain, a pointer chase around a 2 MB cycle and a streaming pass over
/// 1 MB. No library code runs in it, so a change to the library cannot
/// move it; only the host's speed does.
class Calibration {
 public:
  /// The kernel's wall time at the reference speed end-to-end timings are
  /// reported at (roughly its time on the host the bounds were tuned on).
  static constexpr double kReferenceNs = 25e6;

  Calibration() : next_(kChase), stream_(kStream, 1.0) {
    // Sattolo's algorithm: one cycle through every slot.
    Rng rng(7);
    for (size_t i = 0; i < kChase; ++i) next_[i] = static_cast<uint32_t>(i);
    for (size_t i = kChase - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.UniformInt(i)]);
    }
  }

  double RunNs() {
    const Clock::time_point t0 = Clock::now();
    double x = 1.0;
    for (int i = 0; i < 200000; ++i) {
      x = std::sqrt(x * 1.0000001 + std::exp(-x));
    }
    uint32_t p = 0;
    for (int i = 0; i < 400000; ++i) p = next_[p];
    double sum = 0.0;
    for (int pass = 0; pass < 16; ++pass) {
      for (double v : stream_) sum += v;
    }
    sink_ = x + p + sum;  // a volatile store: the work cannot be elided
    return NsBetween(t0, Clock::now());
  }

 private:
  static constexpr size_t kChase = (2u << 20) / sizeof(uint32_t);
  static constexpr size_t kStream = (1u << 20) / sizeof(double);
  std::vector<uint32_t> next_;
  std::vector<double> stream_;
  volatile double sink_ = 0.0;
};

// ------------------------------------------------------------ statistics

/// Exact nearest-rank percentile of recorded samples, with the number of
/// samples strictly beyond it. Null (no value) when fewer than 10 samples lie
/// beyond: a tail quoted from a handful of samples is not a tail.
struct Percentile {
  std::optional<double> value;
  size_t samples = 0;
  size_t beyond = 0;
};

Percentile ExactPercentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));  // 1-based
  const size_t idx = std::min(v.size(), std::max<size_t>(1, rank)) - 1;
  out.beyond = v.size() - 1 - idx;
  if (out.beyond >= 10 || p <= 0.5) out.value = v[idx];
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ fingerprint

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Add(const T& v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Coordinates, load penalties, liveness, service placement, circuits and
/// network usage: what a replay of the same seed must reproduce bit for bit.
uint64_t StateFingerprint(const overlay::Sbon& sbon) {
  Fnv f;
  const coords::CostSpace& space = sbon.cost_space();
  for (NodeId n = 0; n < space.NumNodes(); ++n) {
    const Vec& v = space.VectorCoord(n);
    for (size_t d = 0; d < v.dims(); ++d) f.Add(v[d]);
    f.Add(space.ScalarPenalty(n));
    f.Add(sbon.IsAlive(n));
  }
  for (const auto& [id, inst] : sbon.services()) {
    f.Add(id);
    f.Add(inst.host);
    f.Add(inst.signature);
    f.Add(inst.circuits.size());
  }
  for (const auto& [id, circuit] : sbon.circuits()) {
    f.Add(id);
    for (const overlay::CircuitVertex& v : circuit.vertices()) f.Add(v.host);
  }
  f.Add(sbon.TotalNetworkUsage());
  return f.value();
}

// ------------------------------------------------------------ one trial

/// Deterministic per-trial counts: identical in every trial of one draw,
/// traced or not (the correctness gate compares them).
struct Counts {
  size_t submits = 0;
  size_t submits_failed = 0;
  size_t plans = 0;
  size_t placements = 0;
  size_t reuse_hits = 0;
  size_t lookups = 0;
  size_t hops = 0;
  size_t probes = 0;
  size_t load_overrides = 0;
  double mapping_error_mean_sum = 0.0;
  size_t republished = 0;  ///< epoch refresh stage only
  size_t republish_skipped = 0;
  size_t repaired = 0;
  size_t dropped = 0;
  size_t msgs_sent = 0;
  size_t msgs_delivered = 0;
  size_t msgs_dropped_fault = 0;
  size_t bytes_total = 0;
  size_t retry_bytes = 0;
  size_t suspicions = 0;
  size_t false_suspicions = 0;
  size_t protocol_bytes[msg::kNumProtocols] = {0, 0, 0};
  double usage_sum = 0.0;  ///< sampled network usage per query
  double services_per_query_sum = 0.0;
  size_t usage_samples = 0;

  bool operator==(const Counts&) const = default;
  Counts& operator+=(const Counts& o) {
    submits += o.submits;
    submits_failed += o.submits_failed;
    plans += o.plans;
    placements += o.placements;
    reuse_hits += o.reuse_hits;
    lookups += o.lookups;
    hops += o.hops;
    probes += o.probes;
    load_overrides += o.load_overrides;
    mapping_error_mean_sum += o.mapping_error_mean_sum;
    republished += o.republished;
    republish_skipped += o.republish_skipped;
    repaired += o.repaired;
    dropped += o.dropped;
    msgs_sent += o.msgs_sent;
    msgs_delivered += o.msgs_delivered;
    msgs_dropped_fault += o.msgs_dropped_fault;
    bytes_total += o.bytes_total;
    retry_bytes += o.retry_bytes;
    suspicions += o.suspicions;
    false_suspicions += o.false_suspicions;
    for (size_t p = 0; p < msg::kNumProtocols; ++p) {
      protocol_bytes[p] += o.protocol_bytes[p];
    }
    usage_sum += o.usage_sum;
    services_per_query_sum += o.services_per_query_sum;
    usage_samples += o.usage_samples;
    return *this;
  }
};

/// A run replays kDraws independent query-traffic draws of its seed in
/// turn (trial i uses draw i % kDraws). The deterministic metrics average
/// over all of them, which keeps their seed-to-seed spread inside a usable
/// bound; each draw still replays at least twice per run for the gate.
constexpr size_t kDraws = 4;

uint64_t DrawSeed(uint64_t seed, size_t trial) {
  return seed * kDraws + trial % kDraws;
}

/// The timed spans of a traced trial: the loop, the epoch and its stages,
/// and the calls the loop makes into each layer.
enum Span : size_t {
  kLoop, kEpoch, kUnattributed, kJitter, kLoad, kCoords, kRefresh,
  kChurnRepair, kMsgCoords, kMsgRefresh, kSubmit, kOptimize, kInstall,
  kRemove, kReopt, kFlush, kNumSpans
};

/// Span of an AdvanceEpoch stage, by its last_epoch_trace() name.
std::optional<Span> StageSpan(const std::string& stage) {
  static const std::pair<const char*, Span> kStages[] = {
      {"jitter", kJitter},           {"load", kLoad},
      {"coords", kCoords},           {"refresh", kRefresh},
      {"churn+repair", kChurnRepair}, {"detect+repair", kChurnRepair},
      {"msg-coords", kMsgCoords},    {"msg-refresh", kMsgRefresh},
  };
  for (const auto& [name, span] : kStages) {
    if (stage == name) return span;
  }
  return std::nullopt;
}

struct Spans {
  double ns[kNumSpans] = {};
  size_t calls[kNumSpans] = {};
  uint64_t epoch_allocs = 0;
  uint64_t optimize_allocs = 0;
  size_t unknown_stages = 0;  ///< counted in kUnattributed

  void Add(Span span, double t) {
    ns[span] += t;
    ++calls[span];
  }
  Spans& operator+=(const Spans& o) {
    for (size_t i = 0; i < kNumSpans; ++i) {
      ns[i] += o.ns[i];
      calls[i] += o.calls[i];
    }
    epoch_allocs += o.epoch_allocs;
    optimize_allocs += o.optimize_allocs;
    unknown_stages += o.unknown_stages;
    return *this;
  }
};

struct TrialResult {
  double calibration_ns = 0.0;  ///< Calibration::RunNs() just before the trial
  double setup_s = 0.0;
  double loop_ns = 0.0;  ///< the timed loop, sampling and checks excluded
  size_t epochs = 0;
  size_t nodes = 0;  ///< topology size (the per-node traffic divisor)
  std::vector<double> epoch_ns;
  std::vector<double> submit_ns;
  size_t attempted = 0;
  size_t failed = 0;
  size_t misplaced = 0;  ///< successful submits not fully placed on alive hosts
  uint64_t fingerprint = 0;
  Counts counts;
  Spans spans;
};

struct Arrival {
  size_t slot = 0;
  size_t spec = 0;
};

struct EpochPlan {
  std::vector<size_t> departures;  ///< slots
  std::vector<Arrival> arrivals;
  std::optional<size_t> reopt_slot;
};

/// Poisson variate by inversion of exponential gaps (exact; mean <= ~100).
size_t Poisson(double mean, Rng* rng) {
  size_t k = 0;
  for (double t = rng->Exponential(1.0); t < mean; t += rng->Exponential(1.0)) {
    ++k;
  }
  return k;
}

size_t LifetimeEpochs(double mean, Rng* rng) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(rng->Exponential(1.0 / mean))));
}

void Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "sbon_bench: %s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

/// One trial: setup (timed as setup_s) then kLoopEpochs epochs of the timed
/// loop. Inputs come from the benchmark's own Rngs (the scenario's and
/// the run's), never from the engine's.
class Trial {
 public:
  Trial(const Workload& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), traced_(traced), rng_(seed) {}

  TrialResult Run() {
    const Clock::time_point t0 = Clock::now();
    Setup();
    out_.setup_s = NsBetween(t0, Clock::now()) * 1e-9;
    DrawPlan();
    Loop();
    out_.fingerprint = StateFingerprint(eng_->sbon());
    out_.nodes = sbon().topology().NumNodes();
    return std::move(out_);
  }

 private:
  overlay::Sbon& sbon() { return eng_->sbon(); }
  /// The oracle workloads decompose Submit/Remove/Reoptimize into layer
  /// calls when traced; chaos's placement billing and repair are engine-
  /// private, so there the traced run times the engine calls whole.
  bool Decompose() const {
    return traced_ && w_.exec == engine::ExecMode::kOracle;
  }

  void Setup() {
    Rng scenario(w_.scenario_seed);
    auto topo = net::GenerateTransitStub(w_.topology, &scenario);
    if (!topo.ok()) Fail("topology", topo.status());
    engine::EngineOptions opts;
    opts.topology = std::move(topo.value());
    opts.sbon.latency_jitter_sigma = 0.1;
    // The overlay's own Rng (Vivaldi start, jitter, ambient load) is part of
    // the scenario too: across seeds it moved placement quality by more
    // than any bound a regression check could use.
    opts.sbon.seed = w_.scenario_seed;
    opts.optimizer = w_.optimizer;
    opts.refresh_index_on_install = w_.refresh_index_on_install;
    config_ = opts.config;
    multi_query_ = opts.multi_query;
    placer_name_ = opts.placer;
    auto eng = engine::StreamEngine::Create(std::move(opts));
    if (!eng.ok()) Fail("engine", eng.status());
    eng_ = std::move(eng.value());

    epoch_.dt = 1.0;
    epoch_.tick_network = true;
    epoch_.vivaldi_samples = 1;
    epoch_.refresh_index = true;
    epoch_.refresh_epsilon = 1.0;
    epoch_.threads = w_.epoch_threads;
    epoch_.exec_mode = w_.exec;
    if (w_.exec == engine::ExecMode::kMessage) {
      epoch_.msg = ChaosRuntime(seed_);
      // Creates the message runtime before any placement, so every Submit
      // is billed as placement traffic.
      const Status st = eng_->AdvanceEpoch(epoch_);
      if (!st.ok()) Fail("warm-up epoch", st);
    }

    auto catalog = query::MakeRandomCatalog(w_.queries, sbon().overlay_nodes(),
                                            &scenario);
    if (!catalog.ok()) Fail("catalog", catalog.status());
    eng_->SetCatalog(std::move(catalog.value()));
    consumers_ = sbon().overlay_nodes();
    if (w_.consumer_sites > 0 && w_.consumer_sites < consumers_.size()) {
      scenario.Shuffle(&consumers_);
      consumers_.resize(w_.consumer_sites);
      std::sort(consumers_.begin(), consumers_.end());
    }

    size_t initial = w_.fixed_queries;
    if (w_.arrivals_per_epoch > 0.0) {
      initial = static_cast<size_t>(
          std::lround(w_.arrivals_per_epoch * w_.mean_lifetime_epochs));
    }
    for (size_t i = 0; i < initial; ++i) specs_.push_back(DrawSpec());
    handles_.resize(initial);
    circuits_.resize(initial, kInvalidCircuit);
    {
      engine::StreamEngine::DeferRefresh defer(eng_.get());
      for (size_t i = 0; i < initial; ++i) {
        auto h = eng_->Submit(specs_[i]);
        if (!h.ok()) Fail("initial submit", h.status());
        handles_[i] = *h;
        circuits_[i] = eng_->CircuitOf(*h);
      }
    }
  }

  query::QuerySpec DrawSpec() {
    auto spec = query::MakeRandomQuery(w_.queries, eng_->catalog(),
                                       consumers_, &rng_);
    if (!spec.ok()) Fail("query", spec.status());
    return std::move(spec.value());
  }

  /// The loop's schedule, drawn after setup from the same Rng.
  void DrawPlan() {
    plan_.resize(kLoopEpochs);
    const size_t q = w_.fixed_queries;
    if (q > 0) {
      for (size_t e = 0; e < kLoopEpochs; ++e) {
        EpochPlan& p = plan_[e];
        if (w_.local_reopt_per_epoch) p.reopt_slot = e % q;
        const size_t victim = (e * 7 + 3) % q;
        p.departures.push_back(victim);
        specs_.push_back(DrawSpec());
        p.arrivals.push_back({victim, specs_.size() - 1});
      }
    } else {
      // Initial population: residual lifetimes (memoryless).
      for (size_t s = 0; s < handles_.size(); ++s) {
        const size_t d = LifetimeEpochs(w_.mean_lifetime_epochs, &rng_);
        if (d < kLoopEpochs) plan_[d].departures.push_back(s);
      }
      for (size_t e = 0; e < kLoopEpochs; ++e) {
        const size_t n = Poisson(w_.arrivals_per_epoch, &rng_);
        for (size_t i = 0; i < n; ++i) {
          const size_t slot = handles_.size();
          specs_.push_back(DrawSpec());
          plan_[e].arrivals.push_back({slot, specs_.size() - 1});
          handles_.emplace_back();
          circuits_.push_back(kInvalidCircuit);
          const size_t d = e + LifetimeEpochs(w_.mean_lifetime_epochs, &rng_);
          if (d < kLoopEpochs) plan_[d].departures.push_back(slot);
        }
      }
    }
    if (w_.crash_rate > 0.0) {
      // Pinned endpoints (stream producers, query consumers) never crash: a
      // dead endpoint makes a query unrepairable by definition, and the
      // workload measures repair, not refusal.
      std::vector<bool> endpoint(sbon().topology().NumNodes(), false);
      for (size_t s = 0; s < eng_->catalog().NumStreams(); ++s) {
        endpoint[eng_->catalog().stream(static_cast<StreamId>(s)).producer] =
            true;
      }
      for (NodeId n : consumers_) endpoint[n] = true;
      std::vector<NodeId> eligible;
      for (NodeId n : sbon().overlay_nodes()) {
        if (!endpoint[n]) eligible.push_back(n);
      }
      net::ChurnModel::Params cp;
      cp.crash_rate = w_.crash_rate;
      cp.mean_downtime_epochs = 4.0;
      cp.seed = seed_ * 9176 + 1;
      churn_ = std::make_unique<net::ChurnModel>(std::move(eligible), cp);
      epoch_.churn = churn_.get();
    }
  }

  // --- the timed loop ---

  void Loop() {
    const engine::RepairStats repair0 = eng_->repair_stats();
    std::optional<msg::TrafficStats> traffic0;
    if (eng_->msg_runtime() != nullptr) traffic0 = eng_->msg_runtime()->stats();
    if (traced_) g_count_allocs.store(true, std::memory_order_relaxed);

    for (size_t e = 0; e < kLoopEpochs; ++e) {
      const Clock::time_point iter_start = Clock::now();
      RunEpoch();
      const EpochPlan& p = plan_[e];
      if (p.reopt_slot) Reopt(*p.reopt_slot);
      Burst(p.departures, [&](size_t slot) { return Remove(slot); });
      submitted_.clear();
      Burst(p.arrivals.size(), [&](size_t i) {
        return Submit(p.arrivals[i].slot, specs_[p.arrivals[i].spec]);
      });
      out_.loop_ns += NsBetween(iter_start, Clock::now());
      // Untimed: check what this epoch placed, sample the objective.
      CheckSubmitted();
      if (e % 4 == 3) SampleUsage();
    }

    g_count_allocs.store(false, std::memory_order_relaxed);
    out_.epochs = kLoopEpochs;
    out_.spans.Add(kLoop, out_.loop_ns);
    Counts& c = out_.counts;
    const engine::RepairStats& repair1 = eng_->repair_stats();
    c.repaired = repair1.queries_repaired - repair0.queries_repaired;
    c.dropped = repair1.queries_dropped - repair0.queries_dropped;
    if (traffic0) {
      const msg::TrafficStats& t1 = eng_->msg_runtime()->stats();
      const msg::TrafficStats& t0 = *traffic0;
      c.msgs_sent = t1.TotalSent() - t0.TotalSent();
      c.msgs_delivered = t1.TotalDelivered() - t0.TotalDelivered();
      for (size_t p = 0; p < msg::kNumProtocols; ++p) {
        c.msgs_dropped_fault +=
            t1.protocol[p].dropped_fault - t0.protocol[p].dropped_fault;
        c.protocol_bytes[p] = t1.protocol[p].bytes - t0.protocol[p].bytes;
      }
      c.bytes_total = t1.TotalBytes() - t0.TotalBytes();
      c.retry_bytes = t1.reliability.retry_bytes - t0.reliability.retry_bytes;
      c.suspicions = t1.detector.suspicions - t0.detector.suspicions;
      c.false_suspicions =
          t1.detector.false_suspicions - t0.detector.false_suspicions;
    }
  }

  /// Runs `op(i)` for i in [0, n) (or each element of a slot list) under
  /// one DeferRefresh scope, so a burst pays one install-time index refresh.
  template <typename Op>
  void Burst(size_t n, Op op) {
    if (n == 0) return;
    bool changed = false;
    if (Decompose()) {
      for (size_t i = 0; i < n; ++i) changed |= op(i);
      if (changed && w_.refresh_index_on_install) {
        const Clock::time_point t = Clock::now();
        sbon().RefreshIndex();
        out_.spans.Add(kFlush, NsBetween(t, Clock::now()));
      }
      return;
    }
    engine::StreamEngine::DeferRefresh defer(eng_.get());
    for (size_t i = 0; i < n; ++i) op(i);
  }
  template <typename Op>
  void Burst(const std::vector<size_t>& slots, Op op) {
    Burst(slots.size(), [&](size_t i) { return op(slots[i]); });
  }

  void RunEpoch() {
    ++out_.attempted;
    const auto refresh_before = sbon().index_refresh_stats();
    const uint64_t allocs = Allocs();
    const Clock::time_point t = Clock::now();
    const Status st = eng_->AdvanceEpoch(epoch_);
    const double ns = NsBetween(t, Clock::now());
    if (!st.ok()) ++out_.failed;
    const auto refresh_after = sbon().index_refresh_stats();
    out_.counts.republished +=
        refresh_after.republished - refresh_before.republished;
    out_.counts.republish_skipped +=
        refresh_after.skipped - refresh_before.skipped;
    if (!traced_) {
      out_.epoch_ns.push_back(ns);
      return;
    }
    Spans& s = out_.spans;
    s.Add(kEpoch, ns);
    s.epoch_allocs += Allocs() - allocs;
    double staged = 0.0;
    for (const engine::EpochStageTrace& stage : eng_->last_epoch_trace()) {
      if (!stage.ran) continue;
      const std::optional<Span> span = StageSpan(stage.name);
      if (!span) {
        ++s.unknown_stages;
        continue;
      }
      s.Add(*span, stage.ns);
      staged += stage.ns;
    }
    s.Add(kUnattributed, ns - staged);
  }

  void Reopt(size_t slot) {
    ++out_.attempted;
    Status st;
    const Clock::time_point t = Clock::now();
    if (Decompose()) {
      auto placer = engine::PlacerRegistry::Global().Create(placer_name_);
      st = placer.ok() ? core::LocalReoptimize(&sbon(), circuits_[slot],
                                               **placer, core::ReoptConfig())
                             .status()
                       : placer.status();
    } else {
      st = eng_->Reoptimize(handles_[slot], engine::ReoptPolicy()).status();
    }
    if (traced_) {
      out_.spans.Add(kReopt, NsBetween(t, Clock::now()));
    }
    if (!st.ok()) ++out_.failed;
  }

  /// Returns true when a deployment changed.
  bool Remove(size_t slot) {
    // Nothing to remove: the slot's submit failed, or churn repair dropped
    // the query and the engine already released it.
    if (Decompose() ? circuits_[slot] == kInvalidCircuit
                    : eng_->SpecOf(handles_[slot]) == nullptr) {
      return false;
    }
    ++out_.attempted;
    Status st;
    const Clock::time_point t = Clock::now();
    if (Decompose()) {
      st = sbon().RemoveCircuit(circuits_[slot]);
    } else {
      st = eng_->Remove(handles_[slot]);
    }
    if (traced_) {
      out_.spans.Add(kRemove, NsBetween(t, Clock::now()));
    }
    if (!st.ok()) ++out_.failed;
    circuits_[slot] = kInvalidCircuit;
    return st.ok();
  }

  bool Submit(size_t slot, const query::QuerySpec& spec) {
    ++out_.attempted;
    ++out_.counts.submits;
    const Clock::time_point t = Clock::now();
    if (Decompose()) return SubmitByLayers(slot, spec, t);
    auto h = eng_->Submit(spec);
    const double ns = NsBetween(t, Clock::now());
    if (traced_) {
      out_.spans.Add(kSubmit, ns);
    } else {
      out_.submit_ns.push_back(ns);
    }
    if (!h.ok()) {
      ++out_.failed;
      ++out_.counts.submits_failed;
      return false;
    }
    handles_[slot] = *h;
    circuits_[slot] = eng_->CircuitOf(*h);
    CountResult(*eng_->ResultOf(*h));
    submitted_.push_back(circuits_[slot]);
    return true;
  }

  /// StreamEngine::Submit as its public layer calls: registry -> Optimize
  /// -> InstallCircuit (the install-time refresh is the burst's flush).
  bool SubmitByLayers(size_t slot, const query::QuerySpec& spec,
                      Clock::time_point t) {
    Spans& s = out_.spans;
    StatusOr<CircuitId> installed = Status::Internal("not run");
    auto placer = engine::PlacerRegistry::Global().Create(placer_name_);
    if (placer.ok()) {
      engine::OptimizerSpec os;
      os.config = config_;
      os.multi_query = multi_query_;
      os.placer = std::move(placer.value());
      auto optimizer =
          engine::OptimizerRegistry::Global().Create(w_.optimizer, os);
      if (optimizer.ok()) {
        const uint64_t a0 = Allocs();
        const Clock::time_point o0 = Clock::now();
        auto result = (*optimizer)->Optimize(spec, eng_->catalog(), &sbon());
        const Clock::time_point o1 = Clock::now();
        s.Add(kOptimize, NsBetween(o0, o1));
        s.optimize_allocs += Allocs() - a0;
        if (result.ok()) {
          CountResult(*result);
          installed = sbon().InstallCircuit(std::move(result->circuit));
          s.Add(kInstall, NsBetween(o1, Clock::now()));
        } else {
          installed = result.status();
        }
      } else {
        installed = optimizer.status();
      }
    } else {
      installed = placer.status();
    }
    s.Add(kSubmit, NsBetween(t, Clock::now()));
    if (!installed.ok()) {
      ++out_.failed;
      ++out_.counts.submits_failed;
      return false;
    }
    circuits_[slot] = *installed;
    submitted_.push_back(*installed);
    return true;
  }

  void CountResult(const core::OptimizeResult& r) {
    Counts& c = out_.counts;
    c.plans += r.plans_considered;
    c.placements += r.placements_evaluated;
    if (r.services_reused > 0) ++c.reuse_hits;
    c.lookups += r.mapping.dht_cost.lookups;
    c.hops += r.mapping.dht_cost.routing_hops;
    c.probes += r.mapping.dht_cost.ring_probes;
    c.load_overrides += r.mapping.load_overrides;
    c.mapping_error_mean_sum += r.mapping.MeanMappingError();
  }

  void CheckSubmitted() {
    for (CircuitId id : submitted_) {
      const overlay::Circuit* c = sbon().FindCircuit(id);
      bool ok = c != nullptr && c->FullyPlaced();
      if (ok) {
        for (const overlay::CircuitVertex& v : c->vertices()) {
          ok = ok && sbon().IsAlive(v.host);
        }
      }
      if (!ok) ++out_.misplaced;
    }
  }

  /// The paper's objective per query: mean network usage of the running
  /// circuits. A circuit with a host whose crash the overlay has not yet
  /// detected reads +inf (its traffic goes nowhere); it is left out of the
  /// mean until repair re-places it.
  void SampleUsage() {
    double usage = 0.0;
    size_t finite = 0;
    for (const auto& [id, circuit] : sbon().circuits()) {
      auto cost = sbon().CircuitCostOf(id);
      if (cost.ok() && std::isfinite(cost->network_usage)) {
        usage += cost->network_usage;
        ++finite;
      }
    }
    if (finite == 0) return;
    Counts& c = out_.counts;
    c.usage_sum += usage / static_cast<double>(finite);
    c.services_per_query_sum += static_cast<double>(sbon().NumServices()) /
                                static_cast<double>(sbon().circuits().size());
    ++c.usage_samples;
  }

  const Workload& w_;
  const uint64_t seed_;
  const bool traced_;
  Rng rng_;
  std::unique_ptr<engine::StreamEngine> eng_;
  core::OptimizerConfig config_;
  core::MultiQueryOptimizer::Params multi_query_;
  std::string placer_name_;
  engine::EpochOptions epoch_;
  std::unique_ptr<net::ChurnModel> churn_;
  std::vector<NodeId> consumers_;
  std::vector<query::QuerySpec> specs_;
  std::vector<engine::QueryHandle> handles_;
  std::vector<CircuitId> circuits_;
  std::vector<EpochPlan> plan_;
  std::vector<CircuitId> submitted_;
  TrialResult out_;
};

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  std::optional<double> value;
  const char* unit;
};

std::string JsonNumber(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", *v);
  return buf;
}

/// Adds `p` of `ns` (in `unit` = ns * scale) at reference speed under
/// `name`, printing the raw wall time with its sample count.
void AddPercentile(std::vector<Metric>* out, const std::string& name,
                   const std::vector<double>& ns, double p, double scale,
                   double speed, const char* unit) {
  const Percentile pc = ExactPercentile(ns, p);
  std::optional<double> raw, v;
  if (pc.value) {
    raw = *pc.value * scale;
    v = *raw * speed;
  }
  std::printf("%-16s raw %s %s  (n=%zu, %zu beyond)%s\n", name.c_str(),
              JsonNumber(raw).c_str(), unit, pc.samples, pc.beyond,
              pc.value ? "" : "  null: fewer than 10 samples beyond");
  out->push_back({name, v, unit});
}

/// The deterministic counts of the run: one trial of each draw, summed.
Counts DrawCounts(const std::vector<TrialResult>& trials) {
  Counts sum;
  for (size_t i = 0; i < kDraws && i < trials.size(); ++i) {
    sum += trials[i].counts;
  }
  return sum;
}

/// Timings come from the run's quiet trials. Every trial of a draw repeats
/// the same work, so its fastest repeats are the ones another tenant of a
/// shared host disturbed least (that load comes and goes within seconds and
/// only ever adds time). This takes the fastest m repeats of every draw, with
/// m the smallest count that gives each p99 1000 samples; nullopt when the
/// run has too few repeats for that.
std::optional<std::vector<const TrialResult*>> QuietTrials(
    const std::vector<TrialResult>& trials) {
  std::vector<std::vector<const TrialResult*>> by_draw(kDraws);
  for (size_t i = 0; i < trials.size(); ++i) {
    by_draw[i % kDraws].push_back(&trials[i]);
  }
  size_t repeats = trials.size();
  for (auto& draw : by_draw) {
    std::sort(draw.begin(), draw.end(),
              [](const TrialResult* a, const TrialResult* b) {
                return a->loop_ns < b->loop_ns;
              });
    repeats = std::min(repeats, draw.size());
  }
  for (size_t m = 1; m <= repeats; ++m) {
    std::vector<const TrialResult*> quiet;
    size_t epochs = 0, submits = 0;
    for (const auto& draw : by_draw) {
      for (size_t j = 0; j < m; ++j) {
        quiet.push_back(draw[j]);
        epochs += draw[j]->epoch_ns.size();
        submits += draw[j]->submit_ns.size();
      }
    }
    if (epochs >= 1000 && submits >= 1000) return quiet;
  }
  return std::nullopt;
}

/// The process's resident-set high-water mark. Read from /proc rather than
/// getrusage: ru_maxrss starts from the parent's RSS at fork, so under a
/// Python launcher it reported the launcher, not this program.
std::optional<double> PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nullopt;
  char line[256];
  std::optional<double> mb;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long kb = 0;
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
    }
  }
  std::fclose(f);
  return mb;
}

std::vector<Metric> EndToEnd(const std::vector<TrialResult>& trials) {
  // The run loop only stops early without quiet trials at kMaxSeconds; then
  // every trial is used and the p99s may print null.
  std::vector<const TrialResult*> quiet;
  if (auto q = QuietTrials(trials)) {
    quiet = std::move(*q);
  } else {
    for (const TrialResult& t : trials) quiet.push_back(&t);
  }
  std::vector<double> setup, epoch_ns, submit_ns, calibration;
  double epochs = 0.0, loop_s = 0.0;
  for (const TrialResult* t : quiet) {
    calibration.push_back(t->calibration_ns);
    setup.push_back(t->setup_s);
    epochs += static_cast<double>(t->epochs);
    loop_s += t->loop_ns * 1e-9;
    epoch_ns.insert(epoch_ns.end(), t->epoch_ns.begin(), t->epoch_ns.end());
    submit_ns.insert(submit_ns.end(), t->submit_ns.begin(), t->submit_ns.end());
  }
  // Times are scaled to the reference speed by the calibration kernel's
  // median over the same trials: the host's speed drifted by up to 70%
  // over minutes, which no choice of trials inside one run removes.
  const double speed = Calibration::kReferenceNs / Median(calibration);
  std::printf("timings from the %zu fastest repeats of %zu trials; "
              "calibration %.3f ms, times below x%.4f to reference speed\n",
              quiet.size(), trials.size(), Median(calibration) * 1e-6, speed);
  std::printf("raw: setup %.6f s, %.3f epochs/s\n", Median(setup),
              epochs / loop_s);
  const Counts c = DrawCounts(trials);
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(setup) * speed, "s"});
  m.push_back({"epochs_per_s", epochs / loop_s / speed, "epochs/s"});
  AddPercentile(&m, "epoch_p50_ms", epoch_ns, 0.50, 1e-6, speed, "ms");
  AddPercentile(&m, "epoch_p99_ms", epoch_ns, 0.99, 1e-6, speed, "ms");
  AddPercentile(&m, "submit_p50_us", submit_ns, 0.50, 1e-3, speed, "us");
  AddPercentile(&m, "submit_p99_us", submit_ns, 0.99, 1e-3, speed, "us");
  m.push_back({"network_usage_per_query",
               Ratio(c.usage_sum, static_cast<double>(c.usage_samples)) / 1e3,
               "KB.ms/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

std::vector<Metric> PerLayer(const std::vector<TrialResult>& untraced,
                             const std::vector<TrialResult>& traced) {
  Spans s;
  size_t epochs = 0;
  // Overhead compares the quietest traced and untraced repeat of each draw.
  double traced_min = 0.0, untraced_min = 0.0;
  for (size_t d = 0; d < kDraws && d < traced.size(); ++d) {
    double tmin = traced[d].loop_ns, umin = untraced[d].loop_ns;
    for (size_t i = d; i < traced.size(); i += kDraws) {
      tmin = std::min(tmin, traced[i].loop_ns);
      umin = std::min(umin, untraced[i].loop_ns);
    }
    traced_min += tmin;
    untraced_min += umin;
  }
  for (const TrialResult& t : traced) {
    epochs += t.epochs;
    s += t.spans;
  }
  if (s.unknown_stages > 0) {
    std::printf("note: %zu epoch stages with unknown names counted as "
                "unattributed\n", s.unknown_stages);
  }
  const Counts c = DrawCounts(traced);
  const size_t draw_epochs =
      traced.front().epochs * std::min(kDraws, traced.size());
  const double E = static_cast<double>(epochs);
  const double per_epoch_ms = 1e-6 / E;
  const double ok_submits =
      static_cast<double>(c.submits - c.submits_failed);
  const double node_epochs = static_cast<double>(traced.front().nodes) *
                            static_cast<double>(draw_epochs);
  auto ms_per_epoch = [&](Span span) { return s.ns[span] * per_epoch_ms; };
  auto us_per_call = [&](Span span) {
    return s.calls[span] == 0
               ? 0.0
               : s.ns[span] * 1e-3 / static_cast<double>(s.calls[span]);
  };
  // Everything the traced loop spent inside timed calls; the rest is the
  // driver's own bookkeeping between calls.
  const double attributed = s.ns[kEpoch] + s.ns[kSubmit] + s.ns[kRemove] +
                            s.ns[kReopt] + s.ns[kFlush];

  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("engine.epoch.unattributed_ms", ms_per_epoch(kUnattributed), "ms");
  add("engine.churn_repair.ms_per_epoch", ms_per_epoch(kChurnRepair), "ms");
  add("engine.repair.queries_repaired", static_cast<double>(c.repaired),
      "count");
  add("engine.repair.queries_dropped", static_cast<double>(c.dropped),
      "count");
  add("engine.epoch.allocs_per_epoch",
      static_cast<double>(s.epoch_allocs) / E, "allocs");
  add("engine.submit.us_per_call", us_per_call(kSubmit), "us");
  add("engine.submit.fail_rate",
      Ratio(static_cast<double>(c.submits_failed),
            static_cast<double>(c.submits)),
      "ratio");
  add("net.jitter.ms_per_epoch", ms_per_epoch(kJitter), "ms");
  add("overlay.load.ms_per_epoch", ms_per_epoch(kLoad), "ms");
  add("overlay.install.us_per_call", us_per_call(kInstall), "us");
  add("overlay.remove.us_per_call", us_per_call(kRemove), "us");
  add("overlay.services_per_query",
      Ratio(c.services_per_query_sum, static_cast<double>(c.usage_samples)),
      "count");
  add("coords.vivaldi.ms_per_epoch", ms_per_epoch(kCoords), "ms");
  add("dht.refresh.ms_per_epoch", ms_per_epoch(kRefresh), "ms");
  add("dht.refresh.republished_per_epoch",
      static_cast<double>(c.republished) / static_cast<double>(draw_epochs),
      "count");
  add("dht.refresh.republish_ratio",
      Ratio(static_cast<double>(c.republished),
            static_cast<double>(c.republished + c.republish_skipped)),
      "ratio");
  add("dht.install_refresh.us_per_call", us_per_call(kFlush), "us");
  add("dht.lookups_per_submit",
      Ratio(static_cast<double>(c.lookups), ok_submits), "count");
  add("dht.hops_per_submit", Ratio(static_cast<double>(c.hops), ok_submits),
      "count");
  add("dht.probes_per_submit", Ratio(static_cast<double>(c.probes), ok_submits),
      "count");
  add("core.optimize.us_per_call", us_per_call(kOptimize), "us");
  add("core.optimize.allocs_per_call",
      Ratio(static_cast<double>(s.optimize_allocs),
            static_cast<double>(s.calls[kOptimize])),
      "allocs");
  add("core.plans_per_submit", Ratio(static_cast<double>(c.plans), ok_submits),
      "count");
  add("core.placements_per_submit",
      Ratio(static_cast<double>(c.placements), ok_submits), "count");
  add("core.reuse_hit_ratio",
      Ratio(static_cast<double>(c.reuse_hits), ok_submits), "ratio");
  add("core.reopt.us_per_call", us_per_call(kReopt), "us");
  add("placement.mapping_error_mean",
      Ratio(c.mapping_error_mean_sum, ok_submits), "cost-units");
  add("placement.load_overrides_per_submit",
      Ratio(static_cast<double>(c.load_overrides), ok_submits), "count");
  add("msg.coords.ms_per_epoch", ms_per_epoch(kMsgCoords), "ms");
  add("msg.refresh.ms_per_epoch", ms_per_epoch(kMsgRefresh), "ms");
  add("msg.msgs_per_epoch",
      static_cast<double>(c.msgs_sent) / static_cast<double>(draw_epochs),
      "count");
  add("msg.delivery_ratio",
      Ratio(static_cast<double>(c.msgs_delivered),
            static_cast<double>(c.msgs_delivered + c.msgs_dropped_fault)),
      "ratio");
  add("msg.retry_byte_ratio",
      Ratio(static_cast<double>(c.retry_bytes),
            static_cast<double>(c.bytes_total - c.retry_bytes)),
      "ratio");
  add("msg.detector.false_suspicion_ratio",
      Ratio(static_cast<double>(c.false_suspicions),
            static_cast<double>(c.suspicions)),
      "ratio");
  add("msg.vivaldi.bytes_per_node_epoch",
      Ratio(static_cast<double>(c.protocol_bytes[0]), node_epochs), "B");
  add("msg.ring.bytes_per_node_epoch",
      Ratio(static_cast<double>(c.protocol_bytes[1]), node_epochs), "B");
  add("msg.placement.bytes_per_node_epoch",
      Ratio(static_cast<double>(c.protocol_bytes[2]), node_epochs), "B");
  add("msg.control_bytes_per_node_epoch",
      Ratio(static_cast<double>(c.bytes_total), node_epochs), "B");
  add("trace.loop_ms_per_epoch", ms_per_epoch(kLoop), "ms");
  add("trace.coverage_ratio", Ratio(attributed, s.ns[kLoop]), "ratio");
  add("trace.overhead_ratio", Ratio(traced_min, untraced_min), "ratio");
  return m;
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                JsonNumber(metrics[i].value).c_str(), metrics[i].unit);
  }
  std::printf("}}\n");
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const char* workload_arg = FlagValue(argc, argv, "--workload");
  const char* seed_arg = FlagValue(argc, argv, "--seed");
  const char* seconds_arg = FlagValue(argc, argv, "--seconds");
  const char* trace_arg = FlagValue(argc, argv, "--trace");
  const long hw = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t nproc = hw > 0 ? static_cast<size_t>(hw) : 1;
  const std::optional<Workload> workload =
      workload_arg ? FindWorkload(workload_arg, nproc) : std::nullopt;
  if (!workload || seed_arg == nullptr || seconds_arg == nullptr ||
      trace_arg == nullptr) {
    std::fprintf(stderr,
                 "usage: sbon_bench --workload maintain|place|chaos --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const Workload& w = *workload;
  const uint64_t seed = std::strtoull(seed_arg, nullptr, 10);
  const double seconds = std::strtod(seconds_arg, nullptr);
  const bool trace = std::strcmp(trace_arg, "1") == 0;

#ifdef SBON_SIMD_ENABLED
  const char* simd = "on";
#else
  const char* simd = "off";
#endif
  std::printf("context: workload=%s seed=%llu trace=%d epoch_threads=%zu "
              "nproc=%zu compiler=\"%s\" simd=%s build=%s\n",
              w.name, static_cast<unsigned long long>(seed), trace ? 1 : 0,
              w.epoch_threads, nproc, __VERSION__, simd, SBON_BENCH_BUILD_TYPE);

  // Trials until the time budget is spent. Untraced runs replay every draw
  // at least twice (so the gate has a pair per draw) and keep going, up to
  // kMaxSeconds on a slow machine, until the quiet trials hold each p99's
  // 1000 samples. Traced runs alternate an untraced and a traced trial of
  // the same draw, at least once per draw.
  constexpr double kMaxSeconds = 150.0;
  std::vector<TrialResult> untraced, traced;
  const Clock::time_point start = Clock::now();
  auto more = [&] {
    const double elapsed = NsBetween(start, Clock::now()) * 1e-9;
    if (untraced.size() < (trace ? kDraws : 2 * kDraws)) return true;
    if (elapsed < seconds) return true;
    return !trace && !QuietTrials(untraced) && elapsed < kMaxSeconds;
  };
  Calibration calibration;
  calibration.RunNs();  // warm: page in its buffers
  do {
    const uint64_t draw = DrawSeed(seed, untraced.size());
    const double calibration_ns = trace ? 0.0 : calibration.RunNs();
    untraced.push_back(Trial(w, draw, /*traced=*/false).Run());
    untraced.back().calibration_ns = calibration_ns;
    if (trace) traced.push_back(Trial(w, draw, /*traced=*/true).Run());
  } while (more());

  // Correctness gate: every trial ends where the first trial of its draw
  // ended (traced trials included), with the same deterministic counts, and
  // every successful submit was fully placed on alive hosts.
  bool correct = true;
  size_t attempted = 0, failed = 0;
  auto check = [&](const std::vector<TrialResult>& trials, const char* kind) {
    for (size_t i = 0; i < trials.size(); ++i) {
      const TrialResult& t = trials[i];
      const TrialResult& ref = untraced[i % kDraws];
      attempted += t.attempted;
      failed += t.failed;
      if (t.fingerprint != ref.fingerprint) {
        std::printf("FAIL: %s trial %zu ended on fingerprint %016llx, not "
                    "%016llx\n",
                    kind, i, static_cast<unsigned long long>(t.fingerprint),
                    static_cast<unsigned long long>(ref.fingerprint));
        correct = false;
      }
      if (!(t.counts == ref.counts)) {
        std::printf("FAIL: %s trial %zu's deterministic counts differ\n",
                    kind, i);
        correct = false;
      }
      if (t.misplaced > 0) {
        std::printf("FAIL: %zu submits returned a circuit not fully placed "
                    "on alive hosts\n", t.misplaced);
        correct = false;
      }
    }
  };
  check(untraced, "untraced");
  check(traced, "traced");
  std::printf("trials: %zu untraced, %zu traced over %zu draws; %zu epochs "
              "and %zu submits per trial; fingerprints",
              untraced.size(), traced.size(), kDraws, untraced.front().epochs,
              untraced.front().counts.submits);
  for (size_t i = 0; i < kDraws; ++i) {
    std::printf(" %016llx",
                static_cast<unsigned long long>(untraced[i].fingerprint));
  }
  std::printf("\n");

  const std::vector<Metric> metrics =
      trace ? PerLayer(untraced, traced) : EndToEnd(untraced);
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) { return sbon::Main(argc, argv); }
