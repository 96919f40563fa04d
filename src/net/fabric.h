#ifndef SBON_NET_FABRIC_H_
#define SBON_NET_FABRIC_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/dynamics.h"
#include "net/shortest_path.h"
#include "net/topology.h"

namespace sbon::net {

/// Largest overlay whose pristine base latencies are materialized as a flat
/// N x N matrix (128 MB of doubles at the limit). Above it the base is a
/// landmark sketch with O(landmarks * N) memory, and the centralized
/// coordinate modes (MDS / true coordinates), which need every exact pair,
/// are refused at overlay creation.
inline constexpr size_t kMaterializeMaxNodes = 4096;

/// The physical-network substrate of the overlay: a pristine and a live
/// pairwise-latency view, the per-epoch congestion tick, endpoint liveness
/// and the soft-partition overlay that inflates cross-cut latency during
/// connectivity faults. One of the three substrates `overlay::Sbon`
/// composes (alongside coords::CoordinateManager and overlay::ServiceLedger);
/// it owns latency state only.
///
/// Base store, chosen by size:
///  - N <= `materialize_max_nodes`: a flat row-major LatencyMatrix from one
///    Dijkstra per source, so base(a, b) is Dijkstra(a)[b] exactly;
///  - above it: a landmark sketch. `kSketchLandmarks` landmarks are placed
///    by deterministic farthest-point traversal, each contributing one exact
///    Dijkstra row; a pair's base latency is min over landmarks of
///    d(l, a) + d(l, b) — symmetric, exact when a shortest path crosses a
///    landmark, an upper bound (triangle inequality) otherwise. A per-node
///    direct-mapped neighbor cache memoizes resolved pairs; it never changes
///    a returned value.
///
/// Live reads are generative: nothing is rewritten per epoch. TickNetwork
/// draws one epoch seed, and a read derives the pair's congestion factor
/// from it (JitterFactorAt over the upper-triangle pair index), then
/// applies the partition penalty and the dead-endpoint sentinel:
///
///   live(a, b) = +inf                                   if a or b is down
///              = base(a, b)                             before the first tick
///              = base(lo, hi) * factor(seed, lo, hi)    after it
///              (* partition factor when the pair crosses the cut)
///
/// with lo/hi = min/max(a, b), so jittered live latencies are bitwise
/// symmetric. The self-pair of a live endpoint reads 0.
///
/// Rng contract: construction consumes exactly one draw iff
/// jitter_sigma > 0, and TickNetwork exactly one draw per call iff jitter
/// is attached (none otherwise) — so the overlay's shared stream, and every
/// fixed-seed golden, do not depend on the base store.
///
/// Reads of the sketch mutate its cache; like every substrate here,
/// concurrent reads require external ordering. The epoch pipeline only
/// reads live latencies from serial stages.
class NetworkFabric {
 public:
  /// Landmarks of the sketch base (each costs one N-vector of doubles).
  static constexpr size_t kSketchLandmarks = 32;
  /// Neighbor-cache slots per node of the sketch base.
  static constexpr size_t kSketchCacheSlots = 16;

  /// Cumulative sketch-base resolution counters (zero on a materialized
  /// base, which needs no cache).
  struct CacheStats {
    size_t base_reads = 0;     ///< sketch resolutions (cache hits included)
    size_t neighbor_hits = 0;  ///< served from the per-node slot cache
  };

  /// Builds the base store over `topo` and attaches jitter iff
  /// `jitter_sigma > 0` (one draw from `rng`). `materialize_max_nodes` is
  /// the base-store switch point; lowering it reaches the sketch at small N.
  NetworkFabric(const Topology& topo, double jitter_sigma, Rng* rng,
                size_t materialize_max_nodes = kMaterializeMaxNodes);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// The live latency view: jitter times base, partition penalty on top,
  /// +inf for down endpoints.
  const LatencyView& live() const { return live_view_; }
  /// The pristine latencies (before jitter/partition/liveness): what the
  /// healed network would look like, for drift measurement and rejoins.
  const LatencyView& base() const {
    return matrix_ != nullptr ? static_cast<const LatencyView&>(*matrix_)
                              : base_view_;
  }
  bool has_jitter() const { return sigma_ > 0.0; }
  size_t NumNodes() const { return n_; }
  /// True when the base is the flat matrix, false for the landmark sketch.
  bool materialized() const { return matrix_ != nullptr; }
  /// Landmarks actually placed (0 on a materialized base).
  size_t num_landmarks() const { return landmarks_.size(); }
  const CacheStats& cache_stats() const { return stats_; }

  /// Starts a new congestion epoch: one draw from `rng` becomes the seed
  /// every jitter factor is derived from on demand. O(1); no-op (and no
  /// draw) without jitter.
  void TickNetwork(Rng* rng);

  /// Soft link partition: the live latency of every pair that crosses the
  /// cut (`group` vs. the rest) is scaled by `factor` until EndPartition.
  /// One partition may be active at a time.
  Status BeginPartition(const std::vector<NodeId>& group, double factor);
  /// Heals the active partition. On a jittered fabric that was never
  /// ticked this also starts applying the construction-epoch factors
  /// (live != base afterwards) — the pinned state machine.
  Status EndPartition();
  bool partition_active() const { return partition_active_; }

  /// Marks an endpoint down (crashed) or back up: an O(1) flag the live
  /// view tests at read time, so a revived node's latencies are bitwise
  /// those of never having crashed.
  void SetEndpointDown(NodeId n, bool down) { down_[n] = down ? 1 : 0; }
  bool EndpointDown(NodeId n) const { return down_[n] != 0; }
  /// True when an active partition separates `a` and `b`; the drop
  /// predicate message delivery tests before paying cross-cut latency.
  bool CrossesPartition(NodeId a, NodeId b) const {
    return partition_active_ && partitioned_[a] != partitioned_[b];
  }

 private:
  class View final : public LatencyView {
   public:
    View(const NetworkFabric* fabric, bool live)
        : fabric_(fabric), live_(live) {}
    size_t NumNodes() const override { return fabric_->n_; }
    double Latency(NodeId a, NodeId b) const override {
      return live_ ? fabric_->LiveLatency(a, b) : fabric_->BaseLatency(a, b);
    }

   private:
    const NetworkFabric* fabric_;
    bool live_;
  };

  double BaseLatency(NodeId a, NodeId b) const {
    if (a == b) return 0.0;
    return matrix_ != nullptr ? matrix_->Latency(a, b) : SketchBase(a, b);
  }
  double LiveLatency(NodeId a, NodeId b) const {
    // Dead endpoints read as unreachable, the self-pair included.
    if (down_[a] || down_[b]) return std::numeric_limits<double>::infinity();
    if (a == b) return 0.0;
    double v;
    if (jitter_applied_) {
      // Both argument orders resolve through the upper-triangle base entry
      // (per-source Dijkstra mirrors can differ in the last ulp), so
      // jittered reads are bitwise symmetric.
      const NodeId lo = a < b ? a : b;
      const NodeId hi = a < b ? b : a;
      v = BaseLatency(lo, hi) *
          JitterFactorAt(epoch_seed_, sigma_, JitterPairIndex(lo, hi, n_));
    } else {
      v = BaseLatency(a, b);
    }
    if (CrossesPartition(a, b)) v *= partition_factor_;
    return v;
  }
  /// Sketch resolution through the neighbor cache of row `a`.
  double SketchBase(NodeId a, NodeId b) const;
  void PlaceLandmarks(const Topology& topo);

  size_t n_;
  double sigma_;
  /// Materialized base store; null when the sketch is the base.
  std::unique_ptr<LatencyMatrix> matrix_;

  // Congestion epoch. `jitter_applied_` is false until the first
  // TickNetwork (or a jittered EndPartition); until then live reads equal
  // base.
  uint64_t epoch_seed_ = 0;
  bool jitter_applied_ = false;

  bool partition_active_ = false;
  double partition_factor_ = 1.0;
  std::vector<uint8_t> partitioned_;  ///< by node id; one side of the cut
  std::vector<uint8_t> down_;         ///< by node id; endpoint marked down

  // Sketch store: landmark ids, each node's distances to them (node-major,
  // kSketchLandmarks slots per node, so a pair read touches two contiguous
  // runs) and the per-node direct-mapped cache of resolved pairs.
  std::vector<NodeId> landmarks_;
  std::vector<double> landmark_dist_;
  struct NeighborSlot {
    NodeId peer = kInvalidNode;
    double value = 0.0;
  };
  mutable std::vector<NeighborSlot> neighbor_cache_;
  mutable CacheStats stats_;

  View live_view_;
  View base_view_;
};

}  // namespace sbon::net

#endif  // SBON_NET_FABRIC_H_
