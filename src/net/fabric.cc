#include "net/fabric.h"

#include <limits>

namespace sbon::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

NetworkFabric::NetworkFabric(const Topology& topo, double jitter_sigma,
                             Rng* rng, size_t materialize_max_nodes)
    : n_(topo.NumNodes()),
      sigma_(jitter_sigma),
      live_view_(this, /*live=*/true),
      base_view_(this, /*live=*/false) {
  down_.assign(n_, 0);
  if (n_ <= materialize_max_nodes) {
    matrix_ = std::make_unique<LatencyMatrix>(topo);
  } else {
    PlaceLandmarks(topo);
    neighbor_cache_.resize(n_ * kSketchCacheSlots);
  }
  // The one construction draw iff jitter is attached: the epoch seed the
  // factors derive from until the first tick (read only after a jittered
  // EndPartition on an unticked fabric).
  if (sigma_ > 0.0) epoch_seed_ = rng->Next();
}

void NetworkFabric::TickNetwork(Rng* rng) {
  if (sigma_ <= 0.0) return;
  epoch_seed_ = rng->Next();
  jitter_applied_ = true;
}

Status NetworkFabric::BeginPartition(const std::vector<NodeId>& group,
                                     double factor) {
  if (partition_active_) {
    return Status::FailedPrecondition("a partition is already active");
  }
  if (group.empty()) return Status::InvalidArgument("empty partition group");
  if (factor < 1.0) {
    return Status::InvalidArgument("partition factor must be >= 1");
  }
  partitioned_.assign(n_, 0);
  for (NodeId n : group) {
    if (n >= n_) {
      return Status::OutOfRange("partition member out of range");
    }
    partitioned_[n] = 1;
  }
  partition_active_ = true;
  partition_factor_ = factor;
  return Status::OK();
}

Status NetworkFabric::EndPartition() {
  if (!partition_active_) {
    return Status::FailedPrecondition("no active partition");
  }
  partition_active_ = false;
  // Healing re-applies the current factors without a resample, so on a
  // jittered fabric that was never ticked the construction-epoch factors
  // take effect here.
  if (sigma_ > 0.0) jitter_applied_ = true;
  return Status::OK();
}

double NetworkFabric::SketchBase(NodeId a, NodeId b) const {
  ++stats_.base_reads;
  NeighborSlot& slot =
      neighbor_cache_[static_cast<size_t>(a) * kSketchCacheSlots +
                      b % kSketchCacheSlots];
  if (slot.peer == b) {
    ++stats_.neighbor_hits;
    return slot.value;
  }
  // Upper bound by triangle inequality, exact when a shortest path crosses
  // a landmark. Symmetric in (a, b): addition is commutative and the
  // landmark walk order is fixed, so both argument orders see identical
  // fp ops.
  const double* da = landmark_dist_.data() + a * kSketchLandmarks;
  const double* db = landmark_dist_.data() + b * kSketchLandmarks;
  double best = kInf;
  for (size_t k = 0; k < landmarks_.size(); ++k) {
    const double via = da[k] + db[k];
    if (via < best) best = via;
  }
  slot.peer = b;
  slot.value = best;
  return best;
}

void NetworkFabric::PlaceLandmarks(const Topology& topo) {
  // Deterministic farthest-point traversal from node 0: each new landmark is
  // the node farthest (first-index tie-break) from the landmark set so far.
  // No Rng involved — placement must not perturb the caller's draw stream.
  const size_t want = kSketchLandmarks < n_ ? kSketchLandmarks : n_;
  landmarks_.reserve(want);
  landmark_dist_.assign(n_ * kSketchLandmarks, kInf);
  std::vector<double> min_dist(n_, kInf);
  NodeId next = 0;
  for (size_t k = 0; k < want; ++k) {
    landmarks_.push_back(next);
    const std::vector<double> row = DijkstraLatencies(topo, next);
    NodeId farthest = kInvalidNode;
    double far_d = -1.0;
    for (NodeId i = 0; i < n_; ++i) {
      landmark_dist_[static_cast<size_t>(i) * kSketchLandmarks + k] = row[i];
      if (row[i] < min_dist[i]) min_dist[i] = row[i];
      // Unreachable nodes (inf) are the farthest of all: the next landmark
      // lands in their component and covers it.
      if (min_dist[i] > far_d && min_dist[i] > 0.0) {
        far_d = min_dist[i];
        farthest = i;
      }
    }
    if (farthest == kInvalidNode || far_d == 0.0) break;  // n small: covered
    next = farthest;
  }
}

}  // namespace sbon::net
