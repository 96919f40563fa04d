#ifndef SBON_DHT_CHORD_H_
#define SBON_DHT_CHORD_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "dht/u128.h"

namespace sbon::dht {

/// A simulated Chord ring [19]: the decentralized catalog the paper proposes
/// for mapping cost-space coordinates back to physical nodes (Sec. 3.2).
///
/// This is a functional simulation, not a networked implementation: the ring
/// membership is held centrally, but *lookups are routed* exactly as Chord
/// routes them — greedy closest-preceding-finger hops — so the library can
/// account for lookup cost (hop counts) the way a deployment would pay it.
///
/// No finger table is stored. Finger i of a member is successor(key + 2^i),
/// a binary search over the sorted membership, so Lookup derives the one
/// finger each hop takes. That keeps upkeep proportional to what changed: a
/// membership change costs its splice (or one merge per Republish batch),
/// and Stabilize is O(1).
class ChordRing {
 public:
  struct Member {
    U128 key;
    NodeId node = kInvalidNode;
  };

  struct LookupResult {
    NodeId node = kInvalidNode;  ///< successor(key) owner
    U128 key;                    ///< its ring key
    size_t hops = 0;             ///< routing hops taken
    size_t member_index = 0;     ///< index into sorted membership
  };

  /// Adds a member with the given ring key. Duplicate exact keys are
  /// perturbed by the node id (low bits) to keep keys unique.
  void Join(U128 key, NodeId node);
  /// Removes all entries owned by `node`.
  void Leave(NodeId node);

  /// Mass re-publish (bring-up, index refresh): the membership that calling
  /// Leave(e.node) then Join(e.key, e.node) for each entry of `batch` in
  /// order would produce — duplicate-key perturbation included — built in
  /// O(n + d log d) for d entries over n members instead of d O(n) splices.
  /// Nodes in `batch` must be distinct. Allocation-free in steady state
  /// (scratch buffers are reused). A non-empty batch makes the ring stale,
  /// exactly as Join/Leave do; an empty one leaves it untouched.
  void Republish(const std::vector<Member>& batch);

  size_t NumMembers() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  /// Marks the ring routable again after membership changes. Join, Leave
  /// and Republish make Lookup fail until the next Stabilize — the window
  /// in which a deployed ring's fingers would still point at the old
  /// membership (message mode bills zero hops for routes issued in it).
  void Stabilize() { stale_ = false; }

  /// Chord-routes from the member owning `origin_key` toward `key`;
  /// returns successor(key). Each hop forwards to the closest preceding
  /// finger — the hops and owners a full 128-entry finger table gives —
  /// found with one binary search over the members between the hop and
  /// the key. Requires a stabilized, non-empty ring.
  StatusOr<LookupResult> Lookup(U128 key, U128 origin_key) const;

  /// Lookup starting from the first member (deterministic origin).
  StatusOr<LookupResult> Lookup(U128 key) const;

  /// The i-th member clockwise from `member_index` (wraps).
  const Member& SuccessorAt(size_t member_index, size_t i) const;
  /// The i-th member counter-clockwise from `member_index` (wraps).
  const Member& PredecessorAt(size_t member_index, size_t i) const;

 private:
  // Sorted by key.
  std::vector<Member> members_;
  bool stale_ = false;

  // Republish scratch, reused across calls. batch_pos_[node] is the node's
  // 1-based position in the current batch (0 = not in it); fresh_ holds the
  // batch's final entries, and fresh_slots_ is an open-addressing set over
  // their keys (0 = empty slot, else 1 + index into fresh_).
  std::vector<uint32_t> batch_pos_;
  std::vector<Member> fresh_;
  std::vector<uint32_t> fresh_slots_;

  size_t SuccessorIndex(U128 key) const;
  /// Slot of `key` in the fresh-key set, or the empty slot it would take.
  size_t FreshSlot(const U128& key) const;
  size_t BatchPos(NodeId node) const {
    return node < batch_pos_.size() ? batch_pos_[node] : 0;
  }
  /// Republish's existence probe: is `key` a live ring key while entry
  /// `pos` (1-based) of the batch is being joined?
  bool KeyLiveDuringBatch(const U128& key, size_t pos) const;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
