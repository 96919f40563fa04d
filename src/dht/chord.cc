#include "dht/chord.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sbon::dht {
namespace {

// True if `x` lies in the half-open clockwise interval (a, b].
bool InIntervalOpenClosed(const U128& x, const U128& a, const U128& b) {
  // Ring distance trick: x in (a, b] iff (x - a) <= (b - a) and x != a.
  if (x == a) return false;
  return (x - a) <= (b - a);
}

bool KeyLess(const ChordRing::Member& m, const U128& k) { return m.key < k; }

// The duplicate-key perturbation stride: odd, so repeated steps from one
// key never revisit it.
U128 PerturbStep(NodeId node) {
  return U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
}

// floor(log2(x)) for x != 0.
unsigned FloorLog2(const U128& x) {
  assert(x != U128());
  return x.hi != 0 ? 127u - static_cast<unsigned>(std::countl_zero(x.hi))
                   : 63u - static_cast<unsigned>(std::countl_zero(x.lo));
}

// SplitMix64 finalizer over both halves: Hilbert keys use only the low
// bits, so the set's slot index must mix them.
uint64_t MixKey(const U128& k) {
  uint64_t x = k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void ChordRing::Join(U128 key, NodeId node) {
  // Perturb exact duplicates so every member has a unique ring key.
  // `members_` stays sorted by key, so existence is a binary search and the
  // new member is spliced in at its lower bound instead of re-sorting the
  // whole ring on every join.
  U128 k = key;
  auto pos = std::lower_bound(members_.begin(), members_.end(), k, KeyLess);
  while (pos != members_.end() && pos->key == k) {
    k = k + PerturbStep(node);
    pos = std::lower_bound(members_.begin(), members_.end(), k, KeyLess);
  }
  members_.insert(pos, Member{k, node});
  stale_ = true;
}

void ChordRing::Leave(NodeId node) {
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&](const Member& m) {
                                  return m.node == node;
                                }),
                 members_.end());
  stale_ = true;
}

size_t ChordRing::FreshSlot(const U128& key) const {
  const size_t mask = fresh_slots_.size() - 1;
  size_t slot = static_cast<size_t>(MixKey(key)) & mask;
  while (fresh_slots_[slot] != 0 &&
         fresh_[fresh_slots_[slot] - 1].key != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool ChordRing::KeyLiveDuringBatch(const U128& key, size_t pos) const {
  // Keys joined earlier in the batch.
  if (fresh_slots_[FreshSlot(key)] != 0) return true;
  // Pre-batch members, unless the owner already left — its Leave runs at
  // its own batch position, so owners later in the batch still hold their
  // old keys.
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), key, KeyLess);
  if (it == members_.end() || it->key != key) return false;
  const size_t owner_pos = BatchPos(it->node);
  return owner_pos == 0 || owner_pos > pos;
}

void ChordRing::Republish(const std::vector<Member>& batch) {
  if (batch.empty()) return;
  for (size_t j = 0; j < batch.size(); ++j) {
    const NodeId node = batch[j].node;
    if (node >= batch_pos_.size()) batch_pos_.resize(node + 1, 0);
    assert(batch_pos_[node] == 0 && "Republish batch nodes must be distinct");
    batch_pos_[node] = static_cast<uint32_t>(j + 1);
  }
  // Open-addressing key set at load factor <= 1/2.
  size_t cap = 16;
  while (cap < 2 * batch.size()) cap <<= 1;
  fresh_slots_.assign(cap, 0);

  // Replay the sequential Leave+Join perturbation: entry j's key is
  // perturbed while it collides with a key live at its turn.
  fresh_.clear();
  for (size_t j = 0; j < batch.size(); ++j) {
    const Member& e = batch[j];
    U128 k = e.key;
    while (KeyLiveDuringBatch(k, j + 1)) k = k + PerturbStep(e.node);
    fresh_.push_back(Member{k, e.node});
    fresh_slots_[FreshSlot(k)] = static_cast<uint32_t>(fresh_.size());
  }

  // Drop the batch nodes' old entries, then merge the sorted new entries
  // in from the back, in place. Keys are unique, so the result is the
  // sorted membership the sequential path reaches; the vector only grows
  // past its capacity when the ring does.
  std::sort(fresh_.begin(), fresh_.end(),
            [](const Member& a, const Member& b) { return a.key < b.key; });
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&](const Member& m) {
                                  return BatchPos(m.node) != 0;
                                }),
                 members_.end());
  size_t kept = members_.size();
  size_t added = fresh_.size();
  members_.resize(kept + added);
  for (size_t out = kept + added; added > 0;) {
    if (kept > 0 && fresh_[added - 1].key < members_[kept - 1].key) {
      members_[--out] = members_[--kept];
    } else {
      members_[--out] = fresh_[--added];
    }
  }
  for (const Member& e : batch) batch_pos_[e.node] = 0;
  stale_ = true;
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), key, KeyLess);
  if (it == members_.end()) return 0;
  return static_cast<size_t>(it - members_.begin());
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key,
                                                    U128 origin_key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  if (stale_) return Status::FailedPrecondition("ring not stabilized");

  // Start at the member owning origin_key (its successor).
  size_t cur = SuccessorIndex(origin_key);
  size_t hops = 0;
  const size_t n = members_.size();
  const size_t target_idx = SuccessorIndex(key);

  // Greedy Chord routing: while the key is not between cur and its
  // immediate successor, forward to the closest preceding finger.
  while (cur != target_idx) {
    const U128& cur_key = members_[cur].key;
    const size_t succ = (cur + 1) % n;
    if (InIntervalOpenClosed(key, cur_key, members_[succ].key)) {
      cur = succ;
      ++hops;
      break;
    }
    // Closest preceding finger: the largest finger strictly between
    // cur_key and key, where finger i is successor(cur_key + 2^i) — the
    // first member at clockwise distance >= 2^i from cur_key, or cur itself
    // if there is none. The members strictly between cur_key and key are
    // the clockwise offsets 1 .. span-1 from cur (offset span is
    // target_idx, at or past the key; span >= 2 since the successor test
    // above failed). Finger i lands among them iff 2^i <= far, the
    // distance of the farthest one, so the closest preceding finger is
    // finger floor(log2(far)): one binary search, no scan over the bits.
    const size_t span = (target_idx + n - cur) % n;
    size_t last = cur + span - 1;
    if (last >= n) last -= n;
    const U128 reach = PowerOfTwo(FloorLog2(members_[last].key - cur_key));
    size_t lo = 1, hi = span - 1;  // first offset at distance >= reach
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      size_t idx = cur + mid;
      if (idx >= n) idx -= n;
      if (members_[idx].key - cur_key < reach) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cur = cur + lo < n ? cur + lo : cur + lo - n;
    ++hops;
    if (hops > n + 130) {
      return Status::Internal("chord routing failed to converge");
    }
  }
  LookupResult r;
  r.node = members_[cur].node;
  r.key = members_[cur].key;
  r.hops = hops;
  r.member_index = cur;
  return r;
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  return Lookup(key, members_[0].key);
}

const ChordRing::Member& ChordRing::SuccessorAt(size_t member_index,
                                                size_t i) const {
  return members_[(member_index + i) % members_.size()];
}

const ChordRing::Member& ChordRing::PredecessorAt(size_t member_index,
                                                  size_t i) const {
  const size_t n = members_.size();
  return members_[(member_index + n - (i % n)) % n];
}

}  // namespace sbon::dht
