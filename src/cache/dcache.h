#ifndef CASCACHE_CACHE_DCACHE_H_
#define CASCACHE_CACHE_DCACHE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
#include "cache/frequency.h"
#include "util/check.h"
#include "util/indexed_heap.h"

namespace cascache::cache {

using trace::ObjectId;

/// Replacement policy for descriptors in the d-cache. The paper proposes
/// "simple LFU replacement" (§2.4) but also notes the descriptors "can be
/// organized into one or more LRU stacks" when frequencies come from a
/// sliding window; both are supported.
enum class DCachePolicy {
  kLfu,  ///< Evict the lowest-frequency descriptor (paper default).
  kLru,  ///< Evict the least-recently-accessed descriptor.
};

/// Slot-keyed core of the auxiliary descriptor cache (paper §2.4): the
/// eviction order and the admission rule over descriptors whose slots the
/// owner allocates. A cost-mode CacheNode keeps its d-cache descriptors in
/// the one pool it shares with its cached objects' descriptors, so an
/// evicted object's descriptor enters the d-cache by pushing its slot
/// here; DCache wraps the same core in an id-keyed API. Capacity is
/// measured in descriptors.
///
/// The order is a min-heap of slots on priority (LFU: frequency; LRU: the
/// latest access time), its position table one uint32_t per slot. Sifts
/// compare priorities only, so which of several tied descriptors is the
/// victim depends on the sequence of operations, never on slot numbers.
class DCacheSlotHeap {
 public:
  DCacheSlotHeap(size_t max_descriptors, DCachePolicy policy)
      : capacity_(max_descriptors), policy_(policy) {}

  DCachePolicy policy() const { return policy_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return heap_.size(); }

  /// Eviction priority of a descriptor under the policy.
  double PriorityOf(const ObjectDescriptor& desc) const {
    if (policy_ == DCachePolicy::kLfu) return desc.frequency;
    // LRU: most recent access time (0 if never accessed); the heap evicts
    // the minimum, i.e. the least recently accessed descriptor.
    return desc.num_accesses == 0 ? 0.0 : desc.KthMostRecentAccess(1);
  }

  /// The admission rule: whether a new descriptor of `priority` enters.
  /// When the d-cache is full it enters only if it does not rank below
  /// the current minimum (under LRU the newcomer's recency always admits
  /// it), and then the minimum is popped first and handed to
  /// `on_evict(SlotId)`. Zero capacity admits nothing. On true the caller
  /// must Push the newcomer's slot with the same priority.
  template <typename OnEvict>
  bool Admit(double priority, OnEvict&& on_evict) {
    if (capacity_ == 0) return false;
    if (heap_.size() >= capacity_) {
      if (priority < heap_.Top().second) return false;
      on_evict(heap_.Pop().first);
    }
    return true;
  }

  /// Adds an admitted slot.
  void Push(SlotId slot, double priority) { heap_.Push(slot, priority); }

  /// Re-prioritizes a present slot from its descriptor's current state.
  void Refresh(SlotId slot, const ObjectDescriptor& desc) {
    heap_.Update(slot, PriorityOf(desc));
  }

  /// Removes a present slot; the slot is the caller's again.
  void Erase(SlotId slot) { CASCACHE_CHECK(heap_.Erase(slot)); }

  bool Contains(SlotId slot) const { return heap_.Contains(slot); }
  void Clear() { heap_.Clear(); }

  /// (slot, priority) entries in heap order (invariant checks).
  const std::vector<std::pair<SlotId, double>>& entries() const {
    return heap_.entries();
  }
  bool CheckInvariants() const {
    return heap_.size() <= capacity_ && heap_.CheckInvariants();
  }

 private:
  size_t capacity_;
  DCachePolicy policy_;
  util::IndexedMinHeap<SlotId, util::SlotPosMap> heap_;
};

/// Id-keyed auxiliary descriptor cache: a DCacheSlotHeap over its own
/// chunked descriptor pool and id→slot index, for callers without a
/// directory of their own (the layer benchmarks, the d-cache's unit and
/// differential tests). Holds descriptors of the most frequently accessed
/// objects *not* stored in the main cache, so the coordinated scheme (and
/// LNC-R) can evaluate cost savings for objects it does not hold. Chunks
/// are stable, so returned ObjectDescriptor pointers survive later
/// insertions.
class DCache {
 public:
  explicit DCache(size_t max_descriptors,
                  DCachePolicy policy = DCachePolicy::kLfu)
      : heap_(max_descriptors, policy) {}

  DCachePolicy policy() const { return heap_.policy(); }

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Mutable descriptor lookup; nullptr if absent.
  ObjectDescriptor* Find(ObjectId id);
  const ObjectDescriptor* Find(ObjectId id) const;

  /// Inserts (or overwrites) a descriptor, subject to the admission rule
  /// (DCacheSlotHeap::Admit) when new. Returns the stored descriptor, or
  /// nullptr when rejected (always, at zero capacity).
  ObjectDescriptor* Insert(ObjectId id, const ObjectDescriptor& desc);

  /// Refreshes the eviction priority of a present descriptor from its
  /// current state (call after recording an access). No-op if absent.
  void Refresh(ObjectId id, const ObjectDescriptor& desc);

  /// Records an access on a present descriptor through `estimator` and
  /// refreshes its eviction priority, with one index probe; returns the
  /// descriptor, or nullptr (and no change) if absent. Same effect as
  /// Find + estimator.OnAccess + Refresh.
  ObjectDescriptor* RecordAccess(ObjectId id,
                                 const FrequencyEstimator& estimator,
                                 double now);

  /// Moves a present descriptor out into `*out` and erases it, with one
  /// index probe; returns false (leaving `*out` alone) if absent. Same
  /// effect as Find + copy + Erase.
  bool Take(ObjectId id, ObjectDescriptor* out);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects the id-index storage mode (SlotIndex::SetSparse); the
  /// d-cache must be empty. The slot-keyed heap needs no mode.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return heap_.capacity(); }

  /// High-water pool slot count (test/debug helper for pool-reuse
  /// assertions after Reset).
  size_t slot_span() const { return pool_.slot_span(); }

 private:
  /// Drops a slot's index entry and returns it to the pool (not its heap
  /// entry).
  void Release(SlotId slot);

  ChunkedSlotPool<ObjectDescriptor> pool_;
  SlotIndex index_;
  /// Pool slot → the id whose descriptor it holds.
  std::vector<ObjectId> slot_ids_;
  DCacheSlotHeap heap_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_DCACHE_H_
