#ifndef CASCACHE_CACHE_DCACHE_H_
#define CASCACHE_CACHE_DCACHE_H_

#include <cstddef>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
#include "cache/frequency.h"
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

/// Auxiliary descriptor cache (paper §2.4): holds descriptors of the most
/// frequently accessed objects *not* stored in the main cache, so the
/// coordinated scheme (and LNC-R) can evaluate cost savings for objects it
/// does not hold. Capacity is measured in descriptor count.
///
/// Descriptors live in a chunked slot pool indexed by a direct id→slot
/// table, so Find/Insert/Refresh are O(1) array hops with no hashing and
/// no per-descriptor allocation; chunks are stable, so returned
/// ObjectDescriptor pointers survive later insertions. The eviction heap
/// is keyed by pool slot: its position table holds one uint32_t per slot
/// (bounded by the capacity, whatever the catalog's id space), and a
/// slot→id array names the victim it pops.
class DCache {
 public:
  explicit DCache(size_t max_descriptors,
                  DCachePolicy policy = DCachePolicy::kLfu);

  DCachePolicy policy() const { return policy_; }

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Mutable descriptor lookup; nullptr if absent.
  ObjectDescriptor* Find(ObjectId id);
  const ObjectDescriptor* Find(ObjectId id) const;

  /// Inserts (or overwrites) a descriptor, evicting the lowest-priority
  /// descriptor if full. Returns the stored descriptor, or nullptr when
  /// capacity is zero. When full, the insert is admission-checked: a new
  /// descriptor ranking below the current minimum is rejected rather than
  /// thrashing the coldest slot (under LRU the newcomer's recency always
  /// admits it).
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

  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }

  /// High-water pool slot count (test/debug helper for pool-reuse
  /// assertions after Reset).
  size_t slot_span() const { return pool_.slot_span(); }

 private:
  double PriorityOf(const ObjectDescriptor& desc) const;
  void EraseSlot(ObjectId id, SlotId slot);

  size_t capacity_;
  DCachePolicy policy_;
  ChunkedSlotPool<ObjectDescriptor> pool_;
  SlotIndex index_;
  /// Pool slot → the id whose descriptor it holds.
  std::vector<ObjectId> slot_ids_;
  size_t count_ = 0;
  /// Min-heap of pool slots on priority: the top is the eviction victim.
  util::IndexedMinHeap<SlotId, util::SlotPosMap> heap_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_DCACHE_H_
