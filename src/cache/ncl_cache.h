#ifndef CASCACHE_CACHE_NCL_CACHE_H_
#define CASCACHE_CACHE_NCL_CACHE_H_

#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "cache/ordered_heap.h"
#include "trace/object_catalog.h"

namespace cascache::cache {

using trace::ObjectId;

/// Cost-aware object store ordered by normalized cost loss, used by the
/// LNC-R baseline and the coordinated scheme. Each cached object carries a
/// cost loss f(O)·m(O) (the penalty of losing it); its *normalized* cost
/// loss (NCL) is f(O)·m(O)/s(O) (paper §2.1). Victims are selected
/// greedily in ascending NCL order until enough space is freed — the
/// paper's knapsack heuristic.
///
/// Entry storage is flat: size/loss live in struct-of-arrays slots behind
/// a direct-index id→slot table, and the (NCL, id) order is a flat binary
/// min-heap of {NCL, id, slot} entries (OrderedSlotHeap) with positions
/// indexed by slot. A loss refresh is an in-place sift; the greedy plan
/// walks the heap in exact ascending (NCL, id) order, as a greedy scan of
/// an ordered set would, and usually stops at the root.
class NclCache {
 public:
  /// Greedy eviction preview: which objects would be purged to free
  /// `need` bytes, and the total cost loss l = sum of their f·m values.
  struct EvictionPlan {
    std::vector<ObjectId> victims;
    double cost_loss = 0.0;
    uint64_t freed_bytes = 0;
    bool feasible = false;  ///< True if enough bytes can be freed.

    /// Resets to the empty plan, keeping the victims allocation.
    void Clear() {
      victims.clear();
      cost_loss = 0.0;
      freed_bytes = 0;
      feasible = false;
    }
  };

  explicit NclCache(uint64_t capacity_bytes);

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Cost loss (f·m) currently recorded for a cached object.
  double LossOf(ObjectId id) const;

  /// Plans the greedy smallest-NCL-first eviction that frees at least
  /// `need_bytes` beyond current free space; does not modify the cache.
  /// If the cache already has `need_bytes` free, the plan is empty and
  /// feasible.
  EvictionPlan PlanEviction(uint64_t need_bytes) const;

  /// Allocation-free variant for the hot path (coordinated placement
  /// plans an eviction per candidate on every request ascent): fills a
  /// caller-owned plan, reusing its victims buffer.
  void PlanEvictionInto(uint64_t need_bytes, EvictionPlan* plan) const;

  /// Inserts an object, applying the greedy eviction as needed. Returns
  /// the evicted ids (a reused internal scratch, valid until the next
  /// Insert); `inserted` reports whether the object was stored (false if
  /// it exceeds total capacity or is already present).
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double loss,
                                      bool* inserted = nullptr);

  /// Insert() for an object known to be absent: skips the presence probe
  /// (the cache node has just made it).
  const std::vector<ObjectId>& InsertAbsent(ObjectId id, uint64_t size,
                                            double loss,
                                            bool* inserted = nullptr);

  /// Updates the cost loss (and hence NCL priority) of a cached object.
  /// No-op if absent; returns presence.
  bool UpdateLoss(ObjectId id, double loss);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects the id-index storage mode (SlotIndex::SetSparse); the cache
  /// must be empty.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  uint64_t free_bytes() const { return capacity_ - used_; }
  size_t num_objects() const { return count_; }

  /// High-water slot count (test/debug helper).
  size_t slot_span() const { return sizes_.size(); }

  /// Ids of all cached objects in ascending NCL order (test/debug helper).
  std::vector<ObjectId> IdsByNcl() const;

 private:
  SlotId AllocSlot();
  /// Drops a resident object's slot and index entry (not its heap entry).
  void Release(ObjectId id, SlotId slot);

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  /// Reused by Insert() so steady-state insertions do not allocate a
  /// fresh victims vector per call.
  EvictionPlan insert_plan_;
  std::vector<ObjectId> evicted_scratch_;

  // Struct-of-arrays entry slots + direct id→slot index.
  std::vector<uint64_t> sizes_;
  std::vector<double> losses_;  ///< f·m
  std::vector<SlotId> free_;
  SlotIndex index_;

  /// (NCL, id) min-heap; NCL = loss / size.
  OrderedSlotHeap order_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_NCL_CACHE_H_
