#ifndef CASCACHE_CACHE_NCL_CACHE_H_
#define CASCACHE_CACHE_NCL_CACHE_H_

#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "cache/ordered_heap.h"
#include "trace/object_catalog.h"
#include "util/check.h"

namespace cascache::cache {

using trace::ObjectId;

/// Slot-keyed core of the cost-aware store used by the LNC-R baseline and
/// the coordinated scheme. Each cached object carries a cost loss f(O)·m(O)
/// (the penalty of losing it); its *normalized* cost loss (NCL) is
/// f(O)·m(O)/s(O) (paper §2.1). Victims are taken greedily in ascending
/// NCL order until enough space is freed — the paper's knapsack heuristic.
///
/// The owner allocates slots and maps ids to them: NclCache through its
/// own id index, a cost-mode CacheNode through the one directory it shares
/// with its descriptors and d-cache. Size/loss live in a per-slot array,
/// and the (NCL, id) order is a flat binary min-heap of
/// {NCL, id, slot} entries (OrderedSlotHeap). A loss refresh is an
/// in-place sift; the greedy plan walks the heap in exact ascending
/// (NCL, id) order, as a greedy scan of an ordered set would, and usually
/// stops at the root; an insertion pops its victims straight off the top.
class NclSlotStore {
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

  explicit NclSlotStore(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Whether `slot` holds a resident object.
  bool Contains(SlotId slot) const { return order_.Contains(slot); }

  /// Size and cost loss (f·m) of a resident slot.
  uint64_t SizeOf(SlotId slot) const { return entries_[slot].size; }
  double LossOf(SlotId slot) const { return entries_[slot].loss; }

  /// Fills `plan` with the greedy smallest-NCL-first eviction that frees
  /// at least `need_bytes` beyond current free space, reusing its victims
  /// buffer; does not modify the store. If `need_bytes` are already free,
  /// the plan is empty and feasible.
  void PlanEvictionInto(uint64_t need_bytes, EvictionPlan* plan) const;

  /// Stores `id` in the caller-allocated `slot` (not resident; `size` at
  /// most the capacity), first evicting in ascending (NCL, id) order until
  /// it fits. `on_victim(ObjectId, SlotId)` runs once per victim, after
  /// the victim has left the byte count and before the next one is taken;
  /// the victim's slot is the caller's again. The victims are those
  /// PlanEvictionInto(size) lists.
  template <typename OnVictim>
  void Insert(ObjectId id, SlotId slot, uint64_t size, double loss,
              OnVictim&& on_victim) {
    CASCACHE_DCHECK(size > 0 && size <= capacity_ && !Contains(slot));
    if (slot >= entries_.size()) {
      entries_.resize(static_cast<size_t>(slot) + 1);
    }
    entries_[slot] = SlotEntry{size, loss};
    const double ncl = loss / static_cast<double>(size);
    // The last victim's entry is not popped: the new entry replaces it
    // with one sift-down instead of a pop (root to leaf) plus a push (leaf
    // back up). The (NCL, id) order is total, so the layout this leaves
    // cannot change any later victim.
    bool placed = false;
    while (capacity_ - used_ < size) {
      const OrderedSlotHeap::Entry victim = order_.Top();
      used_ -= entries_[victim.slot].size;
      --count_;
      placed = capacity_ - used_ >= size;
      if (placed) {
        order_.ReplaceTop(ncl, id, slot);
      } else {
        order_.Pop();
      }
      on_victim(victim.id, victim.slot);
    }
    if (!placed) order_.Push(ncl, id, slot);
    used_ += size;
    ++count_;
  }

  /// Updates the cost loss (and hence NCL priority) of a resident slot.
  void UpdateLoss(SlotId slot, double loss) {
    entries_[slot].loss = loss;
    order_.Update(slot, loss / static_cast<double>(entries_[slot].size));
  }

  /// Removes a resident slot; the slot is the caller's again.
  void Erase(SlotId slot) {
    order_.Erase(slot);
    used_ -= entries_[slot].size;
    --count_;
  }

  /// Drops every entry; the slot array keeps its capacity.
  void Clear() {
    order_.Clear();
    used_ = 0;
    count_ = 0;
  }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  uint64_t free_bytes() const { return capacity_ - used_; }
  size_t num_objects() const { return count_; }

  /// Visits resident entries in ascending (NCL, id) order until
  /// `fn(const OrderedSlotHeap::Entry&)` returns false.
  template <typename Fn>
  void VisitAscending(Fn&& fn) const {
    order_.VisitAscending(fn);
  }

  /// Ids of all resident objects in ascending NCL order (test/debug
  /// helper).
  std::vector<ObjectId> IdsByNcl() const;

  /// Heap order and positions, the NCL keys against size/loss, and the
  /// byte and object counts against the entries (tests, debug sweeps).
  bool CheckInvariants() const;

 private:
  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  /// Size and cost loss f·m side by side: a greedy walk reads both for
  /// each entry it visits, so they share one cache line.
  struct SlotEntry {
    uint64_t size;
    double loss;
  };
  std::vector<SlotEntry> entries_;
  /// (NCL, id) min-heap; NCL = loss / size.
  OrderedSlotHeap order_;
};

/// Id-keyed NCL store: an NclSlotStore behind its own id→slot index and
/// slot free list, for callers that hold no directory of their own (the
/// layer benchmarks and the store's unit tests). A cost-mode CacheNode
/// drives the slot-keyed core directly.
class NclCache {
 public:
  using EvictionPlan = NclSlotStore::EvictionPlan;

  explicit NclCache(uint64_t capacity_bytes) : store_(capacity_bytes) {}

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch).
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Cost loss (f·m) currently recorded for a cached object.
  double LossOf(ObjectId id) const;

  /// Plans the greedy smallest-NCL-first eviction that frees at least
  /// `need_bytes` beyond current free space; does not modify the cache.
  /// If the cache already has `need_bytes` free, the plan is empty and
  /// feasible.
  EvictionPlan PlanEviction(uint64_t need_bytes) const;

  /// Allocation-free variant: fills a caller-owned plan, reusing its
  /// victims buffer.
  void PlanEvictionInto(uint64_t need_bytes, EvictionPlan* plan) const {
    store_.PlanEvictionInto(need_bytes, plan);
  }

  /// Inserts an object, applying the greedy eviction as needed. Returns
  /// the evicted ids (a reused internal scratch, valid until the next
  /// Insert); `inserted` reports whether the object was stored (false if
  /// it exceeds total capacity or is already present, in which case only
  /// its loss is updated).
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double loss,
                                      bool* inserted = nullptr);

  /// Updates the cost loss (and hence NCL priority) of a cached object.
  /// No-op if absent; returns presence.
  bool UpdateLoss(ObjectId id, double loss);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects the id-index storage mode (SlotIndex::SetSparse); the cache
  /// must be empty.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  uint64_t capacity_bytes() const { return store_.capacity_bytes(); }
  uint64_t used_bytes() const { return store_.used_bytes(); }
  uint64_t free_bytes() const { return store_.free_bytes(); }
  size_t num_objects() const { return store_.num_objects(); }

  /// High-water slot count (test/debug helper).
  size_t slot_span() const { return span_; }

  /// Ids of all cached objects in ascending NCL order (test/debug helper).
  std::vector<ObjectId> IdsByNcl() const { return store_.IdsByNcl(); }

 private:
  SlotId AllocSlot();

  NclSlotStore store_;
  SlotIndex index_;
  std::vector<SlotId> free_;
  size_t span_ = 0;
  /// Reused by Insert() so steady-state insertions do not allocate a
  /// fresh victims vector per call.
  std::vector<ObjectId> evicted_scratch_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_NCL_CACHE_H_
