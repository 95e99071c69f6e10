#ifndef CASCACHE_CACHE_GDS_CACHE_H_
#define CASCACHE_CACHE_GDS_CACHE_H_

#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "cache/ordered_heap.h"
#include "trace/object_catalog.h"

namespace cascache::cache {

using trace::ObjectId;

/// GreedyDual-Size store (Cao & Irani; popularity-aware variants by Jin &
/// Bestavros, cited by the paper as [8]). Each cached object carries a
/// credit H = L + cost/size, where L is the cache's inflation value; the
/// eviction victim is the minimum-H object and L is advanced to its H.
/// On a hit the object's H is refreshed with the current L. GDS is a
/// classic single-cache cost-aware replacement baseline: like LNC-R it
/// optimizes replacement only, so it serves as an extra comparator for
/// the coordinated scheme.
///
/// Entry storage is flat: sizes live in struct-of-arrays slots behind a
/// direct-index id→slot table, and credits in a flat (H, id) min-heap
/// (OrderedSlotHeap, as in NclCache): the victim is the minimum (H, id)
/// pair, a credit refresh is an in-place sift and an eviction a pop.
class GdsCache {
 public:
  explicit GdsCache(uint64_t capacity_bytes);

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Inserts with the given retrieval cost, evicting minimum-H objects as
  /// needed (advancing the inflation value L). `inserted` reports whether
  /// a write happened; objects above total capacity are rejected. If the
  /// object is present this refreshes H like a hit. The returned evicted
  /// ids are a reused internal scratch, valid until the next Insert.
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double cost,
                                      bool* inserted = nullptr);

  /// Refreshes an object's credit on a hit: H = L + cost/size. No-op if
  /// absent; returns presence.
  bool OnHit(ObjectId id, double cost);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects the id-index storage mode (SlotIndex::SetSparse); the cache
  /// must be empty.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }

  /// Current inflation value L (monotonically non-decreasing).
  double inflation() const { return inflation_; }

  /// Credit H of a cached object; the object must be present.
  double CreditOf(ObjectId id) const;

 private:
  SlotId AllocSlot();

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  double inflation_ = 0.0;  ///< L.

  // Struct-of-arrays entry slots + direct id→slot index.
  std::vector<uint64_t> sizes_;
  std::vector<SlotId> free_;
  SlotIndex index_;
  std::vector<ObjectId> evicted_scratch_;

  OrderedSlotHeap order_;  ///< (H, id) min-heap; the key is the credit.
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_GDS_CACHE_H_
