#include "cache/gds_cache.h"

#include "util/check.h"

namespace cascache::cache {

GdsCache::GdsCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

SlotId GdsCache::AllocSlot() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const SlotId slot = static_cast<SlotId>(sizes_.size());
  sizes_.push_back(0);
  return slot;
}

double GdsCache::CreditOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return order_.KeyOf(slot);
}

const std::vector<ObjectId>& GdsCache::Insert(ObjectId id, uint64_t size,
                                              double cost, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  CASCACHE_CHECK(cost >= 0.0);
  if (const SlotId slot = index_.Get(id); slot != kNoSlot) {
    order_.Update(slot, inflation_ + cost / static_cast<double>(sizes_[slot]));
    return evicted_scratch_;
  }
  if (size > capacity_) return evicted_scratch_;

  while (used_ + size > capacity_) {
    CASCACHE_CHECK(!order_.empty());
    const OrderedSlotHeap::Entry victim = order_.Top();
    // Advance the inflation value to the evicted credit (the GDS rule).
    inflation_ = victim.key;
    order_.Pop();
    CASCACHE_DCHECK(index_.Get(victim.id) == victim.slot);
    used_ -= sizes_[victim.slot];
    index_.Erase(victim.id);
    free_.push_back(victim.slot);
    --count_;
    evicted_scratch_.push_back(victim.id);
  }

  const SlotId slot = AllocSlot();
  sizes_[slot] = size;
  order_.Push(inflation_ + cost / static_cast<double>(size), id, slot);
  index_.Set(id, slot);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool GdsCache::OnHit(ObjectId id, double cost) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  order_.Update(slot, inflation_ + cost / static_cast<double>(sizes_[slot]));
  return true;
}

bool GdsCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  order_.Erase(slot);
  used_ -= sizes_[slot];
  index_.Erase(id);
  free_.push_back(slot);
  --count_;
  return true;
}

void GdsCache::Clear() {
  // Return every slot to the free list instead of shrinking the arrays
  // (see FlatLru::Clear): a cleared store re-fills its old slots without
  // regrowing.
  free_.clear();
  free_.reserve(sizes_.size());
  for (SlotId slot = static_cast<SlotId>(sizes_.size()); slot-- > 0;) {
    free_.push_back(slot);
  }
  index_.Clear();
  order_.Clear();
  used_ = 0;
  count_ = 0;
  inflation_ = 0.0;
}

}  // namespace cascache::cache
