#include "cache/ncl_cache.h"

#include "util/check.h"

namespace cascache::cache {

void NclSlotStore::PlanEvictionInto(uint64_t need_bytes,
                                    EvictionPlan* plan) const {
  plan->Clear();
  const uint64_t free = capacity_ - used_;
  if (free >= need_bytes) {
    plan->feasible = true;
    return;
  }
  const uint64_t to_free = need_bytes - free;
  // Greedy in ascending (NCL, id) order until enough is freed; if the
  // walk runs out first, even evicting everything is not enough and the
  // plan stays infeasible.
  order_.VisitAscending([&](const OrderedSlotHeap::Entry& entry) {
    plan->victims.push_back(entry.id);
    const SlotEntry& slot = entries_[entry.slot];
    plan->cost_loss += slot.loss;
    plan->freed_bytes += slot.size;
    plan->feasible = plan->freed_bytes >= to_free;
    return !plan->feasible;
  });
}

std::vector<ObjectId> NclSlotStore::IdsByNcl() const {
  std::vector<ObjectId> ids;
  ids.reserve(order_.size());
  order_.VisitAscending([&](const OrderedSlotHeap::Entry& entry) {
    ids.push_back(entry.id);
    return true;
  });
  return ids;
}

bool NclSlotStore::CheckInvariants() const {
  if (!order_.CheckInvariants() || order_.size() != count_) return false;
  uint64_t bytes = 0;
  bool ok = true;
  order_.VisitAscending([&](const OrderedSlotHeap::Entry& entry) {
    const uint64_t size = entries_[entry.slot].size;
    if (size == 0 ||
        entry.key != entries_[entry.slot].loss / static_cast<double>(size)) {
      ok = false;
    }
    bytes += size;
    return ok;
  });
  return ok && bytes == used_ && used_ <= capacity_;
}

SlotId NclCache::AllocSlot() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  return static_cast<SlotId>(span_++);
}

double NclCache::LossOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return store_.LossOf(slot);
}

NclCache::EvictionPlan NclCache::PlanEviction(uint64_t need_bytes) const {
  EvictionPlan plan;
  PlanEvictionInto(need_bytes, &plan);
  return plan;
}

const std::vector<ObjectId>& NclCache::Insert(ObjectId id, uint64_t size,
                                              double loss, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  if (UpdateLoss(id, loss) || size > store_.capacity_bytes()) {
    return evicted_scratch_;
  }
  const SlotId slot = AllocSlot();
  store_.Insert(id, slot, size, loss, [&](ObjectId victim, SlotId freed) {
    index_.Erase(victim);
    free_.push_back(freed);
    evicted_scratch_.push_back(victim);
  });
  index_.Set(id, slot);
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool NclCache::UpdateLoss(ObjectId id, double loss) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  store_.UpdateLoss(slot, loss);
  return true;
}

bool NclCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  store_.Erase(slot);
  index_.Erase(id);
  free_.push_back(slot);
  return true;
}

void NclCache::Clear() {
  // Return every slot to the free list instead of shrinking the arrays
  // (see FlatLru::Clear): a cleared store re-fills its old slots without
  // regrowing.
  free_.clear();
  free_.reserve(span_);
  for (SlotId slot = static_cast<SlotId>(span_); slot-- > 0;) {
    free_.push_back(slot);
  }
  index_.Clear();
  store_.Clear();
}

}  // namespace cascache::cache
