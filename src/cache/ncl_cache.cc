#include "cache/ncl_cache.h"

#include "util/check.h"

namespace cascache::cache {

NclCache::NclCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

SlotId NclCache::AllocSlot() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const SlotId slot = static_cast<SlotId>(sizes_.size());
  sizes_.push_back(0);
  losses_.push_back(0.0);
  return slot;
}

double NclCache::LossOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return losses_[slot];
}

NclCache::EvictionPlan NclCache::PlanEviction(uint64_t need_bytes) const {
  EvictionPlan plan;
  PlanEvictionInto(need_bytes, &plan);
  return plan;
}

void NclCache::PlanEvictionInto(uint64_t need_bytes,
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
    plan->cost_loss += losses_[entry.slot];
    plan->freed_bytes += sizes_[entry.slot];
    plan->feasible = plan->freed_bytes >= to_free;
    return !plan->feasible;
  });
}

const std::vector<ObjectId>& NclCache::Insert(ObjectId id, uint64_t size,
                                              double loss, bool* inserted) {
  if (!Contains(id)) return InsertAbsent(id, size, loss, inserted);
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  UpdateLoss(id, loss);
  return evicted_scratch_;
}

const std::vector<ObjectId>& NclCache::InsertAbsent(ObjectId id, uint64_t size,
                                                    double loss,
                                                    bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  CASCACHE_DCHECK(!Contains(id));
  if (size > capacity_) return evicted_scratch_;

  PlanEvictionInto(size, &insert_plan_);
  CASCACHE_CHECK(insert_plan_.feasible);
  // The plan lists victims in ascending order, so each is the heap's
  // minimum when its turn comes. The last victim's entry is not popped:
  // the new object's entry replaces it with one sift-down instead of a
  // pop (sift from the root to a leaf) plus a push (sift from a leaf
  // back up). The (NCL, id) order is total, so the layout this leaves
  // cannot change any later victim.
  const size_t num_victims = insert_plan_.victims.size();
  for (size_t v = 0; v < num_victims; ++v) {
    const OrderedSlotHeap::Entry victim = order_.Top();
    CASCACHE_CHECK(victim.id == insert_plan_.victims[v]);
    if (v + 1 < num_victims) order_.Pop();
    Release(victim.id, victim.slot);
    evicted_scratch_.push_back(victim.id);
  }
  const SlotId slot = AllocSlot();
  sizes_[slot] = size;
  losses_[slot] = loss;
  const double ncl = loss / static_cast<double>(size);
  if (num_victims > 0) {
    order_.ReplaceTop(ncl, id, slot);
  } else {
    order_.Push(ncl, id, slot);
  }
  index_.Set(id, slot);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool NclCache::UpdateLoss(ObjectId id, double loss) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  losses_[slot] = loss;
  order_.Update(slot, loss / static_cast<double>(sizes_[slot]));
  return true;
}

bool NclCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  order_.Erase(slot);
  Release(id, slot);
  return true;
}

void NclCache::Release(ObjectId id, SlotId slot) {
  used_ -= sizes_[slot];
  index_.Erase(id);
  free_.push_back(slot);
  --count_;
}

void NclCache::Clear() {
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
}

std::vector<ObjectId> NclCache::IdsByNcl() const {
  std::vector<ObjectId> ids;
  ids.reserve(order_.size());
  order_.VisitAscending([&](const OrderedSlotHeap::Entry& entry) {
    ids.push_back(entry.id);
    return true;
  });
  return ids;
}

}  // namespace cascache::cache
