#include "cache/dcache.h"

namespace cascache::cache {

ObjectDescriptor* DCache::Find(ObjectId id) {
  const SlotId slot = index_.Get(id);
  return slot == kNoSlot ? nullptr : &pool_.at(slot);
}

const ObjectDescriptor* DCache::Find(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  return slot == kNoSlot ? nullptr : &pool_.at(slot);
}

ObjectDescriptor* DCache::Insert(ObjectId id, const ObjectDescriptor& desc) {
  if (heap_.capacity() == 0) return nullptr;
  if (const SlotId slot = index_.Get(id); slot != kNoSlot) {
    ObjectDescriptor& stored = pool_.at(slot);
    stored = desc;
    heap_.Refresh(slot, stored);
    return &stored;
  }
  const double priority = heap_.PriorityOf(desc);
  if (!heap_.Admit(priority, [&](SlotId victim) { Release(victim); })) {
    return nullptr;
  }
  const SlotId slot = pool_.Alloc();
  if (slot >= slot_ids_.size()) slot_ids_.resize(pool_.slot_span());
  slot_ids_[slot] = id;
  ObjectDescriptor& stored = pool_.at(slot);
  stored = desc;
  index_.Set(id, slot);
  heap_.Push(slot, priority);
  return &stored;
}

void DCache::Refresh(ObjectId id, const ObjectDescriptor& desc) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return;
  heap_.Refresh(slot, desc);
}

ObjectDescriptor* DCache::RecordAccess(ObjectId id,
                                       const FrequencyEstimator& estimator,
                                       double now) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return nullptr;
  ObjectDescriptor* desc = &pool_.at(slot);
  estimator.OnAccess(desc, now);
  heap_.Refresh(slot, *desc);
  return desc;
}

bool DCache::Take(ObjectId id, ObjectDescriptor* out) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  *out = pool_.at(slot);
  heap_.Erase(slot);
  Release(slot);
  return true;
}

bool DCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  heap_.Erase(slot);
  Release(slot);
  return true;
}

void DCache::Release(SlotId slot) {
  CASCACHE_CHECK(index_.Get(slot_ids_[slot]) == slot);
  index_.Erase(slot_ids_[slot]);
  pool_.Free(slot);
}

void DCache::Clear() {
  pool_.Clear();
  index_.Clear();
  heap_.Clear();
}

}  // namespace cascache::cache
