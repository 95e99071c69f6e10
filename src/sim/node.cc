#include "sim/node.h"

#include "util/check.h"

namespace cascache::sim {

namespace {

/// Reset() clears a store in place only when the replacement machinery it
/// configures is unchanged; capacity or d-cache shape changes rebuild.
bool SameStoreShape(const CacheNodeConfig& a, const CacheNodeConfig& b) {
  return a.mode == b.mode && a.capacity_bytes == b.capacity_bytes &&
         a.dcache_entries == b.dcache_entries &&
         a.dcache_policy == b.dcache_policy && a.sparse_ids == b.sparse_ids &&
         a.EffectiveRamCapacity() == b.EffectiveRamCapacity();
}

}  // namespace

CacheNode::CacheNode(topology::NodeId id, const CacheNodeConfig& config)
    : id_(id), estimator_(config.frequency) {
  Reset(config);
}

void CacheNode::Reset(const CacheNodeConfig& config) {
  const bool reuse = SameStoreShape(config_, config);
  config_ = config;
  estimator_ = cache::FrequencyEstimator(config.frequency);
  dir_.Clear();
  descriptors_.Clear();
  copy_stamps_.Clear();
  dir_.SetSparse(config_.sparse_ids);
  copy_stamps_.SetSparse(config_.sparse_ids);
  if (reuse) {
    // Same store shape (the common case: crash cold-restarts re-apply the
    // active config): recycle the pooled slots and index tables in place
    // so the restarted cache re-fills warm memory.
    if (lru_ != nullptr) lru_->Clear();
    if (ram_ != nullptr) ram_->Clear();
    if (ncl_ != nullptr) ncl_->Clear();
    if (gds_ != nullptr) gds_->Clear();
    if (lfu_ != nullptr) lfu_->Clear();
    if (dcache_ != nullptr) dcache_->Clear();
    if (lru_ != nullptr || ncl_ != nullptr || gds_ != nullptr ||
        lfu_ != nullptr) {
      return;
    }
    // First Reset since construction: fall through and build the store.
  }
  lru_.reset();
  ram_.reset();
  ncl_.reset();
  gds_.reset();
  lfu_.reset();
  dcache_.reset();
  if (const uint64_t ram_capacity = config_.EffectiveRamCapacity();
      ram_capacity > 0) {
    ram_ = std::make_unique<cache::FlatLru>(ram_capacity);
    ram_->SetSparse(config_.sparse_ids);
  }
  switch (config_.mode) {
    case CacheMode::kLru:
      lru_ = std::make_unique<cache::FlatLru>(config_.capacity_bytes);
      lru_->SetSparse(config_.sparse_ids);
      break;
    case CacheMode::kGds:
      gds_ = std::make_unique<cache::GdsCache>(config_.capacity_bytes);
      gds_->SetSparse(config_.sparse_ids);
      break;
    case CacheMode::kLfu:
      lfu_ = std::make_unique<cache::LfuCache>(config_.capacity_bytes);
      lfu_->SetSparse(config_.sparse_ids);
      break;
    case CacheMode::kCost:
      ncl_ = std::make_unique<cache::NclSlotStore>(config_.capacity_bytes);
      if (config_.dcache_entries > 0) {
        dcache_ = std::make_unique<cache::DCacheSlotHeap>(
            config_.dcache_entries, config_.dcache_policy);
      }
      break;
  }
}

uint64_t CacheNode::used_bytes() const {
  if (lru_ != nullptr) return lru_->used_bytes();
  if (gds_ != nullptr) return gds_->used_bytes();
  if (lfu_ != nullptr) return lfu_->used_bytes();
  return ncl_->used_bytes();
}

size_t CacheNode::num_cached_objects() const {
  if (lru_ != nullptr) return lru_->num_objects();
  if (gds_ != nullptr) return gds_->num_objects();
  if (lfu_ != nullptr) return lfu_->num_objects();
  return ncl_->num_objects();
}

bool CacheNode::EraseObject(ObjectId id) {
  copy_stamps_.Erase(id);
  // Inclusion: the RAM copy may not outlive the disk copy.
  if (ram_ != nullptr) ram_->Erase(id);
  if (lru_ != nullptr) return lru_->Erase(id);
  if (gds_ != nullptr) return gds_->Erase(id);
  if (lfu_ != nullptr) return lfu_->Erase(id);
  const cache::SlotId slot = dir_.Get(id);
  if (slot >= kInDCache) return false;  // Unknown, or d-cache only.
  // Demote the descriptor so the access history survives the drop.
  ncl_->Erase(slot);
  Demote(id, slot);
  return true;
}

void CacheNode::StampCopy(ObjectId id, double fetch_time, uint32_t version) {
  copy_stamps_.InsertOrAssign(id) = CopyStamp{fetch_time, version};
}

const CacheNode::CopyStamp* CacheNode::FindCopy(ObjectId id) const {
  return copy_stamps_.Find(id);
}

CacheNode::TierServe CacheNode::ServeTiered(ObjectId id, uint64_t size) {
  CASCACHE_CHECK(ram_ != nullptr);
  TierServe result;
  if (ram_->Touch(id)) {
    result.ram_hit = true;
    return result;
  }
  // Disk serve: promote into the RAM tier. RAM victims keep their disk
  // copies (demotion loses only the fast path); an object larger than the
  // tier is rejected by InsertAbsent and stays disk-only.
  bool inserted = false;
  const std::vector<ObjectId>& evicted = ram_->InsertAbsent(id, size,
                                                            &inserted);
  result.promoted = inserted;
  result.demotions = static_cast<int>(evicted.size());
  return result;
}

int CacheNode::DropRamCopies(const std::vector<ObjectId>& victims) {
  CASCACHE_CHECK(ram_ != nullptr);
  int dropped = 0;
  for (ObjectId victim : victims) {
    if (ram_->Erase(victim)) ++dropped;
  }
  return dropped;
}

bool CacheNode::CheckInvariants() const {
  if (used_bytes() > config_.capacity_bytes) return false;
  if (ram_ != nullptr) {
    if (!ram_->CheckInvariants()) return false;
    if (ram_->capacity_bytes() != config_.EffectiveRamCapacity()) return false;
    // Inclusion: every RAM-resident object has a disk copy of equal size.
    bool included = true;
    ram_->ForEach([&](ObjectId id, uint64_t size) {
      if (!Contains(id)) included = false;
      (void)size;
    });
    if (!included) return false;
  }
  if (ncl_ == nullptr) {
    return descriptors_.slot_span() == 0 && dcache_ == nullptr;
  }
  return CheckCostInvariants();
}

bool CacheNode::CheckCostInvariants() const {
  if (!ncl_->CheckInvariants()) return false;
  if (dcache_ != nullptr && !dcache_->CheckInvariants()) return false;
  const size_t span = descriptors_.slot_span();
  if (slot_ids_.size() < span) return false;
  // Directory → heaps: each entry names a slot owned by the heap its bit
  // selects, registered under the same id.
  bool ok = true;
  size_t cached = 0;
  size_t tracked = 0;
  dir_.ForEach([&](ObjectId id, cache::SlotId entry) {
    const cache::SlotId slot = entry & ~kInDCache;
    if (slot >= span || slot_ids_[slot] != id) {
      ok = false;
      return;
    }
    if ((entry & kInDCache) == 0) {
      ++cached;
      if (!ncl_->Contains(slot) ||
          (dcache_ != nullptr && dcache_->Contains(slot)) ||
          ncl_->SizeOf(slot) != descriptors_.at(slot).size) {
        ok = false;
      }
    } else {
      ++tracked;
      if (dcache_ == nullptr || !dcache_->Contains(slot) ||
          ncl_->Contains(slot)) {
        ok = false;
      }
    }
  });
  if (!ok) return false;
  // Heaps → directory: with the counts equal, the map is a bijection.
  if (cached != ncl_->num_objects() || tracked != dcache_size()) return false;
  ncl_->VisitAscending([&](const cache::OrderedSlotHeap::Entry& entry) {
    ok = dir_.Get(entry.id) == entry.slot;
    return ok;
  });
  if (!ok) return false;
  if (dcache_ != nullptr) {
    for (const auto& [slot, priority] : dcache_->entries()) {
      if (dir_.Get(slot_ids_[slot]) != (slot | kInDCache) ||
          priority != dcache_->PriorityOf(descriptors_.at(slot))) {
        return false;
      }
    }
  }
  // Every pool slot is live in exactly one heap or on the free list.
  return span - descriptors_.free_count() == cached + tracked;
}

double CacheNode::LossOf(ObjectId id) const {
  const cache::SlotId slot = dir_.Get(id);
  CASCACHE_CHECK_MSG(ncl_ != nullptr && slot < kInDCache, "object not cached");
  return ncl_->LossOf(slot);
}

cache::SlotId CacheNode::AllocSlot(ObjectId id) {
  const cache::SlotId slot = descriptors_.Alloc();
  CASCACHE_CHECK(slot < kInDCache);
  if (slot >= slot_ids_.size()) slot_ids_.resize(descriptors_.slot_span());
  slot_ids_[slot] = id;
  return slot;
}

void CacheNode::DropSlot(cache::SlotId slot) {
  dir_.Erase(slot_ids_[slot]);
  descriptors_.Free(slot);
}

void CacheNode::Demote(ObjectId id, cache::SlotId slot) {
  if (dcache_ != nullptr) {
    const double priority = dcache_->PriorityOf(descriptors_.at(slot));
    if (dcache_->Admit(priority,
                       [this](cache::SlotId victim) { DropSlot(victim); })) {
      dcache_->Push(slot, priority);
      dir_.Set(id, slot | kInDCache);
      return;
    }
  }
  dir_.Erase(id);
  descriptors_.Free(slot);
}

ObjectDescriptor* CacheNode::RecordAccess(ObjectId id, double now) {
  const cache::SlotId entry = dir_.Get(id);
  if (entry == cache::kNoSlot) return nullptr;
  const cache::SlotId slot = entry & ~kInDCache;
  ObjectDescriptor* desc = &descriptors_.at(slot);
  estimator_.OnAccess(desc, now);
  if (entry == slot) {
    RefreshLossAt(slot, desc, now);
  } else {
    dcache_->Refresh(slot, *desc);
  }
  return desc;
}

ObjectDescriptor* CacheNode::AdmitDescriptor(ObjectId id, uint64_t size,
                                             double now) {
  const cache::SlotId entry = dir_.Get(id);
  CASCACHE_CHECK(entry >= kInDCache);  // Not cached here.
  if (entry != cache::kNoSlot) return &descriptors_.at(entry & ~kInDCache);
  if (dcache_ == nullptr) return nullptr;
  ObjectDescriptor desc;
  desc.size = size;
  estimator_.OnAccess(&desc, now);  // Record the access that brought it in.
  const double priority = dcache_->PriorityOf(desc);
  if (!dcache_->Admit(priority,
                      [this](cache::SlotId victim) { DropSlot(victim); })) {
    return nullptr;
  }
  const cache::SlotId slot = AllocSlot(id);
  ObjectDescriptor* stored = &descriptors_.at(slot);
  *stored = desc;
  dcache_->Push(slot, priority);
  dir_.Set(id, slot | kInDCache);
  return stored;
}

void CacheNode::UpdateMissPenalty(ObjectId id, double miss_penalty,
                                  double now) {
  const cache::SlotId entry = dir_.Get(id);
  if (entry == cache::kNoSlot) return;
  const cache::SlotId slot = entry & ~kInDCache;
  ObjectDescriptor* desc = &descriptors_.at(slot);
  desc->miss_penalty = miss_penalty;
  // A d-cache priority does not depend on the miss penalty.
  if (entry == slot) RefreshLossAt(slot, desc, now);
}

cache::NclSlotStore::EvictionPlan CacheNode::PlanEvictionFor(
    uint64_t size) const {
  cache::NclSlotStore::EvictionPlan plan;
  PlanEvictionInto(size, &plan);
  return plan;
}

bool CacheNode::InsertCost(ObjectId id, uint64_t size, double miss_penalty,
                           double now, std::vector<ObjectId>* evicted_out) {
  CASCACHE_CHECK(ncl_ != nullptr);
  if (evicted_out != nullptr) evicted_out->clear();
  cache::SlotId slot = dir_.Get(id);
  if (slot < kInDCache) {  // Already cached: refresh the penalty only.
    ObjectDescriptor* desc = &descriptors_.at(slot);
    desc->miss_penalty = miss_penalty;
    RefreshLossAt(slot, desc, now);
    return false;
  }
  if (size > config_.capacity_bytes) return false;

  // Promote the descriptor out of the d-cache, preserving its access
  // history, or create one.
  ObjectDescriptor* desc;
  if (slot != cache::kNoSlot) {
    slot &= ~kInDCache;
    dcache_->Erase(slot);
    desc = &descriptors_.at(slot);
  } else {
    slot = AllocSlot(id);
    desc = &descriptors_.at(slot);
    *desc = ObjectDescriptor();
  }
  if (desc->num_accesses == 0) estimator_.OnAccess(desc, now);
  desc->size = size;
  desc->miss_penalty = miss_penalty;
  const double loss = estimator_.Estimate(desc, now) * miss_penalty;

  // Evicted objects' descriptors move to the d-cache (their history is
  // worth keeping; its admission rule may still reject cold ones).
  ncl_->Insert(id, slot, size, loss,
               [&](ObjectId victim, cache::SlotId victim_slot) {
                 Demote(victim, victim_slot);
                 if (evicted_out != nullptr) evicted_out->push_back(victim);
               });
  dir_.Set(id, slot);
  return true;
}

void CacheNode::RefreshLoss(ObjectId id, double now) {
  CASCACHE_CHECK(ncl_ != nullptr);
  const cache::SlotId slot = dir_.Get(id);
  CASCACHE_CHECK_MSG(slot < kInDCache,
                     "RefreshLoss on object without main descriptor");
  RefreshLossAt(slot, &descriptors_.at(slot), now);
}

void CacheNode::RefreshLossAt(cache::SlotId slot, ObjectDescriptor* desc,
                              double now) {
  const double frequency = estimator_.Estimate(desc, now);
  ncl_->UpdateLoss(slot, frequency * desc->miss_penalty);
}

}  // namespace cascache::sim
