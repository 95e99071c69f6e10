#ifndef CASCACHE_TESTS_TESTING_REF_COST_NODE_H_
#define CASCACHE_TESTS_TESTING_REF_COST_NODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/dcache.h"
#include "cache/descriptor.h"
#include "cache/frequency.h"
#include "testing/ref_caches.h"
#include "util/check.h"

namespace cascache::testing {

/// Reference cost-mode node: the historical CacheNode cost-mode
/// composition, verbatim, kept in the tests only — an NCL store
/// (RefNclCache), a table of the cached objects' descriptors
/// (`std::unordered_map`), and a d-cache (RefDCache), each with its own
/// id index. Caching an object takes its descriptor out of the d-cache;
/// evicting it copies the descriptor back in through the d-cache's
/// admission rule. The production node keeps one directory over one
/// descriptor pool instead; the differential test drives both through
/// identical operation sequences and compares every observable.
class RefCostNode {
 public:
  RefCostNode(uint64_t capacity_bytes, size_t dcache_entries,
              cache::DCachePolicy dcache_policy,
              const cache::FrequencyEstimatorParams& frequency)
      : capacity_(capacity_bytes),
        estimator_(frequency),
        ncl_(capacity_bytes) {
    if (dcache_entries > 0) {
      dcache_ = std::make_unique<RefDCache>(dcache_entries, dcache_policy);
    }
  }

  bool Contains(ObjectId id) const { return ncl_.Contains(id); }
  bool DescriptorInMain(ObjectId id) const { return main_.count(id) > 0; }
  bool DescriptorInDCache(ObjectId id) const {
    return dcache_ != nullptr && dcache_->Contains(id);
  }
  double LossOf(ObjectId id) const { return ncl_.LossOf(id); }
  uint64_t used_bytes() const { return ncl_.used_bytes(); }
  size_t num_cached_objects() const { return ncl_.num_objects(); }
  size_t dcache_size() const {
    return dcache_ != nullptr ? dcache_->size() : 0;
  }

  bool EraseObject(ObjectId id) {
    if (!ncl_.Erase(id)) return false;
    // Demote the descriptor so the access history survives the drop.
    if (auto it = main_.find(id); it != main_.end()) {
      if (dcache_ != nullptr) dcache_->Insert(id, it->second);
      main_.erase(it);
    }
    return true;
  }

  cache::ObjectDescriptor* FindDescriptor(ObjectId id) {
    if (auto it = main_.find(id); it != main_.end()) return &it->second;
    if (dcache_ != nullptr) return dcache_->Find(id);
    return nullptr;
  }

  cache::ObjectDescriptor* RecordAccess(ObjectId id, double now) {
    if (auto it = main_.find(id); it != main_.end()) {
      estimator_.OnAccess(&it->second, now);
      RefreshLossOf(id, &it->second, now);
      return &it->second;
    }
    if (dcache_ == nullptr) return nullptr;
    cache::ObjectDescriptor* desc = dcache_->Find(id);
    if (desc == nullptr) return nullptr;
    estimator_.OnAccess(desc, now);
    dcache_->Refresh(id, *desc);
    return desc;
  }

  cache::ObjectDescriptor* AdmitDescriptor(ObjectId id, uint64_t size,
                                           double now) {
    CASCACHE_CHECK(!DescriptorInMain(id));
    if (dcache_ == nullptr) return nullptr;
    if (cache::ObjectDescriptor* existing = dcache_->Find(id);
        existing != nullptr) {
      return existing;
    }
    cache::ObjectDescriptor desc;
    desc.size = size;
    estimator_.OnAccess(&desc, now);
    return dcache_->Insert(id, desc);
  }

  void UpdateMissPenalty(ObjectId id, double miss_penalty, double now) {
    if (auto it = main_.find(id); it != main_.end()) {
      it->second.miss_penalty = miss_penalty;
      RefreshLossOf(id, &it->second, now);
    } else if (dcache_ != nullptr) {
      if (cache::ObjectDescriptor* desc = dcache_->Find(id);
          desc != nullptr) {
        desc->miss_penalty = miss_penalty;
      }
    }
  }

  RefNclCache::EvictionPlan PlanEvictionFor(uint64_t size) const {
    return ncl_.PlanEviction(size);
  }

  bool InsertCost(ObjectId id, uint64_t size, double miss_penalty,
                  double now, std::vector<ObjectId>* evicted_out) {
    evicted_out->clear();
    if (ncl_.Contains(id)) {
      UpdateMissPenalty(id, miss_penalty, now);
      return false;
    }
    if (size > capacity_) return false;

    // Promote (or create) the descriptor, preserving access history.
    cache::ObjectDescriptor desc;
    if (dcache_ != nullptr) {
      if (const cache::ObjectDescriptor* found = dcache_->Find(id);
          found != nullptr) {
        desc = *found;
        dcache_->Erase(id);
      }
    }
    if (desc.num_accesses == 0) estimator_.OnAccess(&desc, now);
    desc.size = size;
    desc.miss_penalty = miss_penalty;
    const double loss = estimator_.Estimate(&desc, now) * miss_penalty;

    bool inserted = false;
    const std::vector<ObjectId> evicted =
        ncl_.Insert(id, size, loss, &inserted);
    CASCACHE_CHECK(inserted);
    // Demote evicted objects' descriptors to the d-cache.
    for (ObjectId victim : evicted) {
      auto it = main_.find(victim);
      CASCACHE_CHECK(it != main_.end());
      if (dcache_ != nullptr) dcache_->Insert(victim, it->second);
      main_.erase(it);
    }
    main_[id] = desc;
    *evicted_out = evicted;
    return true;
  }

  void RefreshLoss(ObjectId id, double now) {
    auto it = main_.find(id);
    CASCACHE_CHECK(it != main_.end());
    RefreshLossOf(id, &it->second, now);
  }

  void Reset() {
    ncl_.Clear();
    main_.clear();
    if (dcache_ != nullptr) dcache_->Clear();
  }

 private:
  void RefreshLossOf(ObjectId id, cache::ObjectDescriptor* desc,
                     double now) {
    ncl_.UpdateLoss(id, estimator_.Estimate(desc, now) * desc->miss_penalty);
  }

  uint64_t capacity_;
  cache::FrequencyEstimator estimator_;
  RefNclCache ncl_;
  std::unique_ptr<RefDCache> dcache_;
  std::unordered_map<ObjectId, cache::ObjectDescriptor> main_;
};

}  // namespace cascache::testing

#endif  // CASCACHE_TESTS_TESTING_REF_COST_NODE_H_
