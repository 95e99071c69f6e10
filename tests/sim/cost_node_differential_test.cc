// Differential test for the cost-mode CacheNode: one directory over one
// descriptor pool, with the NCL store and the d-cache keyed by its slots,
// against the historical composition of three id-indexed tables
// (tests/testing/ref_cost_node.h). Long random sequences of every
// cost-mode operation run in lock-step on both; after each one the
// victims, membership, descriptors (field by field), NCL losses, greedy
// eviction plans and byte/object counts must agree, and the node's
// structural invariants must hold. Each run covers one d-cache policy (or
// no d-cache) in one directory mode (dense, or hashed over ids spread far
// apart in the id space).

#include <gtest/gtest.h>

#include <vector>

#include "sim/node.h"
#include "testing/ref_cost_node.h"
#include "util/random.h"

namespace cascache::sim {
namespace {

using cascache::testing::RefCostNode;
using util::Rng;

constexpr uint64_t kUniverse = 48;

/// The id for draw `raw`: itself in dense mode, spread over a wide range
/// in hashed mode (order-preserving, so id tie-breaks are unchanged).
ObjectId TestId(uint64_t raw, bool hashed) {
  return static_cast<ObjectId>(hashed ? raw * 40503 + 7 : raw);
}

void ExpectSameDescriptor(const ObjectDescriptor* got,
                          const ObjectDescriptor* want, int step,
                          ObjectId id) {
  ASSERT_EQ(got == nullptr, want == nullptr)
      << "step " << step << " id " << id;
  if (got == nullptr) return;
  ASSERT_EQ(got->size, want->size) << "step " << step << " id " << id;
  ASSERT_EQ(got->miss_penalty, want->miss_penalty)
      << "step " << step << " id " << id;
  ASSERT_EQ(got->frequency, want->frequency)
      << "step " << step << " id " << id;
  ASSERT_EQ(got->frequency_time, want->frequency_time)
      << "step " << step << " id " << id;
  ASSERT_EQ(got->num_accesses, want->num_accesses)
      << "step " << step << " id " << id;
  ASSERT_EQ(got->head, want->head) << "step " << step << " id " << id;
  ASSERT_EQ(got->access_times, want->access_times)
      << "step " << step << " id " << id;
}

struct Shape {
  size_t dcache_entries;
  cache::DCachePolicy policy;
  bool hashed;
};

void RunCostNodeDifferential(const Shape& shape, uint64_t seed, int steps) {
  constexpr uint64_t kCapacity = 400;
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = kCapacity;
  config.dcache_entries = shape.dcache_entries;
  config.dcache_policy = shape.policy;
  config.sparse_ids = shape.hashed;
  // A short aging interval makes Estimate refresh idle descriptors, so
  // RefreshLoss and the promotion path see decayed frequencies.
  config.frequency.aging_interval = 20.0;
  CacheNode node(0, config);
  RefCostNode ref(kCapacity, shape.dcache_entries, shape.policy,
                  config.frequency);

  Rng rng(seed);
  std::vector<ObjectId> got_evicted;
  std::vector<ObjectId> want_evicted;
  double now = 0.0;
  for (int step = 0; step < steps; ++step) {
    // Whole-second clock steps, often zero: equal access times make
    // frequency (LFU) and recency (LRU) ties common in the d-cache heap.
    now += static_cast<double>(rng.NextUint64(3));
    const ObjectId id = TestId(rng.NextUint64(kUniverse), shape.hashed);
    const double penalty = static_cast<double>(1 + rng.NextUint64(8));
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.30) {
      // Mostly fitting sizes; now and then one above capacity (rejected).
      const uint64_t size = rng.NextDouble(0.0, 1.0) < 0.03
                                ? kCapacity + 1
                                : 1 + rng.NextUint64(kCapacity / 3);
      const bool got = node.InsertCost(id, size, penalty, now, &got_evicted);
      const bool want = ref.InsertCost(id, size, penalty, now, &want_evicted);
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(got_evicted, want_evicted) << "step " << step;
    } else if (dice < 0.55) {
      ExpectSameDescriptor(node.RecordAccess(id, now),
                           ref.RecordAccess(id, now), step, id);
    } else if (dice < 0.72) {
      if (!ref.Contains(id)) {
        const uint64_t size = 1 + rng.NextUint64(kCapacity / 3);
        ObjectDescriptor* got = node.AdmitDescriptor(id, size, now);
        ObjectDescriptor* want = ref.AdmitDescriptor(id, size, now);
        ExpectSameDescriptor(got, want, step, id);
        // The coordinated descent stamps the penalty on an admitted one.
        if (got != nullptr) {
          got->miss_penalty = penalty;
          want->miss_penalty = penalty;
        }
      }
    } else if (dice < 0.84) {
      node.UpdateMissPenalty(id, penalty, now);
      ref.UpdateMissPenalty(id, penalty, now);
    } else if (dice < 0.92) {
      ASSERT_EQ(node.EraseObject(id), ref.EraseObject(id)) << "step " << step;
    } else if (dice < 0.998) {
      if (ref.Contains(id)) {
        node.RefreshLoss(id, now);
        ref.RefreshLoss(id, now);
      }
    } else {
      node.Reset(config);
      ref.Reset();
    }

    ASSERT_TRUE(node.CheckInvariants()) << "step " << step;
    ASSERT_EQ(node.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(node.num_cached_objects(), ref.num_cached_objects())
        << "step " << step;
    ASSERT_EQ(node.dcache_size(), ref.dcache_size()) << "step " << step;
    for (uint64_t raw = 0; raw < kUniverse; ++raw) {
      const ObjectId probe = TestId(raw, shape.hashed);
      ASSERT_EQ(node.Contains(probe), ref.Contains(probe))
          << "step " << step << " id " << probe;
      ASSERT_EQ(node.DescriptorInMain(probe), ref.DescriptorInMain(probe))
          << "step " << step << " id " << probe;
      ASSERT_EQ(node.DescriptorInDCache(probe), ref.DescriptorInDCache(probe))
          << "step " << step << " id " << probe;
      ExpectSameDescriptor(node.FindDescriptor(probe),
                           ref.FindDescriptor(probe), step, probe);
      if (ref.Contains(probe)) {
        ASSERT_EQ(node.LossOf(probe), ref.LossOf(probe))
            << "step " << step << " id " << probe;
      }
    }
    // Plans for a small, a large and an infeasible request: the greedy
    // walk must visit the same entries in the same order.
    for (const uint64_t need :
         {1 + rng.NextUint64(8), 1 + rng.NextUint64(kCapacity),
          kCapacity + 1}) {
      const auto got = node.PlanEvictionFor(need);
      const auto want = ref.PlanEvictionFor(need);
      ASSERT_EQ(got.victims, want.victims) << "step " << step;
      ASSERT_EQ(got.cost_loss, want.cost_loss) << "step " << step;
      ASSERT_EQ(got.freed_bytes, want.freed_bytes) << "step " << step;
      ASSERT_EQ(got.feasible, want.feasible) << "step " << step;
    }
  }
}

constexpr int kSteps = 20000;

TEST(CostNodeDifferentialTest, LfuDCacheDenseDirectory) {
  RunCostNodeDifferential({6, cache::DCachePolicy::kLfu, false}, 101, kSteps);
}

TEST(CostNodeDifferentialTest, LfuDCacheHashedDirectory) {
  RunCostNodeDifferential({6, cache::DCachePolicy::kLfu, true}, 103, kSteps);
}

TEST(CostNodeDifferentialTest, LruDCacheDenseDirectory) {
  RunCostNodeDifferential({6, cache::DCachePolicy::kLru, false}, 107, kSteps);
}

TEST(CostNodeDifferentialTest, LruDCacheHashedDirectory) {
  RunCostNodeDifferential({6, cache::DCachePolicy::kLru, true}, 109, kSteps);
}

// A d-cache large enough to hold every id: admission never rejects, so
// every eviction and erase demotes.
TEST(CostNodeDifferentialTest, RoomyLfuDCacheDenseDirectory) {
  RunCostNodeDifferential({kUniverse, cache::DCachePolicy::kLfu, false}, 113,
                          kSteps);
}

TEST(CostNodeDifferentialTest, NoDCacheDenseDirectory) {
  RunCostNodeDifferential({0, cache::DCachePolicy::kLfu, false}, 127, kSteps);
}

TEST(CostNodeDifferentialTest, NoDCacheHashedDirectory) {
  RunCostNodeDifferential({0, cache::DCachePolicy::kLfu, true}, 131, kSteps);
}

}  // namespace
}  // namespace cascache::sim
