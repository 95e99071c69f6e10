// Differential tests for the heap-ordered cost stores: NclCache and
// GdsCache keep their (NCL, id) / (H, id) order in a flat binary heap and
// are driven here in lock-step with the historical std::set stores kept
// as oracles in tests/testing/ref_caches.h. Losses, costs and sizes come
// from small value sets so most keys tie and the id tie-break decides;
// after every operation the eviction plans, evicted lists, ascending
// order and byte accounting must be identical. Each store runs in both
// id-index modes: dense, and hashed (SlotIndex::SetSparse) over ids
// spread far apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "cache/gds_cache.h"
#include "cache/ncl_cache.h"
#include "cache/ordered_heap.h"
#include "testing/ref_caches.h"
#include "util/random.h"

namespace cascache::cache {
namespace {

using cascache::testing::RefGdsCache;
using cascache::testing::RefNclCache;
using trace::ObjectId;
using util::Rng;

// The heap itself against an ordered set of (key, id): every operation the
// stores use, keys from four values so the id tie-break decides, and the
// ascending walk stopped at random depths.
TEST(OrderedSlotHeapTest, RandomOpsMatchOrderedSet) {
  Rng rng(29);
  OrderedSlotHeap heap;
  std::set<std::pair<double, ObjectId>> ref;
  std::vector<double> key_of(64, -1.0);  // Slot s holds id s; -1 = absent.
  for (int step = 0; step < 40000; ++step) {
    const SlotId slot = static_cast<SlotId>(rng.NextUint64(64));
    const double key = static_cast<double>(rng.NextUint64(4));
    const uint64_t op = rng.NextUint64(100);
    const bool present = key_of[slot] >= 0.0;
    if (op < 35) {
      if (!present) {
        heap.Push(key, slot, slot);
        ref.emplace(key, slot);
        key_of[slot] = key;
      }
    } else if (op < 65) {
      if (present) {
        heap.Update(slot, key);
        ref.erase({key_of[slot], slot});
        ref.emplace(key, slot);
        key_of[slot] = key;
      }
    } else if (op < 78) {
      if (present) {
        heap.Erase(slot);
        ref.erase({key_of[slot], slot});
        key_of[slot] = -1.0;
      }
    } else if (op < 88) {
      if (!heap.empty()) {
        const OrderedSlotHeap::Entry top = heap.Top();
        heap.Pop();
        ref.erase(ref.begin());
        key_of[top.slot] = -1.0;
      }
    } else if (op < 99) {
      // Replace the minimum by an absent slot's entry.
      if (!heap.empty() && !present) {
        const OrderedSlotHeap::Entry top = heap.Top();
        heap.ReplaceTop(key, slot, slot);
        ref.erase(ref.begin());
        key_of[top.slot] = -1.0;
        ref.emplace(key, slot);
        key_of[slot] = key;
      }
    } else {
      heap.Clear();
      ref.clear();
      std::fill(key_of.begin(), key_of.end(), -1.0);
    }
    ASSERT_EQ(heap.size(), ref.size()) << "step " << step;
    ASSERT_TRUE(heap.CheckInvariants()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(heap.Top().key, ref.begin()->first) << "step " << step;
      ASSERT_EQ(heap.Top().id, ref.begin()->second) << "step " << step;
    }
    if (key_of[slot] >= 0.0) {
      ASSERT_EQ(heap.KeyOf(slot), key_of[slot]) << "step " << step;
    }
    // The walk always visits the root; stop after `visits` entries.
    const size_t visits = std::max<size_t>(1, rng.NextUint64(ref.size() + 1));
    std::vector<std::pair<double, ObjectId>> walked;
    heap.VisitAscending([&](const OrderedSlotHeap::Entry& entry) {
      walked.emplace_back(entry.key, entry.id);
      return walked.size() < visits;
    });
    const std::vector<std::pair<double, ObjectId>> want(
        ref.begin(), std::next(ref.begin(), std::min(visits, ref.size())));
    ASSERT_EQ(walked, want) << "step " << step;
  }
}

void ExpectSamePlan(const NclCache::EvictionPlan& got,
                    const NclCache::EvictionPlan& want, int step,
                    uint64_t need) {
  ASSERT_EQ(got.victims, want.victims) << "step " << step << " need " << need;
  ASSERT_EQ(got.cost_loss, want.cost_loss) << "step " << step;
  ASSERT_EQ(got.freed_bytes, want.freed_bytes) << "step " << step;
  ASSERT_EQ(got.feasible, want.feasible) << "step " << step;
}

/// Draws from a handful of values so equal keys are the rule.
double TiedValue(Rng& rng) {
  static constexpr double kValues[] = {0.0, 1.0, 1.0, 2.0, 3.0, 6.0};
  return kValues[rng.NextUint64(6)];
}

uint64_t TiedSize(Rng& rng) {
  static constexpr uint64_t kSizes[] = {1, 2, 2, 3, 6};
  return kSizes[rng.NextUint64(5)];
}

/// The id for draw `raw`: itself in dense mode, spread over a wide range
/// in hashed mode (order-preserving, so id tie-breaks are unchanged).
ObjectId TestId(uint64_t raw, bool hashed) {
  return static_cast<ObjectId>(hashed ? raw * 40503 + 7 : raw);
}

void RunNclDifferential(uint64_t seed, uint64_t capacity, int steps,
                        bool tied, bool hashed = false) {
  Rng rng(seed);
  NclCache flat(capacity);
  flat.SetSparse(hashed);
  RefNclCache ref(capacity);
  NclCache::EvictionPlan plan;  // Reused, like the coordinated ascent.
  for (int step = 0; step < steps; ++step) {
    const ObjectId id = TestId(rng.NextUint64(120), hashed);
    const double loss = tied ? TiedValue(rng) : rng.NextDouble(0.0, 50.0);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.45) {
      // Mostly fitting sizes; now and then one above capacity (rejected).
      const uint64_t size = rng.NextDouble(0.0, 1.0) < 0.03
                                ? capacity + 1 + rng.NextUint64(4)
                                : (tied ? TiedSize(rng)
                                        : 1 + rng.NextUint64(capacity / 3));
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId> flat_evicted =
          flat.Insert(id, size, loss, &flat_inserted);
      const std::vector<ObjectId> ref_evicted =
          ref.Insert(id, size, loss, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.75) {
      ASSERT_EQ(flat.UpdateLoss(id, loss), ref.UpdateLoss(id, loss))
          << "step " << step;
    } else if (dice < 0.88) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else if (dice < 0.995) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
      if (flat.Contains(id)) {
        ASSERT_EQ(flat.LossOf(id), ref.LossOf(id)) << "step " << step;
      }
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    ASSERT_EQ(flat.IdsByNcl(), ref.IdsByNcl()) << "step " << step;
    // Plans for a small, a large and an infeasible request: the greedy
    // walk must visit the same entries in the same order.
    for (const uint64_t need :
         {1 + rng.NextUint64(4), 1 + rng.NextUint64(capacity), capacity + 1}) {
      flat.PlanEvictionInto(need, &plan);
      ExpectSamePlan(plan, ref.PlanEviction(need), step, need);
    }
  }
}

TEST(NclDifferentialTest, TieHeavyChurnMatchesSetOracle) {
  RunNclDifferential(/*seed=*/31, /*capacity=*/40, /*steps=*/30000,
                     /*tied=*/true);
}

TEST(NclDifferentialTest, DistinctLossChurnMatchesSetOracle) {
  RunNclDifferential(/*seed=*/37, /*capacity=*/600, /*steps=*/20000,
                     /*tied=*/false);
}

TEST(NclDifferentialTest, HashedIndexTieHeavyChurnMatchesSetOracle) {
  RunNclDifferential(/*seed=*/31, /*capacity=*/40, /*steps=*/30000,
                     /*tied=*/true, /*hashed=*/true);
}

TEST(NclDifferentialTest, HashedIndexDistinctLossChurnMatchesSetOracle) {
  RunNclDifferential(/*seed=*/37, /*capacity=*/600, /*steps=*/20000,
                     /*tied=*/false, /*hashed=*/true);
}

// A cleared store re-fills its old slots (the heap's slot-indexed
// positions included) and keeps matching the oracle.
TEST(NclDifferentialTest, ClearReuseKeepsSlotsAndOrder) {
  NclCache flat(100);
  RefNclCache ref(100);
  for (ObjectId id = 0; id < 50; ++id) {
    flat.Insert(id, 2, 1.0);
    ref.Insert(id, 2, 1.0);
  }
  const size_t span_before = flat.slot_span();
  flat.Clear();
  ref.Clear();
  for (ObjectId id = 100; id > 50; --id) {
    ASSERT_EQ(flat.Insert(id, 2, static_cast<double>(id % 3)),
              ref.Insert(id, 2, static_cast<double>(id % 3)));
  }
  EXPECT_EQ(flat.slot_span(), span_before);
  EXPECT_EQ(flat.IdsByNcl(), ref.IdsByNcl());
  // A full-store insert walks all equal-NCL entries in id order.
  EXPECT_EQ(flat.Insert(7, 11, 0.5), ref.Insert(7, 11, 0.5));
  EXPECT_EQ(flat.IdsByNcl(), ref.IdsByNcl());
  EXPECT_EQ(flat.used_bytes(), ref.used_bytes());
}

void RunGdsDifferential(uint64_t seed, uint64_t capacity, int steps,
                        bool tied, bool hashed = false) {
  Rng rng(seed);
  GdsCache flat(capacity);
  flat.SetSparse(hashed);
  RefGdsCache ref(capacity);
  for (int step = 0; step < steps; ++step) {
    const ObjectId id = TestId(rng.NextUint64(120), hashed);
    const double cost = tied ? TiedValue(rng) : rng.NextDouble(0.0, 50.0);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.5) {
      const uint64_t size = rng.NextDouble(0.0, 1.0) < 0.03
                                ? capacity + 1 + rng.NextUint64(4)
                                : (tied ? TiedSize(rng)
                                        : 1 + rng.NextUint64(capacity / 3));
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId> flat_evicted =
          flat.Insert(id, size, cost, &flat_inserted);
      const std::vector<ObjectId> ref_evicted =
          ref.Insert(id, size, cost, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.8) {
      ASSERT_EQ(flat.OnHit(id, cost), ref.OnHit(id, cost)) << "step " << step;
    } else if (dice < 0.93) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else if (dice < 0.995) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    ASSERT_EQ(flat.inflation(), ref.inflation()) << "step " << step;
    if (step % 97 == 0) {
      for (uint64_t raw = 0; raw < 120; ++raw) {
        const ObjectId probe = TestId(raw, hashed);
        ASSERT_EQ(flat.Contains(probe), ref.Contains(probe))
            << "step " << step;
        if (flat.Contains(probe)) {
          ASSERT_EQ(flat.CreditOf(probe), ref.CreditOf(probe))
              << "step " << step << " id " << probe;
        }
      }
    }
  }
}

TEST(GdsDifferentialTest, TieHeavyChurnMatchesSetOracle) {
  RunGdsDifferential(/*seed=*/41, /*capacity=*/40, /*steps=*/40000,
                     /*tied=*/true);
}

TEST(GdsDifferentialTest, DistinctCostChurnMatchesSetOracle) {
  RunGdsDifferential(/*seed=*/43, /*capacity=*/600, /*steps=*/30000,
                     /*tied=*/false);
}

TEST(GdsDifferentialTest, HashedIndexTieHeavyChurnMatchesSetOracle) {
  RunGdsDifferential(/*seed=*/41, /*capacity=*/40, /*steps=*/40000,
                     /*tied=*/true, /*hashed=*/true);
}

TEST(GdsDifferentialTest, HashedIndexDistinctCostChurnMatchesSetOracle) {
  RunGdsDifferential(/*seed=*/43, /*capacity=*/600, /*steps=*/30000,
                     /*tied=*/false, /*hashed=*/true);
}

}  // namespace
}  // namespace cascache::cache
