// Differential tests for the flat cache plane: the production stores
// (FlatLru over a struct-of-arrays slot pool, DCache over a pooled
// descriptor table) are driven through long random operation sequences in
// lock-step with the historical node-based implementations kept as
// oracles in tests/testing/ref_caches.h. Every observable — return
// values, membership, byte accounting, eviction order, descriptor
// contents — must match at every step. Each store runs once per id-index
// mode: dense (direct-index table) and hashed (SlotIndex::SetSparse, the
// mode cache::UseHashedIndex picks for large catalogs), the hashed runs
// over ids spread far apart so the table is sparse in the id space.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/dcache.h"
#include "cache/descriptor_table.h"
#include "cache/flat_lru.h"
#include "testing/ref_caches.h"
#include "util/random.h"

namespace cascache::cache {
namespace {

using cascache::testing::RefDCache;
using cascache::testing::RefLruCache;
using trace::ObjectId;
using util::Rng;

/// The id the tests use for draw `raw`: itself in dense mode; in hashed
/// mode spread over a wide id range (order-preserving, so tie-breaks by
/// id behave alike).
ObjectId TestId(uint64_t raw, bool hashed) {
  return static_cast<ObjectId>(hashed ? raw * 40503 + 7 : raw);
}

void RunFlatLruDifferential(bool hashed) {
  Rng rng(20260807);
  FlatLru flat(4096);
  flat.SetSparse(hashed);
  RefLruCache ref(4096);
  for (int step = 0; step < 100000; ++step) {
    const ObjectId id = TestId(rng.NextUint64(200), hashed);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.55) {
      const uint64_t size = 1 + rng.NextUint64(900);
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId>& flat_evicted =
          flat.Insert(id, size, &flat_inserted);
      const std::vector<ObjectId> ref_evicted =
          ref.Insert(id, size, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.75) {
      ASSERT_EQ(flat.Touch(id), ref.Touch(id)) << "step " << step;
    } else if (dice < 0.9) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else if (dice < 0.98) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    if (flat.num_objects() > 0) {
      ASSERT_EQ(flat.LruVictim(), ref.LruVictim()) << "step " << step;
    }
    if (step % 4999 == 0) {
      ASSERT_TRUE(flat.CheckInvariants());
    }
  }
  ASSERT_TRUE(flat.CheckInvariants());
}

TEST(FlatLruDifferentialTest, MatchesReferenceUnderRandomOps) {
  RunFlatLruDifferential(/*hashed=*/false);
}

TEST(FlatLruDifferentialTest, HashedIndexMatchesReferenceUnderRandomOps) {
  RunFlatLruDifferential(/*hashed=*/true);
}

// Clearing must recycle slots: after Clear the flat store re-fills the
// same slot span instead of growing, and still matches the oracle.
void RunClearRecycles(bool hashed) {
  FlatLru flat(10'000);
  flat.SetSparse(hashed);
  RefLruCache ref(10'000);
  for (uint64_t raw = 0; raw < 100; ++raw) {
    flat.Insert(TestId(raw, hashed), 100);
    ref.Insert(TestId(raw, hashed), 100);
  }
  const size_t span_before = flat.slot_span();
  flat.Clear();
  ref.Clear();
  for (uint64_t raw = 100; raw < 200; ++raw) {
    flat.Insert(TestId(raw, hashed), 100);
    ref.Insert(TestId(raw, hashed), 100);
  }
  EXPECT_EQ(flat.slot_span(), span_before);  // Reused, not regrown.
  EXPECT_EQ(flat.used_bytes(), ref.used_bytes());
  for (uint64_t raw = 0; raw < 200; ++raw) {
    const ObjectId id = TestId(raw, hashed);
    ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "id " << id;
  }
  ASSERT_TRUE(flat.CheckInvariants());
}

TEST(FlatLruDifferentialTest, ClearRecyclesSlotsAndStaysEquivalent) {
  RunClearRecycles(/*hashed=*/false);
}

TEST(FlatLruDifferentialTest, HashedClearRecyclesSlotsAndStaysEquivalent) {
  RunClearRecycles(/*hashed=*/true);
}

ObjectDescriptor RandomDescriptor(Rng& rng, double now) {
  ObjectDescriptor desc;
  desc.size = 1 + rng.NextUint64(500);
  desc.frequency = rng.NextDouble(0.0, 50.0);
  const int accesses = static_cast<int>(rng.NextUint64(5));
  for (int i = 0; i < accesses; ++i) {
    desc.RecordAccess(now + static_cast<double>(i));
  }
  return desc;
}

void AssertDescriptorsEqual(const ObjectDescriptor* a,
                            const ObjectDescriptor* b, int step) {
  ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
  if (a == nullptr) return;
  ASSERT_EQ(a->size, b->size) << "step " << step;
  ASSERT_EQ(a->frequency, b->frequency) << "step " << step;
  ASSERT_EQ(a->num_accesses, b->num_accesses) << "step " << step;
}

void RunDCacheDifferential(DCachePolicy policy, bool hashed) {
  Rng rng(policy == DCachePolicy::kLfu ? 11 : 13);
  DCache flat(64, policy);
  flat.SetSparse(hashed);
  RefDCache ref(64, policy);
  double now = 0.0;
  for (int step = 0; step < 60000; ++step) {
    now += 1.0;
    const ObjectId id = TestId(rng.NextUint64(300), hashed);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.6) {
      const ObjectDescriptor desc = RandomDescriptor(rng, now);
      ObjectDescriptor* a = flat.Insert(id, desc);
      ObjectDescriptor* b = ref.Insert(id, desc);
      AssertDescriptorsEqual(a, b, step);
    } else if (dice < 0.75) {
      ObjectDescriptor* a = flat.Find(id);
      ObjectDescriptor* b = ref.Find(id);
      AssertDescriptorsEqual(a, b, step);
      if (a != nullptr) {
        // Mutate through the pointer exactly like the request path does,
        // then re-prioritize. Both stores must track the same state.
        a->RecordAccess(now);
        b->RecordAccess(now);
        a->frequency += 0.5;
        b->frequency += 0.5;
        flat.Refresh(id, *a);
        ref.Refresh(id, *b);
      }
    } else if (dice < 0.9) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
  }
  // Final full-membership sweep.
  for (uint64_t raw = 0; raw < 300; ++raw) {
    const ObjectId id = TestId(raw, hashed);
    ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "id " << id;
    AssertDescriptorsEqual(flat.Find(id), ref.Find(id), -1);
  }
}

TEST(DCacheDifferentialTest, MatchesReferenceUnderLfuPolicy) {
  RunDCacheDifferential(DCachePolicy::kLfu, /*hashed=*/false);
}

TEST(DCacheDifferentialTest, MatchesReferenceUnderLruPolicy) {
  RunDCacheDifferential(DCachePolicy::kLru, /*hashed=*/false);
}

TEST(DCacheDifferentialTest, HashedIndexMatchesReferenceUnderLfuPolicy) {
  RunDCacheDifferential(DCachePolicy::kLfu, /*hashed=*/true);
}

TEST(DCacheDifferentialTest, HashedIndexMatchesReferenceUnderLruPolicy) {
  RunDCacheDifferential(DCachePolicy::kLru, /*hashed=*/true);
}

// Zero-capacity and overwrite edge cases must agree too.
TEST(DCacheDifferentialTest, ZeroCapacityRejectsEverywhere) {
  DCache flat(0);
  RefDCache ref(0);
  ObjectDescriptor desc;
  desc.size = 10;
  desc.frequency = 1.0;
  EXPECT_EQ(flat.Insert(7, desc), nullptr);
  EXPECT_EQ(ref.Insert(7, desc), nullptr);
  EXPECT_FALSE(flat.Contains(7));
  EXPECT_FALSE(ref.Contains(7));
}

// The cost-mode main descriptor table against a hash map: insert,
// overwrite, find, erase and clear churn, with pointer stability checked
// for the descriptors that survive, and ForEach visiting exactly the
// live entries.
void RunDescriptorTableChurn(bool hashed) {
  Rng rng(hashed ? 53 : 47);
  DescriptorTable table;
  table.SetSparse(hashed);
  std::unordered_map<ObjectId, ObjectDescriptor> ref;
  std::unordered_map<ObjectId, const ObjectDescriptor*> pinned;
  double now = 0.0;
  for (int step = 0; step < 60000; ++step) {
    now += 1.0;
    const ObjectId id = TestId(rng.NextUint64(250), hashed);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.45) {
      const ObjectDescriptor desc = RandomDescriptor(rng, now);
      const ObjectDescriptor* stored = table.Insert(id, desc);
      ref[id] = desc;
      // A slot is stable for as long as its id stays resident.
      if (auto it = pinned.find(id); it != pinned.end()) {
        ASSERT_EQ(stored, it->second) << "step " << step;
      }
      pinned[id] = stored;
    } else if (dice < 0.75) {
      auto it = ref.find(id);
      AssertDescriptorsEqual(table.Find(id),
                             it == ref.end() ? nullptr : &it->second, step);
    } else if (dice < 0.995) {
      ASSERT_EQ(table.Erase(id), ref.erase(id) == 1) << "step " << step;
      pinned.erase(id);
    } else {
      table.Clear();
      ref.clear();
      pinned.clear();
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
  }
  size_t visited = 0;
  table.ForEach([&](ObjectId id, const ObjectDescriptor& desc) {
    ++visited;
    auto it = ref.find(id);
    ASSERT_NE(it, ref.end()) << "id " << id;
    AssertDescriptorsEqual(&desc, &it->second, -1);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(DescriptorTableDifferentialTest, DenseChurnMatchesMap) {
  RunDescriptorTableChurn(/*hashed=*/false);
}

TEST(DescriptorTableDifferentialTest, HashedChurnMatchesMap) {
  RunDescriptorTableChurn(/*hashed=*/true);
}

}  // namespace
}  // namespace cascache::cache
