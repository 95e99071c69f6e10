// Tests for the sparse (hashed) mode of the store id->slot table,
// cache::SlotIndex. Sparse mode backs every catalog above 2^18 ids
// (cache::UseHashedIndex), where dense direct-index tables would cost 4
// bytes x catalog in every store. The stores' eviction heaps are keyed by
// slot, so they need no sparse mode of their own.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/flat_store.h"
#include "util/random.h"

namespace cascache::cache {
namespace {

TEST(SparseSlotIndexTest, InsertLookupErase) {
  SlotIndex index;
  index.SetSparse(true);
  EXPECT_TRUE(index.sparse());
  EXPECT_EQ(index.Get(7), kNoSlot);

  index.Set(7, 1);
  index.Set(99'000'000, 2);  // Far beyond any dense table's reach.
  EXPECT_EQ(index.Get(7), 1u);
  EXPECT_EQ(index.Get(99'000'000), 2u);
  EXPECT_FALSE(index.Contains(8));

  index.Set(7, 5);  // Overwrite in place.
  EXPECT_EQ(index.Get(7), 5u);

  index.Erase(7);
  EXPECT_EQ(index.Get(7), kNoSlot);
  EXPECT_EQ(index.Get(99'000'000), 2u);
  index.Erase(7);  // Erasing an absent id is a no-op.
  EXPECT_EQ(index.Get(99'000'000), 2u);
}

TEST(SparseSlotIndexTest, MatchesDenseReferenceUnderRandomChurn) {
  SlotIndex sparse;
  sparse.SetSparse(true);
  std::unordered_map<trace::ObjectId, SlotId> reference;
  util::Rng rng(17);

  // Random insert/overwrite/erase churn over a small id universe forces
  // collision chains and exercises backward-shift deletion.
  for (int step = 0; step < 50'000; ++step) {
    const trace::ObjectId id =
        static_cast<trace::ObjectId>(rng.NextUint64(512));
    if (rng.NextBool(0.4)) {
      sparse.Erase(id);
      reference.erase(id);
    } else {
      const SlotId slot = static_cast<SlotId>(rng.NextUint64(kNoSlot));
      sparse.Set(id, slot);
      reference[id] = slot;
    }
  }
  for (trace::ObjectId id = 0; id < 512; ++id) {
    auto it = reference.find(id);
    EXPECT_EQ(sparse.Get(id), it == reference.end() ? kNoSlot : it->second)
        << "id " << id;
  }
}

TEST(SparseSlotIndexTest, GrowsPastInitialCapacity) {
  SlotIndex index;
  index.SetSparse(true);
  const size_t n = 100'000;  // >> kInitialBuckets; several doublings.
  for (size_t i = 0; i < n; ++i) {
    index.Set(static_cast<trace::ObjectId>(i * 1000 + 3),
              static_cast<SlotId>(i));
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.Get(static_cast<trace::ObjectId>(i * 1000 + 3)),
              static_cast<SlotId>(i));
  }
  // The table is sized by resident entries, not by the id span.
  EXPECT_LT(index.span(), 8 * n);
}

TEST(SparseSlotIndexTest, ClearKeepsSparseMode) {
  SlotIndex index;
  index.SetSparse(true);
  index.Set(1'000'000, 9);
  index.Clear();
  EXPECT_TRUE(index.sparse());
  EXPECT_EQ(index.Get(1'000'000), kNoSlot);
  index.Set(1'000'000, 4);
  EXPECT_EQ(index.Get(1'000'000), 4u);
}

TEST(SparseSlotIndexTest, ClearKeepsHashedCapacity) {
  SlotIndex index;
  index.SetSparse(true);
  for (trace::ObjectId id = 0; id < 5000; ++id) index.Set(id * 977, id);
  const size_t span_before = index.span();
  index.Clear();
  EXPECT_EQ(index.span(), span_before);
  for (trace::ObjectId id = 0; id < 5000; ++id) {
    ASSERT_EQ(index.Get(id * 977), kNoSlot);
  }
  // Refilling to the same residency stays inside the kept table.
  for (trace::ObjectId id = 0; id < 5000; ++id) index.Set(id * 613 + 1, id);
  EXPECT_EQ(index.span(), span_before);
  EXPECT_EQ(index.Get(613 * 17 + 1), 17u);
}

TEST(SparseSlotIndexTest, LoadStaysAtMostAQuarter) {
  SlotIndex index;
  index.SetSparse(true);
  for (trace::ObjectId id = 0; id < 40'000; ++id) {
    index.Set(id * 31 + 5, id);
    ASSERT_LE(4 * (static_cast<size_t>(id) + 1), index.span()) << "id " << id;
  }
}

TEST(SparseSlotIndexTest, RuleKeepsSmallCatalogsDenseAndLargeHashed) {
  EXPECT_FALSE(UseHashedIndex(20'000));  // fig9_sweep, hier_overload.
  EXPECT_FALSE(UseHashedIndex(kDenseIndexMaxIds));
  EXPECT_TRUE(UseHashedIndex(kDenseIndexMaxIds + 1));
  EXPECT_TRUE(UseHashedIndex(1'000'000));  // enroute_drift_mapped.
  EXPECT_TRUE(UseHashedIndex(100'000'000));
}

TEST(SparseSlotIndexTest, DenseModeUnchangedByDefault) {
  SlotIndex index;
  EXPECT_FALSE(index.sparse());
  index.Set(3, 7);
  EXPECT_EQ(index.Get(3), 7u);
  // Dense span tracks the largest id seen.
  EXPECT_GE(index.span(), 4u);
}

TEST(SparseSlotIndexTest, DenseRefillAfterClearKeepsCapacity) {
  SlotIndex index;
  index.Set(999, 1);
  const size_t span_before = index.span();
  index.Clear();
  // Doubling from id 10 would pass the kept capacity at id 600.
  for (const trace::ObjectId id : {10u, 600u, 999u}) index.Set(id, id);
  EXPECT_EQ(index.span(), span_before);
  EXPECT_EQ(index.Get(600), 600u);
  EXPECT_EQ(index.Get(11), kNoSlot);
}

}  // namespace
}  // namespace cascache::cache
