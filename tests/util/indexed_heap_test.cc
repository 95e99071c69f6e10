#include "util/indexed_heap.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cascache::util {
namespace {

TEST(IndexedHeapTest, EmptyHeap) {
  IndexedMinHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, PushPopOrdersByPriority) {
  IndexedMinHeap<int> heap;
  heap.Push(10, 3.0);
  heap.Push(20, 1.0);
  heap.Push(30, 2.0);
  EXPECT_EQ(heap.Pop().first, 20);
  EXPECT_EQ(heap.Pop().first, 30);
  EXPECT_EQ(heap.Pop().first, 10);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeapTest, TopDoesNotRemove) {
  IndexedMinHeap<int> heap;
  heap.Push(1, 5.0);
  EXPECT_EQ(heap.Top().first, 1);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedHeapTest, UpdateMovesUpAndDown) {
  IndexedMinHeap<int> heap;
  heap.Push(1, 1.0);
  heap.Push(2, 2.0);
  heap.Push(3, 3.0);
  heap.Update(3, 0.5);  // 3 becomes the minimum.
  EXPECT_EQ(heap.Top().first, 3);
  heap.Update(3, 10.0);  // 3 sinks back down.
  EXPECT_EQ(heap.Top().first, 1);
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, UpsertInsertsOrUpdates) {
  IndexedMinHeap<int> heap;
  heap.Upsert(7, 2.0);
  EXPECT_TRUE(heap.Contains(7));
  heap.Upsert(7, 0.1);
  EXPECT_DOUBLE_EQ(heap.PriorityOf(7), 0.1);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedHeapTest, EraseByKey) {
  IndexedMinHeap<int> heap;
  for (int i = 0; i < 10; ++i) heap.Push(i, static_cast<double>(i));
  EXPECT_TRUE(heap.Erase(0));   // Erase the min.
  EXPECT_TRUE(heap.Erase(9));   // Erase the max.
  EXPECT_TRUE(heap.Erase(5));   // Erase an interior key.
  EXPECT_FALSE(heap.Erase(5));  // Already gone.
  EXPECT_EQ(heap.size(), 7u);
  EXPECT_EQ(heap.Top().first, 1);
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, ClearEmpties) {
  IndexedMinHeap<int> heap;
  heap.Push(1, 1.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(1));
}

TEST(IndexedHeapTest, PopDrainsInSortedOrder) {
  IndexedMinHeap<int> heap;
  Rng rng(42);
  for (int i = 0; i < 500; ++i) heap.Push(i, rng.NextDouble());
  double prev = -1.0;
  while (!heap.empty()) {
    const auto [key, prio] = heap.Pop();
    EXPECT_GE(prio, prev);
    prev = prio;
  }
}

// Property test: a long random op sequence keeps the heap consistent with
// a reference std::set of (priority, key).
TEST(IndexedHeapTest, RandomOpsMatchReference) {
  IndexedMinHeap<uint64_t> heap;
  std::set<std::pair<double, uint64_t>> reference;
  std::unordered_map<uint64_t, double> prio_of;
  Rng rng(7);

  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.NextUint64(200);
    const int op = static_cast<int>(rng.NextUint64(4));
    const bool present = prio_of.count(key) > 0;
    switch (op) {
      case 0:  // Insert (if absent).
        if (!present) {
          const double p = rng.NextDouble();
          heap.Push(key, p);
          reference.emplace(p, key);
          prio_of[key] = p;
        }
        break;
      case 1:  // Update (if present).
        if (present) {
          const double p = rng.NextDouble();
          reference.erase({prio_of[key], key});
          heap.Update(key, p);
          reference.emplace(p, key);
          prio_of[key] = p;
        }
        break;
      case 2:  // Erase.
        EXPECT_EQ(heap.Erase(key), present);
        if (present) {
          reference.erase({prio_of[key], key});
          prio_of.erase(key);
        }
        break;
      case 3:  // Pop min.
        if (!reference.empty()) {
          const auto [k, p] = heap.Pop();
          EXPECT_DOUBLE_EQ(p, reference.begin()->first);
          reference.erase({prio_of[k], k});
          prio_of.erase(k);
        }
        break;
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(heap.CheckInvariants());
    }
    ASSERT_EQ(heap.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_DOUBLE_EQ(heap.Top().second, reference.begin()->first);
    }
  }
  EXPECT_TRUE(heap.CheckInvariants());
}

/// The swap-based heap the hole-based sifts replaced, kept as the layout
/// reference: every sift swaps the moving entry with its parent or
/// smaller child one level at a time.
class SwapHeapReference {
 public:
  void Push(uint32_t key, double priority) {
    entries_.emplace_back(key, priority);
    pos_[key] = entries_.size() - 1;
    SiftUp(entries_.size() - 1);
  }
  std::pair<uint32_t, double> Pop() {
    const std::pair<uint32_t, double> top = entries_[0];
    RemoveAt(0);
    return top;
  }
  void Update(uint32_t key, double priority) {
    const size_t i = pos_.at(key);
    const double old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (priority > old) {
      SiftDown(i);
    }
  }
  bool Erase(uint32_t key) {
    auto it = pos_.find(key);
    if (it == pos_.end()) return false;
    RemoveAt(it->second);
    return true;
  }
  void Clear() {
    entries_.clear();
    pos_.clear();
  }
  bool Contains(uint32_t key) const { return pos_.count(key) > 0; }
  const std::vector<std::pair<uint32_t, double>>& entries() const {
    return entries_;
  }

 private:
  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (entries_[parent].second <= entries_[i].second) break;
      SwapEntries(i, parent);
      i = parent;
    }
  }
  void SiftDown(size_t i) {
    const size_t n = entries_.size();
    for (;;) {
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      size_t smallest = i;
      if (l < n && entries_[l].second < entries_[smallest].second) {
        smallest = l;
      }
      if (r < n && entries_[r].second < entries_[smallest].second) {
        smallest = r;
      }
      if (smallest == i) break;
      SwapEntries(i, smallest);
      i = smallest;
    }
  }
  void SwapEntries(size_t a, size_t b) {
    std::swap(entries_[a], entries_[b]);
    pos_[entries_[a].first] = a;
    pos_[entries_[b].first] = b;
  }
  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_.erase(entries_[i].first);
    if (i != last) {
      entries_[i] = entries_[last];
      pos_[entries_[i].first] = i;
      entries_.pop_back();
      SiftDown(i);
      SiftUp(i);
    } else {
      entries_.pop_back();
    }
  }

  std::vector<std::pair<uint32_t, double>> entries_;
  std::unordered_map<uint32_t, size_t> pos_;
};

// The hole-based sifts must leave exactly the swap-based layout: with
// priorities drawn from four values, which tied entry sits on top (and so
// is evicted by the d-cache and the LFU store) is decided by the layout
// alone. Checked for the slot-keyed and the hash-keyed position maps.
template <typename Heap>
void RunLayoutAgainstSwapReference(uint64_t seed) {
  Heap heap;
  SwapHeapReference ref;
  Rng rng(seed);
  for (int step = 0; step < 30000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextUint64(64));
    const double priority = static_cast<double>(rng.NextUint64(4));
    const uint64_t op = rng.NextUint64(100);
    if (op < 40) {
      if (!ref.Contains(key)) {
        heap.Push(key, priority);
        ref.Push(key, priority);
      }
    } else if (op < 70) {
      if (ref.Contains(key)) {
        heap.Update(key, priority);
        ref.Update(key, priority);
      }
    } else if (op < 82) {
      ASSERT_EQ(heap.Erase(key), ref.Erase(key)) << "step " << step;
    } else if (op < 99) {
      if (!heap.empty()) {
        ASSERT_EQ(heap.Pop(), ref.Pop()) << "step " << step;
      }
    } else {
      heap.Clear();
      ref.Clear();
    }
    ASSERT_EQ(heap.entries(), ref.entries()) << "step " << step;
    if (step % 1000 == 0) {
      ASSERT_TRUE(heap.CheckInvariants());
    }
  }
}

TEST(IndexedHeapLayoutTest, SlotKeyedMatchesSwapReferenceUnderTies) {
  RunLayoutAgainstSwapReference<IndexedMinHeap<uint32_t, SlotPosMap>>(5);
}

TEST(IndexedHeapLayoutTest, HashKeyedMatchesSwapReferenceUnderTies) {
  RunLayoutAgainstSwapReference<IndexedMinHeap<uint32_t>>(6);
}

}  // namespace
}  // namespace cascache::util
