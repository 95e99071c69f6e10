#ifndef CASCACHE_UTIL_INDEXED_HEAP_H_
#define CASCACHE_UTIL_INDEXED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cascache::util {

inline constexpr size_t kHeapNpos = static_cast<size_t>(-1);

/// Default key→heap-position map: a hash table. Works for any hashable
/// key type.
template <typename Key, typename Hash = std::hash<Key>>
class HashPosMap {
 public:
  size_t Lookup(const Key& key) const {
    auto it = pos_.find(key);
    return it == pos_.end() ? kHeapNpos : it->second;
  }
  void Set(const Key& key, size_t pos) { pos_[key] = pos; }
  void Erase(const Key& key) { pos_.erase(key); }
  void Clear() { pos_.clear(); }
  size_t size() const { return pos_.size(); }

 private:
  std::unordered_map<Key, size_t, Hash> pos_;
};

/// Direct-index key→heap-position map for keys that are small dense
/// slot numbers (a store's own slots, bounded by its capacity, not by the
/// catalog's id space): one uint32_t per slot, one array load per lookup.
/// Grows to the largest slot seen and keeps its capacity across Clear.
class SlotPosMap {
 public:
  size_t Lookup(uint32_t slot) const {
    return slot < pos_.size() && pos_[slot] != kAbsent ? pos_[slot]
                                                       : kHeapNpos;
  }
  void Set(uint32_t slot, size_t pos) {
    if (slot >= pos_.size()) {
      pos_.resize(static_cast<size_t>(slot) + 1, kAbsent);
    }
    pos_[slot] = static_cast<uint32_t>(pos);
  }
  void Erase(uint32_t slot) { pos_[slot] = kAbsent; }
  void Clear() { pos_.clear(); }
  /// Present keys (invariant checks only: a scan of the table).
  size_t size() const {
    return static_cast<size_t>(
        pos_.size() - std::count(pos_.begin(), pos_.end(), kAbsent));
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<uint32_t> pos_;
};

/// Binary min-heap over (key, priority) pairs with O(log n) priority update
/// and erase by key. This backs the d-cache's eviction order (LFU by
/// default, paper §2.4) and the in-cache LFU store, both keyed by their
/// own pool slots (SlotPosMap).
///
/// Keys must be unique. Priorities are doubles; ties are broken
/// arbitrarily but deterministically: sifts compare priorities only, so
/// the layout — and with it which of several tied entries is the top —
/// depends only on the sequence of operations and priorities, never on
/// the keys or the PosMap. Sifts move a hole rather than swapping; they
/// make the same comparisons in the same order as pairwise swaps, so the
/// layout is the one a swap-based heap reaches.
/// The PosMap parameter selects the key→position index: HashPosMap for
/// arbitrary keys, SlotPosMap for dense slot numbers.
template <typename Key, typename PosMap = HashPosMap<Key>>
class IndexedMinHeap {
 public:
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(const Key& key) const {
    return pos_.Lookup(key) != kHeapNpos;
  }

  /// Priority of an existing key. The key must be present.
  double PriorityOf(const Key& key) const {
    const size_t i = pos_.Lookup(key);
    CASCACHE_CHECK(i != kHeapNpos);
    return entries_[i].second;
  }

  /// Inserts a new key. The key must not already be present.
  void Push(const Key& key, double priority) {
    CASCACHE_CHECK_MSG(!Contains(key), "duplicate key in IndexedMinHeap");
    entries_.emplace_back(key, priority);
    pos_.Set(key, entries_.size() - 1);
    SiftUp(entries_.size() - 1);
  }

  /// The minimum-priority entry. Heap must be non-empty.
  const std::pair<Key, double>& Top() const {
    CASCACHE_CHECK(!entries_.empty());
    return entries_[0];
  }

  /// Removes and returns the minimum-priority entry.
  std::pair<Key, double> Pop() {
    CASCACHE_CHECK(!entries_.empty());
    std::pair<Key, double> top = entries_[0];
    RemoveAt(0);
    return top;
  }

  /// Changes the priority of an existing key.
  void Update(const Key& key, double priority) {
    const size_t i = pos_.Lookup(key);
    CASCACHE_CHECK(i != kHeapNpos);
    const double old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (priority > old) {
      SiftDown(i);
    }
  }

  /// Inserts the key or updates its priority if already present.
  void Upsert(const Key& key, double priority) {
    if (Contains(key)) {
      Update(key, priority);
    } else {
      Push(key, priority);
    }
  }

  /// Removes a key; returns false if it was not present.
  bool Erase(const Key& key) {
    const size_t i = pos_.Lookup(key);
    if (i == kHeapNpos) return false;
    RemoveAt(i);
    return true;
  }

  void Clear() {
    entries_.clear();
    pos_.Clear();
  }

  /// Unordered view of all entries (heap order, not priority order).
  const std::vector<std::pair<Key, double>>& entries() const {
    return entries_;
  }

  /// Verifies the heap property and index map; used by tests.
  bool CheckInvariants() const {
    if (pos_.size() != entries_.size()) return false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (pos_.Lookup(entries_[i].first) != i) return false;
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < entries_.size() && entries_[l].second < entries_[i].second)
        return false;
      if (r < entries_.size() && entries_[r].second < entries_[i].second)
        return false;
    }
    return true;
  }

 private:
  void Place(size_t i, const std::pair<Key, double>& entry) {
    entries_[i] = entry;
    pos_.Set(entry.first, i);
  }

  void SiftUp(size_t i) {
    const std::pair<Key, double> moving = entries_[i];
    const size_t start = i;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (entries_[parent].second <= moving.second) break;
      Place(i, entries_[parent]);
      i = parent;
    }
    if (i != start) Place(i, moving);
  }

  void SiftDown(size_t i) {
    const std::pair<Key, double> moving = entries_[i];
    const size_t start = i;
    const size_t n = entries_.size();
    for (;;) {
      // The swap-based comparisons: left child against the moving entry,
      // then right child against whichever of the two won.
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      size_t smallest = i;
      double best = moving.second;
      if (l < n && entries_[l].second < best) {
        smallest = l;
        best = entries_[l].second;
      }
      if (r < n && entries_[r].second < best) smallest = r;
      if (smallest == i) break;
      Place(i, entries_[smallest]);
      i = smallest;
    }
    if (i != start) Place(i, moving);
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_.Erase(entries_[i].first);
    if (i != last) {
      Place(i, entries_[last]);
      entries_.pop_back();
      // The moved element may need to go either direction.
      SiftDown(i);
      SiftUp(i);
    } else {
      entries_.pop_back();
    }
  }

  std::vector<std::pair<Key, double>> entries_;
  PosMap pos_;
};

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_INDEXED_HEAP_H_
