#ifndef CASCACHE_CACHE_ORDERED_HEAP_H_
#define CASCACHE_CACHE_ORDERED_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "trace/object_catalog.h"
#include "util/check.h"

namespace cascache::cache {

/// Flat binary min-heap over the entries of an ordered cost store
/// (NclCache by normalized cost loss, GdsCache by credit H). Entries are
/// ordered by (key, id) with exactly std::pair<double, ObjectId>'s `<`, a
/// strict total order because ids are unique, so the minimum and the
/// ascending walk are those of an ordered set of (key, id) pairs: the
/// victims a store picks never depend on the heap's internal layout.
///
/// Each entry carries its store slot, and positions are indexed by that
/// slot, so the position table is sized by the store's residency rather
/// than by the catalog's id space, and the store reaches an entry's
/// size/loss arrays without an id lookup. Sifts move a hole instead of
/// swapping: one entry and one position write per level.
class OrderedSlotHeap {
 public:
  struct Entry {
    double key;
    trace::ObjectId id;
    SlotId slot;
  };

  /// std::pair<double, ObjectId>'s operator<, spelled out.
  static bool Less(const Entry& a, const Entry& b) {
    return a.key < b.key || (!(b.key < a.key) && a.id < b.id);
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// The minimum (key, id) entry; the heap must be non-empty.
  const Entry& Top() const {
    CASCACHE_DCHECK(!entries_.empty());
    return entries_[0];
  }

  /// Whether a slot has an entry in the heap.
  bool Contains(SlotId slot) const {
    return slot < pos_.size() && pos_[slot] < entries_.size() &&
           entries_[pos_[slot]].slot == slot;
  }

  /// Key of a slot's entry; the slot must be in the heap.
  double KeyOf(SlotId slot) const {
    CASCACHE_DCHECK(slot < pos_.size() && pos_[slot] < entries_.size());
    return entries_[pos_[slot]].key;
  }

  /// Adds the entry of a slot that is not in the heap.
  void Push(double key, trace::ObjectId id, SlotId slot) {
    if (slot >= pos_.size()) pos_.resize(static_cast<size_t>(slot) + 1);
    entries_.push_back(Entry{key, id, slot});
    SiftUp(entries_.size() - 1);
  }

  /// Removes the minimum entry.
  void Pop() {
    CASCACHE_DCHECK(!entries_.empty());
    RemoveAt(0);
  }

  /// Pops the minimum entry and pushes a new one in a single sift-down
  /// from the root; the heap must be non-empty.
  void ReplaceTop(double key, trace::ObjectId id, SlotId slot) {
    CASCACHE_DCHECK(!entries_.empty());
    if (slot >= pos_.size()) pos_.resize(static_cast<size_t>(slot) + 1);
    entries_[0] = Entry{key, id, slot};
    SiftDown(0);
  }

  /// Re-keys a slot's entry in place.
  void Update(SlotId slot, double key) {
    const size_t i = pos_[slot];
    CASCACHE_DCHECK(i < entries_.size() && entries_[i].slot == slot);
    const double old = entries_[i].key;
    entries_[i].key = key;
    if (key < old) {
      SiftUp(i);
    } else if (old < key) {
      SiftDown(i);
    }
  }

  /// Removes a slot's entry.
  void Erase(SlotId slot) {
    const size_t i = pos_[slot];
    CASCACHE_DCHECK(i < entries_.size() && entries_[i].slot == slot);
    RemoveAt(i);
  }

  /// Drops every entry; the position table keeps its capacity.
  void Clear() { entries_.clear(); }

  /// Visits entries in ascending (key, id) order without modifying the
  /// heap, until `fn(const Entry&)` returns false. The walk keeps a
  /// frontier of heap positions whose parents were visited; its smallest
  /// member is the next entry in order. The common case, where the root
  /// alone satisfies `fn`, never touches the frontier.
  template <typename Fn>
  void VisitAscending(Fn&& fn) const {
    if (entries_.empty() || !fn(entries_[0])) return;
    const auto later = [this](uint32_t a, uint32_t b) {
      return Less(entries_[b], entries_[a]);
    };
    frontier_.clear();
    const auto push_children = [&](size_t i) {
      for (size_t c = 2 * i + 1; c <= 2 * i + 2 && c < entries_.size(); ++c) {
        frontier_.push_back(static_cast<uint32_t>(c));
        std::push_heap(frontier_.begin(), frontier_.end(), later);
      }
    };
    push_children(0);
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), later);
      const uint32_t i = frontier_.back();
      frontier_.pop_back();
      if (!fn(entries_[i])) return;
      push_children(i);
    }
  }

  /// Verifies the heap order and the slot→position table (tests).
  bool CheckInvariants() const {
    for (size_t i = 0; i < entries_.size(); ++i) {
      const SlotId slot = entries_[i].slot;
      if (slot >= pos_.size() || pos_[slot] != i) return false;
      if (i > 0 && Less(entries_[i], entries_[(i - 1) / 2])) return false;
    }
    return true;
  }

 private:
  void Place(size_t i, const Entry& entry) {
    entries_[i] = entry;
    pos_[entry.slot] = static_cast<uint32_t>(i);
  }

  void SiftUp(size_t i) {
    const Entry moving = entries_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(moving, entries_[parent])) break;
      Place(i, entries_[parent]);
      i = parent;
    }
    Place(i, moving);
  }

  void SiftDown(size_t i) {
    const Entry moving = entries_[i];
    const size_t n = entries_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(entries_[child + 1], entries_[child])) {
        ++child;
      }
      if (!Less(entries_[child], moving)) break;
      Place(i, entries_[child]);
      i = child;
    }
    Place(i, moving);
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    if (i != last) {
      entries_[i] = entries_[last];
      entries_.pop_back();
      // The moved entry may belong above or below the hole.
      if (i > 0 && Less(entries_[i], entries_[(i - 1) / 2])) {
        SiftUp(i);
      } else {
        SiftDown(i);
      }
    } else {
      entries_.pop_back();
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> pos_;  ///< Slot → heap position.
  /// Scratch of VisitAscending (const walk, reused buffer).
  mutable std::vector<uint32_t> frontier_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_ORDERED_HEAP_H_
