#ifndef CASCACHE_CACHE_FLAT_STORE_H_
#define CASCACHE_CACHE_FLAT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/object_catalog.h"
#include "util/check.h"

namespace cascache::cache {

/// Slot handle inside a flat store; slots are dense indices into
/// struct-of-arrays storage.
using SlotId = uint32_t;
inline constexpr SlotId kNoSlot = UINT32_MAX;

/// Largest catalog (in ids) whose stores keep dense id→slot tables. A
/// dense table is 4 bytes per catalog id in every store, almost all of
/// them kNoSlot when a store holds ~1% of the catalog; it pays only while
/// one store's table fits a core's L2 share (2^18 ids = 1 MiB). Below
/// this bound hashed tables cost the cost-mode stores (Coordinated,
/// LNC-R) CPU; above it dense ones cost cache misses and several times
/// the resident set. DESIGN.md ("Sparse store indexes") has the measured
/// crossover for LRU and the cost-mode schemes.
inline constexpr uint64_t kDenseIndexMaxIds = uint64_t{1} << 18;

/// The one rule for a store's id-index mode: hashed (SlotIndex::SetSparse)
/// for catalogs above kDenseIndexMaxIds, dense below. Every store of a
/// run gets its mode from here (CacheNodeConfig::sparse_ids).
constexpr bool UseHashedIndex(uint64_t num_objects) {
  return num_objects > kDenseIndexMaxIds;
}

/// Id→slot table over the closed object catalog (ObjectId is a dense
/// uint32_t, see trace/object_catalog.h). Replaces the per-store
/// `std::unordered_map<ObjectId, ...>`.
///
/// Dense mode (default): a direct-index array, so a lookup is one bounds
/// check and one array load. The table grows lazily to the largest id
/// seen, so stores never need the catalog size up front — but it ends up
/// 4 bytes x catalog wide in every store.
///
/// Hashed mode (SetSparse, chosen by UseHashedIndex for catalogs above
/// kDenseIndexMaxIds): the same API over an open-addressing table of
/// packed (id, slot) entries (Fibonacci hashing, linear probing,
/// backward-shift deletion, load at most 1/4), sized by *resident*
/// objects instead of the id space: it doubles as residency grows and
/// keeps its size across Clear(), so a store rehashes only while it
/// first fills. The dense fast path keeps exactly one predictable
/// branch; the mode is fixed while the index is empty, so a store's
/// stream of operations is wholly one mode or the other.
class SlotIndex {
 public:
  SlotId Get(trace::ObjectId id) const {
    if (!sparse_) return id < slots_.size() ? slots_[id] : kNoSlot;
    return SparseGet(id);
  }

  bool Contains(trace::ObjectId id) const { return Get(id) != kNoSlot; }

  void Set(trace::ObjectId id, SlotId slot) {
    if (sparse_) {
      SparseSet(id, slot);
      return;
    }
    if (id >= slots_.size()) {
      // Geometric growth keeps amortized cost O(1) for ids arriving in
      // ascending order; new entries start empty. After Clear() the
      // table refills the capacity it kept: doubling from the first id
      // seen could overshoot that capacity and reallocate every reused
      // store, so peak memory would depend on whether a store is new.
      const size_t target =
          id < slots_.capacity()
              ? slots_.capacity()
              : std::max<size_t>(static_cast<size_t>(id) + 1,
                                 slots_.size() * 2);
      slots_.resize(target, kNoSlot);
    }
    slots_[id] = slot;
  }

  void Erase(trace::ObjectId id) {
    if (sparse_) {
      SparseErase(id);
      return;
    }
    if (id < slots_.size()) slots_[id] = kNoSlot;
  }

  /// Hints the CPU to pull the id's table entry into cache (read intent,
  /// low temporal locality). The replay loop issues this for the next
  /// request's probes one request ahead, hiding the dependent-load
  /// latency of the per-hop Contains chain. Purely advisory: no state
  /// changes, no effect on results. In sparse mode the id's home bucket
  /// is prefetched (linear probing keeps the chain on following lines).
  void Prefetch(trace::ObjectId id) const {
    if (!sparse_) {
      if (id < slots_.size()) __builtin_prefetch(&slots_[id], 0, 1);
    } else {
      __builtin_prefetch(&buckets_[Home(id)], 0, 1);
    }
  }

  /// Drops every mapping in O(1) (dense: the backing vector's size
  /// resets) or O(buckets) (sparse: refill with the empty sentinel). Both
  /// modes keep their capacity, so steady-state resets (cell to cell,
  /// crash cold restarts) re-fill warm memory without reallocating. The
  /// mode survives Clear.
  void Clear() {
    slots_.clear();
    if (sparse_ && sparse_count_ > 0) {
      std::fill(buckets_.begin(), buckets_.end(), kEmptyBucket);
      sparse_count_ = 0;
    }
  }

  /// Selects dense (default) or sparse storage. Only legal while the
  /// index holds no mappings — stores wire it through right after
  /// construction or Clear(), before any Set.
  void SetSparse(bool sparse) {
    CASCACHE_CHECK(slots_.empty() && sparse_count_ == 0);
    if (sparse_ == sparse) return;
    sparse_ = sparse;
    // A hashed table is never empty of buckets, so probes need no
    // emptiness test; a dense one releases them.
    buckets_ = std::vector<uint64_t>();
    if (sparse_) GrowSparse(kInitialBuckets);
  }

  bool sparse() const { return sparse_; }

  /// Number of id slots (dense) or hash buckets (sparse) the table
  /// currently spans (test/debug helper).
  size_t span() const { return sparse_ ? buckets_.size() : slots_.size(); }

 private:
  /// Packed bucket: id in the high 32 bits, slot in the low 32. A stored
  /// slot is never kNoSlot, so the all-ones sentinel cannot collide with
  /// a real entry (and id 0 / slot 0 packs to 0, distinct from it).
  static constexpr uint64_t kEmptyBucket = ~uint64_t{0};
  static constexpr size_t kInitialBuckets = 1024;
  /// Load cap 1/kMaxLoadInverse. At 1/4, LRU churn's erase-one/insert-one
  /// pairs keep probe chains and backward shifts short enough that hashed
  /// LRU replays measured no slower than dense ones (DESIGN.md, "Sparse
  /// store indexes"); the table costs 32–64 bytes per resident.
  static constexpr size_t kMaxLoadInverse = 4;

  /// Fibonacci hashing: multiply by 2^64/phi and keep the top bits — a
  /// strong-enough mix for sequential ids at one multiply.
  size_t Home(trace::ObjectId id) const {
    return static_cast<size_t>(
        (uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> sparse_shift_);
  }

  SlotId SparseGet(trace::ObjectId id) const {
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) return kNoSlot;
      if ((b >> 32) == id) return static_cast<SlotId>(b);
    }
  }

  void SparseSet(trace::ObjectId id, SlotId slot) {
    CASCACHE_DCHECK(slot != kNoSlot);
    // Grow past the load cap before probing, so insertion always
    // terminates.
    if ((sparse_count_ + 1) * kMaxLoadInverse > buckets_.size()) {
      GrowSparse(buckets_.size() * 2);
    }
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) {
        buckets_[i] = (uint64_t{id} << 32) | slot;
        ++sparse_count_;
        return;
      }
      if ((b >> 32) == id) {
        buckets_[i] = (uint64_t{id} << 32) | slot;
        return;
      }
    }
  }

  void SparseErase(trace::ObjectId id) {
    const size_t mask = mask_;
    size_t i = Home(id);
    while (true) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) return;  // Absent; nothing to erase.
      if ((b >> 32) == id) break;
      i = (i + 1) & mask;
    }
    // Backward-shift deletion: pull displaced entries over the hole so
    // probe chains never need tombstones. An entry at j may move into
    // the hole at i iff its home precedes or equals i along the probe
    // order, i.e. its displacement reaches past the hole.
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      const uint64_t b = buckets_[j];
      if (b == kEmptyBucket) break;
      const size_t home = Home(static_cast<trace::ObjectId>(b >> 32));
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = b;
        i = j;
      }
    }
    buckets_[i] = kEmptyBucket;
    --sparse_count_;
  }

  void GrowSparse(size_t new_buckets) {
    std::vector<uint64_t> old = std::move(buckets_);
    buckets_.assign(new_buckets, kEmptyBucket);
    mask_ = new_buckets - 1;
    sparse_shift_ = 64;
    for (size_t b = new_buckets; b > 1; b >>= 1) --sparse_shift_;
    for (const uint64_t entry : old) {
      if (entry == kEmptyBucket) continue;
      size_t i = Home(static_cast<trace::ObjectId>(entry >> 32));
      while (buckets_[i] != kEmptyBucket) i = (i + 1) & mask_;
      buckets_[i] = entry;
    }
  }

  std::vector<SlotId> slots_;

  bool sparse_ = false;
  std::vector<uint64_t> buckets_;  ///< Power-of-two size; kEmptyBucket = free.
  size_t mask_ = 0;                ///< buckets_.size() - 1.
  size_t sparse_count_ = 0;
  unsigned sparse_shift_ = 0;  ///< 64 - log2(buckets_.size()).
};

/// Fixed-chunk slot pool with a free list. Objects live in contiguous
/// chunks, so slot access is two array hops; chunks are never moved or
/// freed before Clear()/destruction, which makes `&pool.at(slot)` stable
/// across Alloc — callers (the cache node, schemes) may hold
/// ObjectDescriptor pointers across later insertions.
///
/// Alloc() returns a slot with *stale* contents; callers must fully
/// assign it. Clear() recycles every slot but keeps the chunks, so a
/// reset store re-fills warm memory.
template <typename T, size_t kChunkSize = 256>
class ChunkedSlotPool {
  static_assert((kChunkSize & (kChunkSize - 1)) == 0,
                "chunk size must be a power of two");

 public:
  SlotId Alloc() {
    if (!free_.empty()) {
      const SlotId slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return static_cast<SlotId>(size_++);
  }

  void Free(SlotId slot) {
    CASCACHE_DCHECK(slot < size_);
    free_.push_back(slot);
  }

  T& at(SlotId slot) {
    CASCACHE_DCHECK(slot < size_);
    return chunks_[slot / kChunkSize][slot & (kChunkSize - 1)];
  }
  const T& at(SlotId slot) const {
    CASCACHE_DCHECK(slot < size_);
    return chunks_[slot / kChunkSize][slot & (kChunkSize - 1)];
  }

  /// Recycles all slots without releasing chunk memory.
  void Clear() {
    free_.clear();
    size_ = 0;
  }

  /// High-water slot count (allocated, including freed slots).
  size_t slot_span() const { return size_; }
  size_t free_count() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<SlotId> free_;
  size_t size_ = 0;
};

/// Flat id→value map over the dense ObjectId space: a SlotIndex plus
/// vector-backed value slots with a free list. Pointers returned by Find
/// are invalidated by later InsertOrAssign (vector growth); use
/// ChunkedSlotPool-based storage where stability matters. Replaces
/// incidental `unordered_map<ObjectId, T>` tables on the hot path (copy
/// freshness stamps).
template <typename T>
class FlatIdMap {
 public:
  T* Find(trace::ObjectId id) {
    const SlotId slot = index_.Get(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }
  const T* Find(trace::ObjectId id) const {
    const SlotId slot = index_.Get(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }

  bool Contains(trace::ObjectId id) const { return index_.Contains(id); }

  /// Returns the value slot for `id`, creating it if absent. The slot's
  /// previous contents are unspecified when newly created; assign it.
  T& InsertOrAssign(trace::ObjectId id) {
    SlotId slot = index_.Get(id);
    if (slot == kNoSlot) {
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
      } else {
        slot = static_cast<SlotId>(values_.size());
        values_.emplace_back();
      }
      index_.Set(id, slot);
      ++count_;
    }
    return values_[slot];
  }

  bool Erase(trace::ObjectId id) {
    const SlotId slot = index_.Get(id);
    if (slot == kNoSlot) return false;
    index_.Erase(id);
    free_.push_back(slot);
    --count_;
    return true;
  }

  void Clear() {
    index_.Clear();
    values_.clear();
    free_.clear();
    count_ = 0;
  }

  /// Forwards the id-index storage mode (see SlotIndex::SetSparse); the
  /// map must be empty.
  void SetSparse(bool sparse) {
    CASCACHE_CHECK(count_ == 0);
    index_.SetSparse(sparse);
  }

  size_t size() const { return count_; }

 private:
  SlotIndex index_;
  std::vector<T> values_;
  std::vector<SlotId> free_;
  size_t count_ = 0;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_FLAT_STORE_H_
