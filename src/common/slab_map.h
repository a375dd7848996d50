// SlabMap: an integer-key map with never-relocating storage.
//
// The protocol's per-object tables (host replica records, redirector
// entries, consistency state) are keyed by small non-negative integers —
// ObjectIds handed out contiguously from zero. A general hash map pays
// for that simplicity three times over: a hash + probe per lookup, a heap
// node per entry, and a pointer chase per iteration step. SlabMap spends
// one vector index instead:
//
//   - values live in fixed-size chunks that never move once allocated, so
//     a reference (or a parallel-array row keyed by the same handle) stays
//     valid for the value's whole lifetime, across any number of inserts;
//   - an index maps key -> handle for O(1) lookup (see the policies
//     below);
//   - an active list of handles supports compact iteration over live
//     entries; erasure is swap-with-last, so erase is O(1) and iteration
//     cost tracks the live population, not the key-space size;
//   - erased slots are recycled through a free list, so steady-state
//     churn performs no allocation and capacity is bounded by the peak
//     population, never by cumulative inserts.
//
// Index policies. DenseSlabIndex (the default) is one flat vector sized
// to the largest key seen: O(1) lookup with zero hashing, ideal for the
// platform-global tables whose keys cover [0, num_objects) anyway. It is
// the wrong shape for per-node tables at Internet scale: with objects
// dealt round-robin over n hosts, every host's key set is a stride-n
// sample of the whole id space, so each of n agents would pay the full
// num_objects-entry vector — an n x objects blow-up (~4 GB at 10k nodes x
// 100k objects) for maps that each hold a few dozen entries.
// HashSlabIndex replaces the vector with a small open-addressed table
// (power-of-two capacity, linear probing) whose footprint tracks the live
// population. The index only serves point lookups — iteration goes
// through the active list or sorted keys — so hashing cannot perturb any
// deterministic ordering.
//
// Handles are 32-bit slot indices, stable until the key is erased. Callers
// that hang per-entry data off handles (structure-of-arrays layouts) size
// their arrays to slot_capacity(), which only ever grows.
//
// T must be default-constructible and move-assignable; Erase resets the
// slot to T{} so recycled slots never leak prior state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace radar {

/// Dense key -> handle index: one vector entry per key in [0, max key].
/// Lookup is a single load; memory is proportional to the key-space span.
class DenseSlabIndex {
 public:
  static constexpr std::uint32_t kNoHandle = 0xFFFFFFFFu;

  std::uint32_t Get(std::int64_t key) const {
    const auto i = static_cast<std::size_t>(key);
    return i < index_.size() ? index_[i] : kNoHandle;
  }

  void Set(std::int64_t key, std::uint32_t handle) {
    const auto i = static_cast<std::size_t>(key);
    if (i >= index_.size()) index_.resize(i + 1, kNoHandle);
    index_[i] = handle;
  }

  void Erase(std::int64_t key) {
    index_[static_cast<std::size_t>(key)] = kNoHandle;
  }

 private:
  std::vector<std::uint32_t> index_;
};

/// Open-addressed key -> handle index (linear probing, power-of-two
/// capacity, tombstone erase). Memory tracks the live population, not the
/// key-space span — the right shape for per-node maps whose few keys are
/// scattered across a huge object-id space.
class HashSlabIndex {
 public:
  static constexpr std::uint32_t kNoHandle = 0xFFFFFFFFu;

  std::uint32_t Get(std::int64_t key) const {
    if (keys_.empty()) return kNoHandle;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) return handles_[i];
      if (keys_[i] == kEmpty) return kNoHandle;
    }
  }

  void Set(std::int64_t key, std::uint32_t handle) {
    // Grow at 3/4 occupancy counting tombstones, so probe chains stay
    // short and a churn-heavy map periodically compacts itself.
    if ((used_ + 1) * 4 > keys_.size() * 3) Rehash();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == kEmpty || keys_[i] == kTombstone) {
        if (keys_[i] == kEmpty) ++used_;
        keys_[i] = key;
        handles_[i] = handle;
        ++size_;
        return;
      }
    }
  }

  void Erase(std::int64_t key) {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) {
        keys_[i] = kTombstone;
        --size_;
        return;
      }
      RADAR_CHECK_MSG(keys_[i] != kEmpty, "HashSlabIndex key not present");
    }
  }

 private:
  // Keys are object ids (>= 0), so negative sentinels are free.
  static constexpr std::int64_t kEmpty = -1;
  static constexpr std::int64_t kTombstone = -2;

  static std::size_t Hash(std::int64_t key) {
    // splitmix64 finalizer: cheap and well-mixed for sequential ids.
    auto x = static_cast<std::uint64_t>(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  void Rehash() {
    // Double when genuinely half full; otherwise rebuild at the same
    // capacity, which drops the tombstones.
    std::size_t new_cap = std::max<std::size_t>(16, keys_.size());
    if ((size_ + 1) * 2 > new_cap) new_cap *= 2;
    std::vector<std::int64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_handles = std::move(handles_);
    keys_.assign(new_cap, kEmpty);
    handles_.assign(new_cap, kNoHandle);
    used_ = size_;
    size_ = 0;
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] < 0) continue;
      for (std::size_t j = Hash(old_keys[i]) & mask;; j = (j + 1) & mask) {
        if (keys_[j] == kEmpty) {
          keys_[j] = old_keys[i];
          handles_[j] = old_handles[i];
          ++size_;
          break;
        }
      }
    }
  }

  std::vector<std::int64_t> keys_;        // kEmpty / kTombstone / a key
  std::vector<std::uint32_t> handles_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones
};

template <class T, std::uint32_t ChunkShift = 8, class Index = DenseSlabIndex>
class SlabMap {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNoHandle = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkShift = ChunkShift;
  static constexpr std::uint32_t kChunkSize = 1u << ChunkShift;

  std::size_t size() const { return active_.size(); }
  bool empty() const { return active_.empty(); }

  /// Total slots ever carved (== the high-water population). Parallel
  /// arrays keyed by handle are sized to this.
  std::uint32_t slot_capacity() const { return num_slots_; }

  /// O(1): handle of `key`, or kNoHandle when absent.
  Handle HandleOf(std::int64_t key) const { return index_.Get(key); }

  bool Contains(std::int64_t key) const { return HandleOf(key) != kNoHandle; }

  T& At(Handle h) { return SlotRef(h); }
  const T& At(Handle h) const { return SlotRef(h); }

  /// Key stored in slot `h` (any h below slot_capacity()): -1 while the
  /// slot is free, so a stale handle never reads as a live key.
  std::int64_t KeyAt(Handle h) const {
    return keys_[static_cast<std::size_t>(h)];
  }

  T* Find(std::int64_t key) {
    const Handle h = HandleOf(key);
    return h == kNoHandle ? nullptr : &SlotRef(h);
  }
  const T* Find(std::int64_t key) const {
    const Handle h = HandleOf(key);
    return h == kNoHandle ? nullptr : &SlotRef(h);
  }

  /// Inserts `key` (>= 0, must not be present); returns the handle of a
  /// slot holding a default-constructed T. The handle stays valid — and
  /// the value's address stays fixed — until Erase(key).
  Handle Insert(std::int64_t key) {
    RADAR_CHECK_GE(key, 0);
    RADAR_CHECK_MSG(index_.Get(key) == kNoHandle,
                    "SlabMap key already present");
    Handle h;
    if (!free_slots_.empty()) {
      h = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if ((num_slots_ & (kChunkSize - 1)) == 0) {
        chunks_.push_back(std::make_unique<T[]>(kChunkSize));
        keys_.resize(keys_.size() + kChunkSize, -1);
        active_pos_.resize(active_pos_.size() + kChunkSize, 0);
      }
      h = num_slots_++;
    }
    index_.Set(key, h);
    keys_[static_cast<std::size_t>(h)] = key;
    active_pos_[static_cast<std::size_t>(h)] =
        static_cast<std::uint32_t>(active_.size());
    active_.push_back(h);
    return h;
  }

  /// Erases `key` (must be present): swap-with-last on the active list,
  /// slot reset to T{} and recycled. O(1).
  void Erase(std::int64_t key) {
    const Handle h = HandleOf(key);
    RADAR_CHECK_MSG(h != kNoHandle, "SlabMap key not present");
    index_.Erase(key);
    const std::uint32_t pos = active_pos_[static_cast<std::size_t>(h)];
    active_[pos] = active_.back();
    active_pos_[static_cast<std::size_t>(active_[pos])] = pos;
    active_.pop_back();
    keys_[static_cast<std::size_t>(h)] = -1;
    SlotRef(h) = T{};
    free_slots_.push_back(h);
  }

  /// Live handles in active-list order (insertion order until erases
  /// permute it). Entries are independent for every current use; callers
  /// needing a canonical order iterate keys ascending instead.
  const std::vector<Handle>& active() const { return active_; }

  /// Calls fn(key, handle) for every live entry, ascending by key. The
  /// order is derived from the stored keys (sorted into a reused scratch
  /// buffer), so it is identical under every index policy.
  template <class Fn>
  void ForEachKeyAscending(Fn&& fn) const {
    scratch_ = active_;
    std::sort(scratch_.begin(), scratch_.end(),
              [this](Handle a, Handle b) { return KeyAt(a) < KeyAt(b); });
    for (const Handle h : scratch_) fn(KeyAt(h), h);
  }

 private:
  T& SlotRef(Handle h) {
    return chunks_[h >> kChunkShift][h & (kChunkSize - 1)];
  }
  const T& SlotRef(Handle h) const {
    return chunks_[h >> kChunkShift][h & (kChunkSize - 1)];
  }

  Index index_;                    // key -> handle
  std::vector<Handle> active_;     // live handles, swap-with-last erase
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::int64_t> keys_;        // per-slot key (-1 when free)
  std::vector<std::uint32_t> active_pos_; // per-slot position in active_
  std::vector<Handle> free_slots_;
  std::uint32_t num_slots_ = 0;
  mutable std::vector<Handle> scratch_;   // ForEachKeyAscending ordering
};

}  // namespace radar
