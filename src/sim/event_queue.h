// A stable-order discrete-event queue.
//
// Events with equal timestamps fire in insertion order (FIFO), which keeps
// runs bit-for-bit reproducible regardless of the queue's internals.
//
// Layout: tiny trivially-copyable {when, seq, slot} entries are ordered by
// a two-level calendar wheel backed by a small min-heap; the closures
// themselves (InplaceFunction, no heap allocation) live in a chunked slab
// of reusable slots referenced by index, so ordering moves 16-byte PODs —
// never a closure.
//
//   - The wheel's first level covers the near horizon (1024 buckets of
//     256 us, one span of ~262 ms): an event lands in the bucket of its
//     timestamp, the bucket is sorted by (when, seq) when it becomes
//     current, and pops just advance a cursor — amortized O(1) against
//     the O(log n) sift of a pure heap. Request traffic (inter-event gaps
//     of ~100 us) lives entirely here.
//   - The second level holds the next ~268 s: 1024 blocks, each one span
//     wide and aligned on multiples of it. A push lands in its block in
//     O(1); when the wheel steps onto a block's first microsecond it moves
//     the block's entries into their 256 us buckets, before that first
//     bucket is sorted. Measurement and placement ticks and the FCFS
//     completions behind saturated hosts (Fig. 9) wait here.
//   - A 4-ary min-heap of the same entries keeps the rest: events beyond
//     the second level, and pushes made earlier than the last pop (a
//     replay that rewinds its clock).
//
// There is one way out: PopEntryIfNotAfter(until) removes the global
// (when, seq) minimum over the wheel, the heap and the pinned streams
// (below) unless it is after `until`. The wheel never runs ahead of the
// clock: a pop settles it no further than the bucket of the earliest of
// `until`, the heap's top and the streams' head — the time the caller's
// clock reaches next — so every event the caller then schedules lands at
// or after the wheel's current bucket. Every pop compares all three
// residences with one comparator, so the pop sequence is identical to
// any conforming heap's.
//
// Slab chunks never move once allocated, so a closure is *invoked in
// place* (InvokeAndReleaseSlot) even while it pushes new events: the
// simulation's run loop executes each event with zero closure moves.
// Each slot is one 64-byte-aligned cache line, and a slot is prefetched
// ahead of its firing in two places: when a second-level block moves
// into the first level, and when a pop leaves the next entry of the
// current bucket at the cursor. A prefetch only warms a line; it moves
// no entry and no sequence number.
// Released slots are recycled through a free list, the 256 us buckets
// keep their capacity across laps, and the slab stops growing once the
// run's peak event population is reached. Only a block gives its storage
// back once it has cascaded, so the second level holds memory only for
// the events actually waiting in it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/inplace_function.h"

namespace radar::sim {

// 48-byte capture capacity + the ops pointer = a 64-byte closure, which
// the slab stores in a 64-byte-aligned cell (EventQueue::SlotCell): every
// event closure occupies exactly one cache line. Oversized captures are a
// compile error (can_hold) — capture pointers, not objects, or split the
// event.
using EventFn = InplaceFunction<void(), 48>;

class EventQueue {
 public:
  EventQueue();

  /// Enqueues an event at absolute time `when` (must be >= 0). The callable
  /// is constructed directly in its slab slot (EventFn's converting
  /// assignment), so a lambda passed here is moved exactly once.
  // RADAR_HOT: event push inline path
  template <class F>
  void Push(SimTime when, F&& fn) {
    RADAR_CHECK_GE(when, 0);
    const std::uint32_t slot = AcquireSlot();
    SlotRef(slot) = std::forward<F>(fn);
    PushEntry(Entry{when, (next_seq_++ << kSlotBits) | slot});
  }
  // RADAR_HOT_END

  /// Removes the earliest pending event (pushed or stream firing) into
  /// {*when, *slot} and returns true, unless nothing is pending or that
  /// event is after `until`; then it removes nothing and returns false.
  /// The caller runs the event with InvokeAndReleaseSlot(*slot):
  ///
  ///   while (q.PopEntryIfNotAfter(until, &when, &slot)) {
  ///     q.InvokeAndReleaseSlot(slot);  // may Push further events
  ///   }
  ///
  /// Settles the wheel no further than the bucket of min(`until`, heap
  /// top, stream head), so pushes made at or after the popped time — or
  /// at or after `until` when it returns false — never land behind it.
  bool PopEntryIfNotAfter(SimTime until, SimTime* when, std::uint32_t* slot);

  /// Runs the closure held in `slot` (from PopEntryIfNotAfter), then
  /// destroys it and returns the slot to the free list. The reference
  /// stays valid across the call even when the closure pushes events
  /// (chunks never relocate). Stream firings (slots tagged kStreamTag)
  /// invoke the registered closure in place — nothing to destroy or
  /// recycle.
  // RADAR_HOT: event invoke/release inline path
  void InvokeAndReleaseSlot(std::uint32_t slot) {
    if ((slot & kStreamTag) != 0) {
      streams_[slot & ~kStreamTag]();
      return;
    }
    EventFn& fn = SlotRef(slot);
    fn();
    fn.Reset();
    free_slots_.push_back(slot);
  }
  // RADAR_HOT_END

  // -- Pinned periodic streams --
  //
  // A stream is a closure registered once whose firings bypass the slot
  // slab and the wheel: arming a stream appends one 16-byte entry to a
  // small sorted ring — no slot acquire, no closure construct/destroy. Each
  // ArmStream reserves the next sequence number exactly as Push would, so
  // a stream firing occupies the same place in the global (when, seq)
  // order as the equivalent Push — the pop sequence is indistinguishable.
  // Built for the driver's deterministic gateway arrivals: one armed
  // entry per gateway at any time, re-armed from inside the closure.

  /// Marks a slot value returned by PopEntryIfNotAfter as a stream id.
  static constexpr std::uint32_t kStreamTag = 0x80000000u;

  /// Registers a stream closure; returns its id. The closure is invoked
  /// with no arguments on every firing (read the clock for the time).
  std::uint32_t AddStream(EventFn fn);

  /// Schedules the stream's next firing at absolute time `when`. The
  /// stream must not already be armed.
  void ArmStream(std::uint32_t id, SimTime when);

 private:
  // A 16-byte entry: the insertion sequence number lives in the high 40
  // bits of seq_slot and the slab slot index in the low 24 (>= 16M
  // simultaneously pending events). Comparing seq_slot compares seq first;
  // the slot bits can never decide an ordering because sequence numbers
  // are unique — (when, seq) is a total order.
  struct Entry {
    SimTime when;
    std::uint64_t seq_slot;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq_slot < b.seq_slot;
  }

  // Calendar wheel, first level: kWheelBuckets buckets of kBucketWidth
  // microseconds. wheel_time_ is the (aligned) start of the current
  // bucket, never past the caller's clock; cursor_ is the consumed prefix
  // of that bucket. The current bucket is always sorted; future buckets
  // accumulate unsorted and are sorted once, when they become current.
  // wheel_count_ counts unconsumed first-level entries; when it is 0,
  // every bucket is empty and cursor_ is 0 (pops clear a consumed
  // current bucket eagerly).
  static constexpr int kBucketShift = 8;  // 256 us per bucket
  static constexpr int kWheelBits = 10;   // 1024 buckets, ~262 ms span
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
  static constexpr SimTime kBucketWidth = SimTime{1} << kBucketShift;
  static constexpr SimTime kWheelSpan =
      kBucketWidth * static_cast<SimTime>(kWheelBuckets);
  using Bucket = std::vector<Entry>;

  // Second level: kWheelBuckets blocks, block b holding the entries in
  // [b * kWheelSpan, (b + 1) * kWheelSpan), ~268 s in all. An entry waits
  // here when it is at least a span past wheel_time_ and its block is
  // fewer than kWheelBuckets blocks past the current one (so no block
  // holds two laps); block_count_ counts them.
  static constexpr int kBlockShift = kBucketShift + kWheelBits;

  std::size_t BucketIdx(SimTime when) const {
    return static_cast<std::size_t>(when >> kBucketShift) &
           (kWheelBuckets - 1);
  }
  std::size_t CurIdx() const { return BucketIdx(wheel_time_); }
  bool InWheelRange(SimTime when) const {
    return when >= wheel_time_ && when - wheel_time_ < kWheelSpan;
  }
  Bucket& Block(SimTime block) {
    return blocks_[static_cast<std::size_t>(block) & (kWheelBuckets - 1)];
  }

  void PushEntry(const Entry& e);
  /// Moves the entries of the block starting at wheel_time_ (a multiple
  /// of kWheelSpan) into their first-level buckets and frees its storage.
  /// Runs once per span, so it stays out of line: inlined, it bloats the
  /// stepping loop that calls it (~2% of a UUNET run's wall time).
  [[gnu::noinline]] void CascadeBlock();
  /// Advances the wheel from a consumed current bucket to its earliest
  /// unconsumed entry and returns that bucket, or nullptr when no entry
  /// of either level lies in or before the bucket of `bound`; the wheel
  /// then rests on that bucket at most.
  Bucket* SettleWheel(SimTime bound);

  // 4-ary min-heap primitives of the far heap.
  static constexpr std::size_t kArity = 4;
  static void SiftUp(std::vector<Entry>& heap, std::size_t i);
  static void SiftDown(std::vector<Entry>& heap, std::size_t i);

  // Slot slab: fixed-size chunks that never relocate, so closures have
  // stable addresses for in-place invocation. A chunk is an array of
  // cells aligned to a cache line: EventFn itself is only 16-aligned, and
  // an array of it from the default allocator starts wherever malloc
  // puts it, so most slots would straddle two lines — the ops pointer in
  // one, the capture's tail in the next — and a prefetch would fetch
  // half a slot.
  struct alignas(64) SlotCell {
    EventFn fn;
  };
  static_assert(sizeof(SlotCell) == 64, "a slot is one cache line");
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  EventFn& SlotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)].fn;
  }
  /// Starts loading the slot of a wheel entry (never a stream firing)
  /// into the cache ahead of its invocation.
  void PrefetchSlot(const Entry& e) {
    __builtin_prefetch(
        &SlotRef(static_cast<std::uint32_t>(e.seq_slot & kSlotMask)));
  }
  /// Returns an empty slot (recycled or freshly carved from a chunk).
  std::uint32_t AcquireSlot();

  std::vector<Bucket> buckets_;
  SimTime wheel_time_ = 0;
  std::size_t cursor_ = 0;
  std::size_t wheel_count_ = 0;
  std::vector<Bucket> blocks_;
  std::size_t block_count_ = 0;
  std::vector<Entry> far_;

  std::vector<std::unique_ptr<SlotCell[]>> chunks_;
  std::uint32_t num_slots_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;

  // Pinned streams: registered closures plus a sorted ring of armed
  // firings (Entry reused with the stream id in the slot bits), earliest
  // at stream_head_. One armed entry per stream, and a re-armed firing
  // lands one full period after the firing that arms it — at or past the
  // ring's tail — so arming is an append (one comparison) and popping
  // advances a cursor; out-of-order arms fall back to an insertion
  // shift. Capacity is a power of two (index masking), grown on demand.
  const Entry& StreamFront() const { return stream_ring_[stream_head_]; }
  void PopStreamFront() {
    stream_head_ = (stream_head_ + 1) & (stream_ring_.size() - 1);
    --stream_count_;
  }
  void GrowStreamRing();

  std::vector<EventFn> streams_;
  std::vector<Entry> stream_ring_;
  std::size_t stream_head_ = 0;
  std::size_t stream_count_ = 0;
};

}  // namespace radar::sim
