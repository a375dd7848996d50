// A stable-order discrete-event queue.
//
// Events with equal timestamps fire in insertion order (FIFO), which keeps
// runs bit-for-bit reproducible regardless of the queue's internals.
//
// Layout: tiny trivially-copyable {when, seq, slot} entries are ordered by
// a calendar wheel backed by a small min-heap; the closures themselves
// (InplaceFunction, no heap allocation) live in a chunked slab of reusable
// slots referenced by index, so ordering moves 16-byte PODs — never a
// closure.
//
//   - The wheel covers the near horizon (1024 buckets of 256 us, ~262 ms):
//     an event lands in the bucket of its timestamp, the bucket is sorted
//     by (when, seq) when it becomes current, and pops just advance a
//     cursor — amortized O(1) against the O(log n) sift of a pure heap.
//     Request traffic (inter-event gaps of ~100 us) lives entirely here.
//   - Events beyond the horizon — and events scheduled behind a wheel
//     that has already advanced — go to a 4-ary min-heap of the same
//     entries. The front of the wheel and the top of the heap are compared
//     on every pop, so the queue always yields the global (when, seq)
//     minimum: the pop sequence is identical to any conforming heap's.
//     Long-period ticks (measurement, placement, census) idle here instead
//     of adding depth to every request-event sift.
//
// Slab chunks never move once allocated, so a closure can be *invoked in
// place* (PopEntry / InvokeSlot / ReleaseSlot) even while it pushes new
// events: the simulation's run loop executes each event with zero closure
// moves. Steady-state operation performs no allocation at all — released
// slots are recycled through a free list, bucket vectors keep their
// capacity across laps, and the slab stops growing once the run's peak
// event population is reached.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/inplace_function.h"

namespace radar::sim {

// 48-byte capture capacity + the ops pointer = a 64-byte slot: every
// event closure occupies exactly one cache line in the slab. Oversized
// captures are a compile error (can_hold) — capture pointers, not
// objects, or split the event.
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

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Requires !empty(). May advance
  /// the wheel over empty buckets (never past a pending event).
  SimTime NextTime();

  /// Removes and returns the earliest event. Requires !empty().
  std::pair<SimTime, EventFn> Pop();

  // -- In-place execution (the simulation run loop) --
  //
  // PopEntry removes the earliest entry but leaves its closure in the
  // slab; the caller invokes it in place and then releases the slot:
  //
  //   const auto [when, slot] = q.PopEntry();
  //   q.InvokeSlot(slot);    // may Push further events; the slab is stable
  //   q.ReleaseSlot(slot);   // destroys the closure, recycles the slot
  //
  // This skips the move-out + moved-from destruction that Pop() pays.

  /// Removes the earliest entry, returning {when, slot}. Requires !empty().
  std::pair<SimTime, std::uint32_t> PopEntry();

  /// Fused peek + pop for the run loop: removes the earliest entry into
  /// {*when, *slot} and returns true, unless the queue is empty or that
  /// entry is after `until` (then nothing is removed and it returns
  /// false). Equivalent to `!empty() && NextTime() <= until` followed by
  /// PopEntry(), but settles the wheel once instead of twice — the run
  /// loop's per-event ordering work, halved.
  bool PopEntryIfNotAfter(SimTime until, SimTime* when, std::uint32_t* slot);

  /// Runs the closure held in `slot` (which must come from PopEntry).
  void InvokeSlot(std::uint32_t slot) { SlotRef(slot)(); }

  /// Destroys the closure in `slot` and returns the slot to the free list.
  void ReleaseSlot(std::uint32_t slot);

  /// InvokeSlot + ReleaseSlot with one slab address computation. The
  /// reference stays valid across the call even when the closure pushes
  /// events (chunks never relocate). Stream firings (slots tagged
  /// kStreamTag by PopEntryIfNotAfter) invoke the registered closure in
  /// place — nothing to destroy or recycle.
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
  // Streams participate only in PopEntryIfNotAfter (the run-loop path);
  // NextTime/Pop/PopEntry and size() do not see them.

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

  // Calendar wheel: kWheelBuckets buckets of kBucketWidth microseconds.
  // wheel_time_ is the (aligned) start of the current bucket; cursor_ is
  // the consumed prefix of that bucket. The current bucket is always
  // sorted; future buckets accumulate unsorted and are sorted once, when
  // they become current. wheel_count_ counts unconsumed wheel entries.
  static constexpr int kBucketShift = 8;  // 256 us per bucket
  static constexpr int kWheelBits = 10;   // 1024 buckets, ~262 ms span
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
  static constexpr SimTime kBucketWidth = SimTime{1} << kBucketShift;
  static constexpr SimTime kWheelSpan =
      kBucketWidth * static_cast<SimTime>(kWheelBuckets);
  using Bucket = std::vector<Entry>;

  std::size_t BucketIdx(SimTime when) const {
    return static_cast<std::size_t>(when >> kBucketShift) &
           (kWheelBuckets - 1);
  }
  std::size_t CurIdx() const { return BucketIdx(wheel_time_); }
  bool InWheelRange(SimTime when) const {
    return when >= wheel_time_ && when < wheel_time_ + kWheelSpan;
  }

  void PushEntry(const Entry& e);
  /// Advances the wheel to its earliest unconsumed entry and returns its
  /// bucket, or nullptr if the wheel is empty.
  Bucket* SettleWheel();

  // 4-ary min-heap primitives, shared by the far heap and the stream heap.
  static constexpr std::size_t kArity = 4;
  static void SiftUp(std::vector<Entry>& heap, std::size_t i);
  static void SiftDown(std::vector<Entry>& heap, std::size_t i);

  // Slot slab: fixed-size chunks that never relocate, so closures have
  // stable addresses for in-place invocation.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  EventFn& SlotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  /// Returns an empty slot (recycled or freshly carved from a chunk).
  std::uint32_t AcquireSlot();

  std::vector<Bucket> buckets_;
  SimTime wheel_time_ = 0;
  std::size_t cursor_ = 0;
  std::size_t wheel_count_ = 0;
  std::vector<Entry> far_;
  std::size_t size_ = 0;

  std::vector<std::unique_ptr<EventFn[]>> chunks_;
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
