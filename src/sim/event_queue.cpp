#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace radar::sim {

EventQueue::EventQueue() : buckets_(kWheelBuckets), blocks_(kWheelBuckets) {}

// RADAR_HOT: event queue push/settle/sift
void EventQueue::PushEntry(const Entry& e) {
  if (e.when < wheel_time_ && wheel_count_ == 0 && block_count_ == 0) {
    // A push made before the last pop (a replay that rewound its clock)
    // finds both levels empty, so the wheel can move back onto it instead
    // of sending it — and what follows it — to the heap.
    wheel_time_ = e.when & ~(kBucketWidth - 1);
  }
  if (InWheelRange(e.when)) {
    ++wheel_count_;
    Bucket& b = buckets_[BucketIdx(e.when)];
    if (BucketIdx(e.when) == CurIdx()) {
      // The current bucket is sorted and partially consumed; splice the
      // entry into the unconsumed tail to keep it that way. (A fresh
      // entry's seq exceeds every pending one, so ties sort after.)
      b.insert(std::upper_bound(b.begin() +
                                    static_cast<std::ptrdiff_t>(cursor_),
                                b.end(), e, Earlier),
               e);
    } else {
      b.push_back(e);  // sorted later, when the bucket becomes current
    }
  } else if (e.when >= wheel_time_ &&
             (e.when >> kBlockShift) - (wheel_time_ >> kBlockShift) <
                 static_cast<SimTime>(kWheelBuckets)) {
    // Past the first level but within the second: its block keeps it,
    // unsorted, until the wheel steps onto the block's first microsecond.
    ++block_count_;
    Block(e.when >> kBlockShift).push_back(e);
  } else {
    // Beyond the second level, or made before the last pop while the
    // wheel held entries. Either way the heap keeps it, and pops compare
    // every residence.
    far_.push_back(e);
    SiftUp(far_, far_.size() - 1);
  }
}

void EventQueue::CascadeBlock() {
  // The block spans exactly the wheel's range now, so every entry lands
  // in the bucket of its timestamp on the current lap; the buckets past
  // the first are sorted when they become current, like any other. Each
  // entry was pushed at least a span before it fires, so its slot has
  // likely left the cache: start loading it now.
  Bucket& block = Block(wheel_time_ >> kBlockShift);
  for (const Entry& e : block) {
    buckets_[BucketIdx(e.when)].push_back(e);
    PrefetchSlot(e);
  }
  wheel_count_ += block.size();
  block_count_ -= block.size();
  Bucket().swap(block);
}

EventQueue::Bucket* EventQueue::SettleWheel(SimTime bound) {
  const SimTime last = bound & ~(kBucketWidth - 1);  // bound's bucket
  if (wheel_count_ == 0) {
    // The first level is empty: jump instead of stepping 256 us at a
    // time, to whichever comes first — the next block that holds entries
    // (every one is fewer than kWheelBuckets blocks ahead) or the bound's
    // bucket. Every block passed over is empty. The jump lands one bucket
    // short, so the step below cascades a block it lands on and sorts the
    // bucket like any other.
    SimTime to = last;
    if (block_count_ != 0) {
      for (SimTime block = (wheel_time_ >> kBlockShift) + 1;
           block <= (last >> kBlockShift); ++block) {
        if (!Block(block).empty()) {
          to = block << kBlockShift;
          break;
        }
      }
    }
    if (to > wheel_time_) wheel_time_ = to - kBucketWidth;
  }
  Bucket* cur = &buckets_[CurIdx()];
  while (cursor_ >= cur->size()) {
    // The next bucket starts past the bound: nothing in the wheel is due
    // by then, and the wheel must not pass the caller's next clock value.
    if (wheel_time_ >= last) return nullptr;
    cur->clear();
    cursor_ = 0;
    wheel_time_ += kBucketWidth;
    // Stepping onto a block boundary: the block joins the first level
    // before its first bucket is sorted, so entries that waited there and
    // entries pushed straight into that bucket sort together.
    if ((wheel_time_ & (kWheelSpan - 1)) == 0) CascadeBlock();
    cur = &buckets_[CurIdx()];
    if (cur->size() > 1) std::sort(cur->begin(), cur->end(), Earlier);
  }
  return cur;
}

void EventQueue::SiftUp(std::vector<Entry>& heap, std::size_t i) {
  const Entry e = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Earlier(e, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}

// Bottom-up variant: the element being sifted comes from the heap's back,
// i.e. a leaf, and is almost always later than everything on its path; the
// classic top-down sift would compare it at every level only to keep
// descending. Instead, pull the min-child chain up unconditionally to the
// bottom, then bubble the element the (usually zero) levels back up. Both
// variants produce valid heaps over the same elements, and the pop order
// depends only on the (when, seq) total order — never on layout — so this
// is invisible to simulation results.
void EventQueue::SiftDown(std::vector<Entry>& heap, std::size_t i) {
  const Entry e = heap[i];
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap[c], heap[best])) best = c;
    }
    heap[i] = heap[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Earlier(e, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}
// RADAR_HOT_END

// Slot-slab growth is the cold path of Push (amortized away by the free
// list), so it sits outside the hot regions: its chunk allocation is
// legitimate.
std::uint32_t EventQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  RADAR_CHECK_LT(num_slots_, kSlotMask);
  if ((num_slots_ >> kChunkShift) ==
      static_cast<std::uint32_t>(chunks_.size())) {
    chunks_.push_back(std::make_unique<SlotCell[]>(kChunkSize));
  }
  return num_slots_++;
}

// RADAR_HOT: event queue pop
bool EventQueue::PopEntryIfNotAfter(SimTime until, SimTime* when,
                                    std::uint32_t* slot) {
  Bucket* cur = &buckets_[CurIdx()];
  if (cursor_ >= cur->size()) {
    // The current bucket is consumed. The caller's clock reaches the
    // earliest of these next, so the wheel settles no further.
    SimTime bound = until;
    if (!far_.empty()) bound = std::min(bound, far_.front().when);
    if (stream_count_ != 0) bound = std::min(bound, StreamFront().when);
    cur = SettleWheel(bound);
  }
  // Global minimum over the three residences: wheel-current (the earliest
  // entry of both wheel levels, if one is due by the bound), far-heap
  // front, stream-ring head. Seqs are unique, so strict Earlier chains
  // pick the same entry regardless of comparison order.
  const Entry* best = cur != nullptr ? &(*cur)[cursor_] : nullptr;
  const bool from_far =
      !far_.empty() && (best == nullptr || Earlier(far_.front(), *best));
  if (from_far) best = &far_.front();
  const bool from_stream =
      stream_count_ != 0 &&
      (best == nullptr || Earlier(StreamFront(), *best));
  if (from_stream) best = &StreamFront();
  if (best == nullptr || best->when > until) return false;
  *when = best->when;
  if (from_stream) {
    *slot = static_cast<std::uint32_t>(best->seq_slot & kSlotMask) |
            kStreamTag;
    PopStreamFront();
    return true;
  }
  *slot = static_cast<std::uint32_t>(best->seq_slot & kSlotMask);
  if (from_far) {
    far_.front() = far_.back();
    far_.pop_back();
    if (!far_.empty()) SiftDown(far_, 0);
  } else {
    ++cursor_;
    --wheel_count_;
    if (cursor_ == cur->size()) {
      // Eager clear: the bucket stays current (new same-bucket pushes may
      // still arrive) but its storage — and capacity — are reusable now.
      cur->clear();
      cursor_ = 0;
    } else {
      // The next pop most likely takes this entry; its slot loads while
      // the caller runs the one just popped.
      PrefetchSlot((*cur)[cursor_]);
    }
  }
  return true;
}
// RADAR_HOT_END

std::uint32_t EventQueue::AddStream(EventFn fn) {
  RADAR_CHECK_LT(streams_.size(), static_cast<std::size_t>(kSlotMask));
  streams_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(streams_.size() - 1);
}

void EventQueue::GrowStreamRing() {
  // Re-lay the armed entries contiguously from index 0 of the doubled
  // ring (minimum capacity 16).
  std::vector<Entry> grown(stream_ring_.empty() ? 16
                                                : stream_ring_.size() * 2);
  for (std::size_t i = 0; i < stream_count_; ++i) {
    grown[i] =
        stream_ring_[(stream_head_ + i) & (stream_ring_.size() - 1)];
  }
  stream_ring_ = std::move(grown);
  stream_head_ = 0;
}

// RADAR_HOT: stream re-arm
void EventQueue::ArmStream(std::uint32_t id, SimTime when) {
  RADAR_CHECK_GE(when, 0);
  RADAR_CHECK_LT(static_cast<std::size_t>(id), streams_.size());
  if (stream_count_ == stream_ring_.size()) GrowStreamRing();
  // Reserve the firing's place in the (when, seq) total order — the same
  // sequence number a Push at this point would have consumed.
  const Entry e{when, (next_seq_++ << kSlotBits) | id};
  const std::size_t mask = stream_ring_.size() - 1;
  std::size_t i = (stream_head_ + stream_count_) & mask;
  // Streams re-arm one period after the firing that arms them, which is
  // at or past every armed entry (equal times lose on seq), so this loop
  // almost never iterates; differing periods or out-of-order initial
  // arms shift a few 16-byte entries.
  while (i != stream_head_) {
    const std::size_t prev = (i + mask) & mask;
    if (!Earlier(e, stream_ring_[prev])) break;
    stream_ring_[i] = stream_ring_[prev];
    i = prev;
  }
  stream_ring_[i] = e;
  ++stream_count_;
}
// RADAR_HOT_END

}  // namespace radar::sim
