// Unit tests for the discrete-event engine: event queue ordering, the
// simulator clock, periodic tasks, the FCFS server model, and the
// store-and-forward transfer model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/fcfs_server.h"
#include "sim/simulator.h"
#include "sim/transfer.h"

namespace radar::sim {
namespace {

// Pops and runs every pending event, the way the simulation's run loop
// does.
void DrainQueue(EventQueue& q) {
  SimTime when = 0;
  std::uint32_t slot = 0;
  while (q.PopEntryIfNotAfter(INT64_MAX, &when, &slot)) {
    q.InvokeAndReleaseSlot(slot);
  }
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  DrainQueue(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  DrainQueue(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// One wheel span: 1024 buckets of 256 us.
constexpr SimTime kSpan = SimTime{1} << 18;

// Two events in the first 256 us bucket of a block, one that waited in
// the queue's second level (pushed more than a span ahead of the wheel)
// and one pushed straight into the wheel once it came within a span.
// The waiting one is earlier and must pop first, so the block's entries
// have to join the bucket before it is sorted.
TEST(EventQueueTest, BlockEventsJoinTheirFirstBucketBeforeItIsSorted) {
  EventQueue q;
  std::vector<int> order;
  q.Push(1000, [&] { order.push_back(0); });
  q.Push(kSpan + 5, [&] { order.push_back(1); });  // a span ahead: waits
  SimTime when = 0;
  std::uint32_t slot = 0;
  ASSERT_TRUE(q.PopEntryIfNotAfter(1000, &when, &slot));
  q.InvokeAndReleaseSlot(slot);
  // The wheel now starts at 768, so kSpan + 5 and kSpan + 10 are within
  // its span: both go straight into the block's first bucket.
  q.Push(kSpan + 10, [&] { order.push_back(2); });
  q.Push(kSpan + 5, [&] { order.push_back(3); });  // ties with 1, later
  while (q.PopEntryIfNotAfter(kSpan + 10, &when, &slot)) {
    q.InvokeAndReleaseSlot(slot);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
  EXPECT_FALSE(q.PopEntryIfNotAfter(INT64_MAX, &when, &slot));
}

// Records where its capture lives: `this` is the capture's address inside
// its slab slot.
struct RecordCaptureAddress {
  std::vector<std::uintptr_t>* seen;
  void operator()() {
    seen->push_back(reinterpret_cast<std::uintptr_t>(this));
  }
};

// Each slot is one cache line, in every slab chunk: with 2,000 events
// pending the queue carves eight 256-slot chunks, and every capture must
// sit at the same offset within its 64-byte line, with room for the
// full 48-byte capacity before the line ends.
TEST(EventQueueTest, EverySlotIsOneCacheLineInEveryChunk) {
  constexpr std::uintptr_t kLine = 64;
  EventQueue q;
  std::vector<std::uintptr_t> seen;
  constexpr int kPending = 2'000;
  for (int i = 0; i < kPending; ++i) {
    q.Push(i, RecordCaptureAddress{&seen});
  }
  DrainQueue(q);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kPending));
  const std::uintptr_t offset = seen.front() % kLine;
  EXPECT_LE(offset + EventFn::kCapacity, kLine);
  std::set<std::uintptr_t> lines;
  for (const std::uintptr_t addr : seen) {
    EXPECT_EQ(addr % kLine, offset) << "capture at " << addr;
    lines.insert(addr / kLine);
  }
  EXPECT_EQ(lines.size(), seen.size());  // no two slots share a line
}

// The queue against a reference model: pushed events and armed stream
// firings, ordered by (when, push/arm order) and popped the way the run
// loop pops them. Each stream has one armed firing and re-arms from
// inside its own firing at a random delay.
class QueueModel {
 public:
  static constexpr std::size_t kStreams = 3;

  explicit QueueModel(std::uint64_t seed) : rng_(seed) {
    for (std::size_t k = 0; k < kStreams; ++k) {
      stream_ids_[k] = queue_.AddStream([this, k] {
        fired_ = armed_[k];
        if (rearm_) Arm(k);
      });
      Arm(k);
    }
  }

  Rng& rng() { return rng_; }
  SimTime now() const { return now_; }
  SimTime last_pop() const { return last_pop_; }

  /// A delay >= 0 that reaches every residence of the queue: the 256 us
  /// wheel level, the second level of one-span blocks (up to ~268 s
  /// ahead) and the heap beyond it, plus ties with the latest push or
  /// arm and the first buckets of coming blocks.
  SimTime Delay() {
    switch (rng_.NextBounded(10)) {
      case 0:
        return rng_.NextInRange(0, 600);
      case 1:
      case 2:
        return rng_.NextInRange(0, kSpan - 1);
      case 3:
      case 4:
      case 5:
        return rng_.NextInRange(kSpan, 1024 * kSpan);
      case 6:
        return rng_.NextInRange(1024 * kSpan, 1100 * kSpan);
      case 7:
        return std::max<SimTime>(last_when_ - now_, 0);
      case 8:
        return ((now_ >> 18) + rng_.NextInRange(1, 3)) * kSpan +
               rng_.NextInRange(0, 300) - now_;
      default:
        return rng_.NextInRange(0, 4000);
    }
  }

  void Push(SimTime when) {
    const int id = next_id_++;
    pending_.emplace(when, id);
    queue_.Push(when, [this, id] { fired_ = id; });
    last_when_ = when;
  }

  /// Pops every event at or before `until`, checking each against the
  /// model; each pop pushes a follow-up with probability `chain`, as an
  /// engine event schedules the next one, and a stream firing re-arms its
  /// stream when `rearm` holds. The clock then rests at `until`, like
  /// Simulator::RunUntil. Returns false at the first mismatch.
  bool Drain(SimTime until, double chain = 0.3, bool rearm = true) {
    rearm_ = rearm;
    SimTime when = 0;
    std::uint32_t slot = 0;
    while (queue_.PopEntryIfNotAfter(until, &when, &slot)) {
      if (pending_.empty()) {
        ADD_FAILURE() << "popped at " << when << " from an empty model";
        return false;
      }
      const auto [want_when, want_id] = *pending_.begin();
      pending_.erase(pending_.begin());
      now_ = when;
      last_pop_ = when;
      queue_.InvokeAndReleaseSlot(slot);
      if (when != want_when || fired_ != want_id) {
        ADD_FAILURE() << "popped (" << when << ", #" << fired_
                      << "), expected (" << want_when << ", #" << want_id
                      << ")";
        return false;
      }
      if (rng_.NextBool(chain)) Push(now_ + Delay());
    }
    if (!pending_.empty() && pending_.begin()->first <= until) {
      ADD_FAILURE() << "stopped with (" << pending_.begin()->first
                    << ", #" << pending_.begin()->second
                    << ") due by " << until;
      return false;
    }
    now_ = std::max(now_, until);
    return true;
  }

  /// Drains everything, with no follow-ups and no re-arms: the queue
  /// stops only once it is empty, and the model must be empty then too.
  bool DrainAll() { return Drain(INT64_MAX, 0.0, false); }

  /// Starts a new slice at `at` (at or before the last pop), the way a
  /// slice replay rewinds its clock, and re-arms every stream from there.
  void Rewind(SimTime at) {
    now_ = at;
    for (std::size_t k = 0; k < kStreams; ++k) Arm(k);
  }

 private:
  /// Arms stream k a random delay after the clock.
  void Arm(std::size_t k) {
    armed_[k] = next_id_++;
    const SimTime when = now_ + Delay();
    pending_.emplace(when, armed_[k]);
    queue_.ArmStream(stream_ids_[k], when);
    last_when_ = when;
  }

  Rng rng_;
  EventQueue queue_;
  std::set<std::pair<SimTime, int>> pending_;
  std::array<std::uint32_t, kStreams> stream_ids_{};
  std::array<int, kStreams> armed_{};  ///< model id of each armed firing
  bool rearm_ = true;
  int next_id_ = 0;
  int fired_ = -1;
  SimTime now_ = 0;
  SimTime last_pop_ = 0;
  SimTime last_when_ = 0;
};

// Pushes and stream arms land in every residence of the queue (see
// Delay); ties reuse a pending time, and boundary pushes hit the first
// buckets of coming blocks. Horizon stops rest the clock between events,
// where the wheel must stop too: the next pushes land at or after the
// clock. Each slice ends with a full drain, which jumps over empty
// stretches; the next slice rewinds the clock to before the last pop, as
// a slice replay does, so its first push re-anchors the empty wheel
// backwards and later ones that are earlier still go to the heap.
TEST(EventQueueTest, PopsMatchReferenceOrderAcrossAllLevels) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    QueueModel model(seed);
    Rng& rng = model.rng();
    for (int slice = 0; slice < 3; ++slice) {
      if (slice > 0) model.Rewind(rng.NextInRange(0, model.last_pop()));
      for (int step = 0; step < 500; ++step) {
        if (rng.NextBool(0.6)) {
          const std::int64_t n = rng.NextInRange(1, 3);
          for (std::int64_t i = 0; i < n; ++i) {
            model.Push(model.now() + model.Delay());
          }
          continue;
        }
        SimTime horizon = 0;
        switch (rng.NextBounded(3)) {
          case 0:
            horizon = rng.NextInRange(0, 3000);
            break;
          case 1:
            horizon = rng.NextInRange(0, 3 * kSpan);
            break;
          default:
            horizon = rng.NextInRange(0, 400 * kSpan);
            break;
        }
        ASSERT_TRUE(model.Drain(model.now() + horizon))
            << "seed " << seed << ", slice " << slice << ", step " << step;
      }
      ASSERT_TRUE(model.DrainAll())
          << "seed " << seed << ", slice " << slice << ", full drain";
    }
  }
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.Schedule(100, [&] { seen = sim.Now(); });
  sim.RunUntil(100);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(50, [&] { ++fired; });
  sim.Schedule(150, [&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsScheduledExactlyAtHorizonRun) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(100, [&] { fired = true; });
  sim.RunUntil(100);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.RunUntil(100);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.SchedulePeriodic(100, 100, [&](SimTime t) { fires.push_back(t); });
  sim.RunUntil(450);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300, 400}));
}

TEST(SimulatorTest, PeriodicStopsAtHorizon) {
  Simulator sim;
  int fires = 0;
  sim.SchedulePeriodic(10, 10, [&](SimTime) { ++fires; });
  sim.RunUntil(55);
  EXPECT_EQ(fires, 5);
  // A later horizon resumes the cadence.
  sim.RunUntil(100);
  EXPECT_EQ(fires, 10);
}

TEST(SimulatorTest, TwoPeriodicsInterleave) {
  Simulator sim;
  std::vector<int> order;
  sim.SchedulePeriodic(10, 20, [&](SimTime) { order.push_back(1); });
  sim.SchedulePeriodic(20, 20, [&](SimTime) { order.push_back(2); });
  sim.RunUntil(60);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(SimulatorTest, StreamFiresAtArmedTimesAndInterleavesWithEvents) {
  Simulator sim;
  std::vector<int> order;
  std::vector<SimTime> stream_times;
  std::uint32_t id = 0;
  id = sim.AddStream([&] {
    // Self-re-arming cadence of 20 starting at 10, reading the clock for
    // the firing time (stream closures take no arguments).
    stream_times.push_back(sim.Now());
    order.push_back(1);
    sim.ArmStream(id, sim.Now() + 20);
  });
  sim.ArmStream(id, 10);
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Schedule(45, [&] { order.push_back(3); });
  sim.RunUntil(60);
  EXPECT_EQ(stream_times, (std::vector<SimTime>{10, 30, 50}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 3, 1}));
}

TEST(SimulatorTest, StreamEqualTimeTieBreaksByArmOrder) {
  // A stream armed *before* an equal-time Schedule fires first; armed
  // *after*, it fires second — arming reserves a place in the global
  // sequence exactly like a push.
  for (const bool arm_first : {true, false}) {
    Simulator sim;
    std::vector<int> order;
    const std::uint32_t id = sim.AddStream([&] { order.push_back(1); });
    if (arm_first) sim.ArmStream(id, 40);
    sim.Schedule(40, [&] { order.push_back(2); });
    if (!arm_first) sim.ArmStream(id, 40);
    sim.RunUntil(100);
    EXPECT_EQ(order, arm_first ? (std::vector<int>{1, 2})
                               : (std::vector<int>{2, 1}));
  }
}

TEST(SimulatorTest, StreamWaitsPastHorizonLikeAnyEvent) {
  Simulator sim;
  int fires = 0;
  std::uint32_t id = 0;
  id = sim.AddStream([&] {
    ++fires;
    sim.ArmStream(id, sim.Now() + 10);
  });
  sim.ArmStream(id, 10);
  sim.RunUntil(35);
  EXPECT_EQ(fires, 3);
  // The next armed firing (40) survives the horizon and resumes later,
  // even though no pushed event is pending.
  sim.RunUntil(100);
  EXPECT_EQ(fires, 10);
}

TEST(SimulatorTest, TwoStreamsInterleaveByTimeAndArmOrder) {
  Simulator sim;
  std::vector<int> order;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  a = sim.AddStream([&] {
    order.push_back(1);
    sim.ArmStream(a, sim.Now() + 20);
  });
  b = sim.AddStream([&] {
    order.push_back(2);
    sim.ArmStream(b, sim.Now() + 20);
  });
  sim.ArmStream(a, 10);
  sim.ArmStream(b, 20);
  sim.RunUntil(60);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(FcfsServerTest, ServiceTimeFromCapacity) {
  FcfsServer server(200.0);  // Table 1: 200 req/s -> 5 ms
  EXPECT_EQ(server.service_time(), MillisToSim(5.0));
}

TEST(FcfsServerTest, IdleServerCompletesAfterOneServiceTime) {
  FcfsServer server(100.0);
  const SimTime done = server.Admit(SecondsToSim(1.0));
  EXPECT_EQ(done, SecondsToSim(1.0) + MillisToSim(10.0));
}

TEST(FcfsServerTest, BackToBackArrivalsQueue) {
  FcfsServer server(100.0);  // 10 ms service
  const SimTime t = SecondsToSim(1.0);
  EXPECT_EQ(server.Admit(t), t + MillisToSim(10.0));
  EXPECT_EQ(server.Admit(t), t + MillisToSim(20.0));
  EXPECT_EQ(server.Admit(t), t + MillisToSim(30.0));
  EXPECT_EQ(server.admitted(), 3);
}

TEST(FcfsServerTest, GapDrainsQueue) {
  FcfsServer server(100.0);
  server.Admit(0);
  server.Admit(0);  // busy until 20 ms
  EXPECT_EQ(server.BacklogAt(MillisToSim(5.0)), MillisToSim(15.0));
  // Arrival after the queue drained starts fresh.
  const SimTime done = server.Admit(MillisToSim(100.0));
  EXPECT_EQ(done, MillisToSim(110.0));
  EXPECT_EQ(server.BacklogAt(MillisToSim(200.0)), 0);
}

TEST(FcfsServerTest, OverloadGrowsUnbounded) {
  // Sustained arrivals above capacity back the queue up linearly — the
  // hot-sites workload's initial tens-of-seconds latencies rely on this.
  FcfsServer server(100.0);
  SimTime last_arrival = 0;
  for (int i = 0; i < 1000; ++i) {
    last_arrival = static_cast<SimTime>(i) * MillisToSim(5.0);
    server.Admit(last_arrival);
  }
  // 1000 requests x 10 ms service vs 5 ms spacing: ~5 s of backlog at the
  // time the last request arrives.
  EXPECT_GT(server.BacklogAt(last_arrival), SecondsToSim(4.0));
}

TEST(FcfsServerTest, ResetForgetsBacklog) {
  FcfsServer server(100.0);
  server.Admit(0);
  server.Reset();
  EXPECT_EQ(server.admitted(), 0);
  EXPECT_EQ(server.Admit(0), MillisToSim(10.0));
}

TEST(FcfsServerDeathTest, TimeMustNotGoBackwards) {
  FcfsServer server(100.0);
  server.Admit(MillisToSim(10.0));
  EXPECT_DEATH(server.Admit(MillisToSim(5.0)), "RADAR_CHECK");
}

TEST(TransferTest, SerializationTimeMatchesTable1) {
  // 12 KB at 350 KBps: 12/350 s = ~34.3 ms.
  const SimTime t = SerializationTime(12 * 1024, 350.0 * 1024.0);
  EXPECT_NEAR(SimToSeconds(t), 12.0 / 350.0, 1e-6);
}

TEST(TransferTest, StoreAndForwardScalesWithHops) {
  const SimTime per_hop = MillisToSim(10.0);
  const double bw = 350.0 * 1024.0;
  const SimTime one = TransferTime(1, 12 * 1024, per_hop, bw);
  const SimTime three = TransferTime(3, 12 * 1024, per_hop, bw);
  EXPECT_EQ(three, 3 * one);
  EXPECT_EQ(TransferTime(0, 12 * 1024, per_hop, bw), 0);
}

TEST(TransferTest, ControlLatencyIsPropagationOnly) {
  EXPECT_EQ(ControlLatency(4, MillisToSim(10.0)), MillisToSim(40.0));
  EXPECT_EQ(ControlLatency(0, MillisToSim(10.0)), 0);
}

}  // namespace
}  // namespace radar::sim
