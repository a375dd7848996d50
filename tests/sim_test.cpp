// Unit tests for the discrete-event engine: event queue ordering, the
// simulator clock, periodic tasks, the FCFS server model, and the
// store-and-forward transfer model.
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Push(42, [] {});
  q.Push(7, [] {});
  EXPECT_EQ(q.NextTime(), 7);
  EXPECT_EQ(q.size(), 2u);
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
  EXPECT_TRUE(q.empty());
}

// The queue against a reference model: pending events ordered by (when,
// push order). Pops go through the run-loop path or NextTime + PopEntry.
class QueueModel {
 public:
  void Push(SimTime when) {
    const int id = next_id_++;
    pending_.emplace(when, id);
    queue_.Push(when, [this, id] { fired_ = id; });
    last_when_ = when;
  }

  /// Pops every event at or before `until`, checking each against the
  /// model; each popped event pushes a follow-up (delay from `delay`) with
  /// probability `chain`, as an engine event schedules the next one. The
  /// clock then rests at `until`, like Simulator::RunUntil. Returns false
  /// at the first mismatch.
  template <class DelayFn>
  bool Drain(SimTime until, bool run_loop, Rng& rng, double chain,
             DelayFn&& delay) {
    for (;;) {
      SimTime when = 0;
      if (run_loop) {
        std::uint32_t slot = 0;
        if (!queue_.PopEntryIfNotAfter(until, &when, &slot)) break;
        queue_.InvokeAndReleaseSlot(slot);
      } else {
        if (queue_.empty() || queue_.NextTime() > until) break;
        const auto [at, slot] = queue_.PopEntry();
        when = at;
        queue_.InvokeAndReleaseSlot(slot);
      }
      if (pending_.empty()) {
        ADD_FAILURE() << "popped (" << when << ", #" << fired_
                      << ") from an empty model";
        return false;
      }
      const auto [want_when, want_id] = *pending_.begin();
      pending_.erase(pending_.begin());
      if (when != want_when || fired_ != want_id) {
        ADD_FAILURE() << "popped (" << when << ", #" << fired_
                      << "), expected (" << want_when << ", #" << want_id
                      << ")";
        return false;
      }
      now_ = when;
      if (rng.NextBool(chain)) Push(now_ + delay());
    }
    if (!pending_.empty() && pending_.begin()->first <= until) {
      ADD_FAILURE() << "stopped with (" << pending_.begin()->first
                    << ", #" << pending_.begin()->second
                    << ") due by " << until;
      return false;
    }
    now_ = std::max(now_, until);
    return queue_.size() == pending_.size();
  }

  SimTime now() const { return now_; }
  SimTime last_when() const { return last_when_; }
  bool empty() const { return pending_.empty() && queue_.empty(); }

 private:
  EventQueue queue_;
  std::set<std::pair<SimTime, int>> pending_;
  int next_id_ = 0;
  int fired_ = -1;
  SimTime now_ = 0;
  SimTime last_when_ = 0;
};

// Pushes land in every residence of the queue: the 256 us wheel level,
// the second level of one-span blocks (up to ~268 s ahead), the heap
// beyond that, and — after horizon stops that leave the wheel settled on
// an event past the clock — the heap behind the wheel. Ties reuse a
// pending time; boundary pushes hit the first buckets of coming blocks.
// Each run ends with a full drain, which jumps over empty stretches.
TEST(EventQueueTest, PopsMatchReferenceOrderAcrossAllLevels) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    QueueModel model;
    const auto delay = [&]() -> SimTime {
      const SimTime now = model.now();
      switch (rng.NextBounded(10)) {
        case 0:
          return rng.NextInRange(0, 600);
        case 1:
        case 2:
          return rng.NextInRange(0, kSpan - 1);
        case 3:
        case 4:
        case 5:
          return rng.NextInRange(kSpan, 1024 * kSpan);
        case 6:
          return rng.NextInRange(1024 * kSpan, 1100 * kSpan);
        case 7:
          return std::max<SimTime>(model.last_when() - now, 0);
        case 8:
          return ((now >> 18) + rng.NextInRange(1, 3)) * kSpan +
                 rng.NextInRange(0, 300) - now;
        default:
          return rng.NextInRange(0, 4000);
      }
    };
    for (int step = 0; step < 1500; ++step) {
      if (rng.NextBool(0.6)) {
        const std::int64_t n = rng.NextInRange(1, 3);
        for (std::int64_t i = 0; i < n; ++i) {
          model.Push(model.now() + delay());
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
      ASSERT_TRUE(model.Drain(model.now() + horizon, rng.NextBool(0.7), rng,
                              0.3, delay))
          << "seed " << seed << ", step " << step;
    }
    ASSERT_TRUE(model.Drain(INT64_MAX, true, rng, 0.0, delay))
        << "seed " << seed << ", final drain";
    EXPECT_TRUE(model.empty()) << "seed " << seed;
  }
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.Schedule(100, [&] { seen = sim.Now(); });
  sim.RunAll();
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
  EXPECT_EQ(sim.pending_events(), 1u);
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
  sim.RunAll();
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
  // even though the slab queue itself is empty.
  EXPECT_EQ(sim.pending_events(), 0u);
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
