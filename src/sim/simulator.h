// The simulation executive: a clock plus an event queue.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/inplace_function.h"

namespace radar::sim {

/// Periodic tick callback; receives the firing time. Like EventFn, the
/// capture must fit the inline buffer — scheduling never allocates.
using PeriodicFn = InplaceFunction<void(SimTime), 64>;

class Simulator {
 public:
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` microseconds from now (delay >= 0).
  /// Forwards straight into the queue's slab, so the callable is moved
  /// exactly once (lambda -> slot).
  template <class F>
  void Schedule(SimTime delay, F&& fn) {
    RADAR_CHECK_GE(delay, 0);
    queue_.Push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `when` (must not be in the past).
  template <class F>
  void ScheduleAt(SimTime when, F&& fn) {
    RADAR_CHECK_GE(when, now_);
    queue_.Push(when, std::forward<F>(fn));
  }

  /// Schedules `fn` to run every `period` starting at `first_at`; `fn`
  /// receives the firing time. Fires indefinitely (RunAll never returns
  /// while a periodic task is registered; use RunUntil).
  void SchedulePeriodic(SimTime first_at, SimTime period, PeriodicFn fn);

  // -- Pinned streams (see EventQueue) --
  //
  // For self-rescheduling high-frequency tasks whose closure never
  // changes: register once, then arm each firing. An armed firing runs at
  // exactly the place in the event order a Schedule at the same point
  // would have taken, but costs no slot traffic. The closure takes no
  // arguments — read Now() for the firing time. Streams fire only inside
  // RunUntil, and only the next armed firing is pending at a time.

  /// Registers a stream closure; returns its id.
  template <class F>
  std::uint32_t AddStream(F&& fn) {
    return queue_.AddStream(EventFn(std::forward<F>(fn)));
  }

  /// Arms the stream's next firing at absolute time `when` (not in the
  /// past; typically called from inside the stream's own closure).
  void ArmStream(std::uint32_t id, SimTime when) {
    RADAR_CHECK_GE(when, now_);
    queue_.ArmStream(id, when);
  }

  /// Runs events until the queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed.
  void RunUntil(SimTime until);

  /// Runs until the event queue is empty.
  void RunAll();

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  /// A periodic task owns its tick closure in a stable heap slot; the
  /// queued continuation captures just {task pointer, firing time}, so it
  /// fits EventFn's inline buffer regardless of the user capture's size
  /// (up to PeriodicFn's own capacity) and the closure dies with the
  /// simulator — no shared_ptr self-handle, no reference cycle.
  struct PeriodicTask {
    Simulator* sim;
    SimTime period;
    PeriodicFn fn;
    void Fire(SimTime at);
  };

  SimTime now_ = 0;
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  std::vector<std::unique_ptr<PeriodicTask>> periodic_tasks_;
};

}  // namespace radar::sim
