#include "sim/simulator.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace radar::sim {

void Simulator::PeriodicTask::Fire(SimTime at) {
  fn(at);
  const SimTime next = at + period;
  sim->queue_.Push(next, [this, next] { Fire(next); });
}

void Simulator::SchedulePeriodic(SimTime first_at, SimTime period,
                                 PeriodicFn fn) {
  RADAR_CHECK_GT(period, 0);
  RADAR_CHECK_GE(first_at, now_);
  // The next firing is always enqueued, so a periodic task survives
  // successive RunUntil() horizons; it simply waits in the queue past the
  // last horizon.
  periodic_tasks_.push_back(std::make_unique<PeriodicTask>(
      PeriodicTask{this, period, std::move(fn)}));
  PeriodicTask* task = periodic_tasks_.back().get();
  queue_.Push(first_at, [task, first_at] { task->Fire(first_at); });
}

// RADAR_HOT: simulator dispatch loop
void Simulator::RunUntil(SimTime until) {
  RADAR_CHECK_GE(until, now_);
  SimTime when = 0;
  std::uint32_t slot = 0;
  // Fused peek + pop (one wheel settle per event) and in-place execution:
  // the closure runs inside the queue's slot slab (stable storage), so
  // the hot loop never moves a closure.
  while (queue_.PopEntryIfNotAfter(until, &when, &slot)) {
    RADAR_CHECK_GE(when, now_);
    now_ = when;
    queue_.InvokeAndReleaseSlot(slot);
    ++events_executed_;
  }
  if (now_ < until) now_ = until;
}
// RADAR_HOT_END

}  // namespace radar::sim
