// Fixture: synchronization primitives anywhere in src/sim/ must trip
// shard-confinement.
#include <atomic>
#include <mutex>

namespace radar::sim {

struct BadSimState {
  std::mutex lock;
  std::atomic<int> counter{0};
};

int Bump(BadSimState* state) {
  const std::lock_guard<std::mutex> guard(state->lock);
  return ++state->counter;
}

}  // namespace radar::sim
