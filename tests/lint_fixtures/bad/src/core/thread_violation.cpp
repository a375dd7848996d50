// Deliberately violating fixture for lint_test.cpp: thread creation
// outside src/runner/. Never compiled; AnalyzeTree is pointed here by
// the test to prove the thread-confinement rule rejects it.
#include <thread>

void SpawnWorker() {
  std::thread worker([] {});           // thread-confinement
  worker.detach();                     // thread-confinement
  std::jthread auto_joiner([] {});     // thread-confinement
}
