// Deliberately violating fixture for lint_test.cpp. Never compiled, never
// linted by the real radar_lint ctest case (which walks the repo's src/
// only); AnalyzeTree is pointed here by the test to prove rejection.
#include <cassert>
#include <cstdlib>
#include <iostream>

int PickReplica(int n) {
  assert(n > 0);                       // banned-assert
  const double migr_ratio = 0.6;       // protocol-literal
  std::cout << migr_ratio << "\n";     // banned-iostream
  return rand() % n;                   // banned-rand
}
