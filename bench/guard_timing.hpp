#pragma once
// Shared timing protocol for the overhead guards (bench_*_guard.cpp).
//
// Each guard compares two legs of the same workload to 1%. Two sources of
// noise are larger than that on a shared machine and have nothing to do with
// the code under test: the scheduler placing a fresh rank thread on a busier
// core than the main thread ran on, and load drifting between one block of
// repetitions and the next. So a guard whose legs run on different threads
// pins them to one core (ScopedCorePin), and every guard interleaves the
// legs' repetitions (leg A, leg B, leg A, ...) so drift lands on both legs
// alike; the guards then compare the medians of the two sample sets.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace rahooi::bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds taken by one call of `fn`.
inline double time_call(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median seconds per call of `fn` over `reps` timed repetitions (after one
/// warmup call).
inline double median_seconds(int reps, const std::function<void()>& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) times.push_back(time_call(fn));
  return median(std::move(times));
}

/// Pins the calling thread to the core it is running on for the lifetime
/// of the scope, then restores its old affinity. Threads spawned inside the
/// scope (Runtime::run's rank threads) inherit the pin. If the affinity
/// calls are refused, the scope does nothing and the guard runs unpinned.
class ScopedCorePin {
 public:
  ScopedCorePin() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedCorePin() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCorePin(const ScopedCorePin&) = delete;
  ScopedCorePin& operator=(const ScopedCorePin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace rahooi::bench
