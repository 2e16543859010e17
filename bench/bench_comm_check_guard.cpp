// Overhead guard for the collective-schedule sanitizer (DESIGN.md §10).
//
// Claim under test: with comm_check *off* (the default), the sanitizer
// machinery costs under 1% on the bench_kernels hot path. Kernels never
// call collectives, and the only off-mode residue inside the collectives
// themselves is one relaxed atomic load — so the guard measures the same
// packed-GEMM workload bench_kernels times, (a) standalone and (b) inside
// a comm_check=off Runtime world, and asserts the medians agree to <1%.
// An on-mode allreduce comparison is printed for information (its cost is
// two extra barriers per collective, deliberately not a guarded number).
//
// Timing two runs of the same process to 1% is noise-sensitive, so the
// guard is self-relative (no cross-machine BENCH_kernels.json baselines),
// pins both legs to one core and interleaves their repetitions
// (guard_timing.hpp), compares medians of many repetitions, and takes the
// best of several attempts before declaring a regression. Exit code 0 =
// within budget, 1 = not.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "guard_timing.hpp"
#include "la/blas.hpp"

namespace {

using namespace rahooi;
using namespace rahooi::bench;
using la::idx_t;

template <typename T>
la::Matrix<T> random_matrix(idx_t rows, idx_t cols, std::uint64_t seed) {
  CounterRng rng(seed);
  la::Matrix<T> m(rows, cols);
  for (idx_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<T>(rng.normal(i));
  }
  return m;
}

}  // namespace

int main() {
  constexpr idx_t kN = 192;       // the bench_kernels GEMM shape family
  constexpr int kReps = 31;       // per-measurement repetitions (median)
  constexpr int kRounds = 16;     // interleaved standalone/world rounds
  constexpr int kRoundReps = 4;   // timed repetitions per leg per round
  constexpr int kAttempts = 5;    // best-of attempts before failing
  constexpr double kBudget = 1.01;

  auto a = random_matrix<double>(kN, kN, 1);
  auto b = random_matrix<double>(kN, kN, 2);
  la::Matrix<double> c(kN, kN);
  const auto kernel = [&] {
    la::gemm(la::Op::none, la::Op::none, 1.0, a.cref(), b.cref(), 0.0,
             c.ref());
  };

  double best_ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const ScopedCorePin pinned;
    comm::RunOptions off;
    off.comm_check = 0;
    std::vector<double> standalone_times, world_times;
    for (int round = 0; round < kRounds; ++round) {
      kernel();  // warmup
      for (int r = 0; r < kRoundReps; ++r) {
        standalone_times.push_back(time_call(kernel));
      }
      comm::Runtime::run(
          1,
          [&](comm::Comm&) {
            kernel();  // warmup
            for (int r = 0; r < kRoundReps; ++r) {
              world_times.push_back(time_call(kernel));
            }
          },
          nullptr, nullptr, off);
    }
    const double standalone = median(standalone_times);
    const double in_world = median(world_times);

    const double ratio = in_world / standalone;
    best_ratio = std::min(best_ratio, ratio);
    std::printf(
        "comm_check_guard attempt %d: standalone %.3f ms, "
        "comm_check=off world %.3f ms, ratio %.4f\n",
        attempt, standalone * 1e3, in_world * 1e3, ratio);
    if (best_ratio < kBudget) break;
  }

  // Informational: sanitizer on-cost on an allreduce-heavy loop (expected
  // to be large and proportional to the two extra barriers per call).
  for (const int on : {0, 1}) {
    comm::RunOptions opts;
    opts.comm_check = on;
    double med = 0.0;
    comm::Runtime::run(
        4,
        [&](comm::Comm& world) {
          std::vector<double> v(64, 1.0);
          const double m = median_seconds(kReps, [&] {
            world.allreduce_sum(v.data(), static_cast<idx_t>(v.size()));
          });
          if (world.rank() == 0) med = m;
        },
        nullptr, nullptr, opts);
    std::printf("comm_check_guard info: allreduce comm_check=%d %.3f us\n",
                on, med * 1e6);
  }

  if (best_ratio >= kBudget) {
    std::fprintf(stderr,
                 "comm_check_guard FAIL: comm_check=off overhead ratio %.4f "
                 "exceeds budget %.2f\n",
                 best_ratio, kBudget);
    return 1;
  }
  std::printf("comm_check_guard OK: best ratio %.4f (budget %.2f)\n",
              best_ratio, kBudget);
  return 0;
}
