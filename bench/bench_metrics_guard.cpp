// Overhead guard for the metrics layer (docs/OBSERVABILITY.md).
//
// Claim under test: with metrics *off* (no Registry installed, the
// default), the instrumentation costs under 1% on the kernel hot path.
// Every instrument site — TrackedBytes in the tensor/AlignedBuffer
// allocators, CollectiveTimer in the collectives, the counter bumps in the
// solvers — starts with one thread-local registry() load and a branch, so
// the guard runs a TTM workload that allocates its output tensor every call
// (exercising the allocator tags and the packed-kernel scratch), (a)
// standalone and (b) inside a metrics-off Runtime world, and asserts the
// medians agree to <1%. Metrics-on ratios for the same workload and for an
// allreduce loop (CollectiveTimer = two clock reads + histogram update per
// call) are printed for information — deliberately not guarded numbers.
//
// Timing two runs of the same process to 1% is noise-sensitive, so the
// guard is self-relative (no cross-machine baselines), pins both legs to one
// core and interleaves their repetitions (guard_timing.hpp), compares
// medians of many repetitions, and takes the best of several attempts
// before declaring a regression. Exit code 0 = within budget, 1 = not.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "guard_timing.hpp"
#include "la/blas.hpp"
#include "metrics/metrics.hpp"
#include "tensor/ttm.hpp"

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

template <typename T>
tensor::Tensor<T> random_tensor(std::vector<idx_t> dims,
                                std::uint64_t seed) {
  CounterRng rng(seed);
  tensor::Tensor<T> x(std::move(dims));
  for (idx_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(rng.normal(i));
  }
  return x;
}

}  // namespace

int main() {
  constexpr idx_t kN = 48;        // mode size of the TTM workload
  constexpr idx_t kRank = 16;
  constexpr int kReps = 31;       // per-measurement repetitions (median)
  constexpr int kRounds = 16;     // interleaved standalone/world rounds
  constexpr int kRoundReps = 4;   // timed repetitions per leg per round
  constexpr int kAttempts = 5;    // best-of attempts before failing
  constexpr double kBudget = 1.01;

  const auto x = random_tensor<double>({kN, kN, kN}, 1);
  const auto u = random_matrix<double>(kN, kRank, 2);
  // Allocates the output tensor every call: the TrackedBytes acquire in the
  // Tensor ctor and the AlignedBuffer pack scratch both run per repetition.
  const auto kernel = [&] {
    tensor::Tensor<double> y = tensor::ttm(x, 0, u.cref(), la::Op::transpose);
    (void)y;
  };

  double best_ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const ScopedCorePin pinned;
    std::vector<double> standalone_times, world_times;
    for (int round = 0; round < kRounds; ++round) {
      kernel();  // warmup
      for (int r = 0; r < kRoundReps; ++r) {
        standalone_times.push_back(time_call(kernel));
      }
      comm::Runtime::run(1, [&](comm::Comm&) {
        kernel();  // warmup
        for (int r = 0; r < kRoundReps; ++r) {
          world_times.push_back(time_call(kernel));
        }
      });
    }
    const double standalone = median(standalone_times);
    const double in_world = median(world_times);

    const double ratio = in_world / standalone;
    best_ratio = std::min(best_ratio, ratio);
    std::printf(
        "metrics_guard attempt %d: standalone %.3f ms, metrics-off world "
        "%.3f ms, ratio %.4f\n",
        attempt, standalone * 1e3, in_world * 1e3, ratio);
    if (best_ratio < kBudget) break;
  }

  // Informational: metrics-on cost of the same workload (allocator tags now
  // update gauges) and of an allreduce loop (CollectiveTimer per call).
  {
    const double standalone = median_seconds(kReps, kernel);
    std::vector<metrics::Registry> regs;
    comm::RunOptions on;
    on.rank_metrics = &regs;
    double metered = 0.0;
    comm::Runtime::run(
        1, [&](comm::Comm&) { metered = median_seconds(kReps, kernel); },
        nullptr, nullptr, on);
    std::printf(
        "metrics_guard info: ttm metrics-on ratio %.4f (peak tensor bytes "
        "%.0f)\n",
        metered / standalone,
        regs.at(0).gauge(metrics::MemScope::tensor).peak);
  }
  for (const bool metered : {false, true}) {
    std::vector<metrics::Registry> regs;
    comm::RunOptions opts;
    if (metered) opts.rank_metrics = &regs;
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
    std::printf("metrics_guard info: allreduce metrics=%d %.3f us\n",
                metered ? 1 : 0, med * 1e6);
  }

  if (best_ratio >= kBudget) {
    std::fprintf(stderr,
                 "metrics_guard FAIL: metrics-off overhead ratio %.4f "
                 "exceeds budget %.2f\n",
                 best_ratio, kBudget);
    return 1;
  }
  std::printf("metrics_guard OK: best ratio %.4f (budget %.2f)\n",
              best_ratio, kBudget);
  return 0;
}
