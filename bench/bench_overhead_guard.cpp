// Overhead guards: each case asserts that an always-compiled-in
// instrumentation layer costs under 1% when it is off (or, for the flight
// recorder, on by default), by timing two legs of one workload in one
// process. Run one case by name:
//
//   bench_overhead_guard comm_check_guard   (ctest label comm-check-smoke)
//   bench_overhead_guard metrics_guard      (ctest label metrics-smoke)
//   bench_overhead_guard obs_guard          (ctest label obs-smoke)
//
// Cases and their claims:
//  * comm_check_guard (DESIGN.md §10): with the collective-schedule
//    sanitizer off (the default), the only residue inside the collectives
//    is one relaxed atomic load, and kernels never call collectives. The
//    bench_kernels packed GEMM runs (a) standalone and (b) inside a
//    comm_check=off 1-rank world.
//  * metrics_guard (docs/OBSERVABILITY.md): with no metrics Registry
//    installed (the default), every instrument site — TrackedBytes in the
//    tensor/AlignedBuffer allocators, the metrics timer in CollectiveScope,
//    the counter bumps in the solvers — is one thread-local load and a
//    branch. A TTM that allocates its output every call runs (a) standalone
//    and (b) inside a metrics-off 1-rank world.
//  * obs_guard (docs/OBSERVABILITY.md "The live plane"): the flight
//    recorder Runtime::run installs on every rank thread costs one
//    fetch_add and a fixed-size slot write per record. A small P=2 HOOI
//    solve runs in one world with the recorder suppressed
//    (ScopedFlightRecorder(nullptr)) and with it on.
// Each case also prints informational figures (sanitizer-on and metrics-on
// allreduce cost, raw record() throughput) that are deliberately not
// guarded.
//
// Timing protocol. Two sources of noise are larger than 1% on a shared
// machine and have nothing to do with the code under test: the scheduler
// placing a fresh rank thread on a busier core than the main thread ran on,
// and load drifting between one block of repetitions and the next. So the
// standalone-vs-world cases pin both legs to one core (ScopedCorePin), and
// every case interleaves its legs' repetitions (leg A, leg B, leg A, ...)
// so drift lands on both legs alike, compares the medians of the two sample
// sets, and takes the best of several attempts before declaring a
// regression. Exit code 0 = within budget, 1 = not, 2 = unknown case.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "core/hooi.hpp"
#include "data/synthetic.hpp"
#include "dist/dist_tensor.hpp"
#include "la/blas.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "tensor/ttm.hpp"

namespace {

using namespace rahooi;
using la::idx_t;

constexpr int kAttempts = 5;      // best-of attempts before failing
constexpr double kBudget = 1.01;  // leg B / leg A median ratio
constexpr int kInfoReps = 31;     // repetitions of an informational median

// -- timing protocol --------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds taken by one call of `fn`.
double time_call(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median seconds per call of `fn` over `reps` timed repetitions (after one
/// warmup call).
double median_seconds(int reps, const std::function<void()>& fn) {
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

/// One attempt's two medians, plus an optional note for its report line.
struct Legs {
  double a = 0.0;
  double b = 0.0;
  std::string note;
};

/// The standalone-vs-world attempt: kRounds interleaved rounds, each timing
/// kRoundReps calls of `kernel` standalone and then inside a fresh 1-rank
/// world run with `opts`, both legs pinned to one core.
Legs standalone_vs_world(const std::function<void()>& kernel,
                         const comm::RunOptions& opts) {
  constexpr int kRounds = 16;    // interleaved standalone/world rounds
  constexpr int kRoundReps = 4;  // timed repetitions per leg per round
  const ScopedCorePin pinned;
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
        nullptr, nullptr, opts);
  }
  return {median(standalone_times), median(world_times), ""};
}

/// Runs up to kAttempts of `measure`, prints every attempt, then `info`,
/// then the verdict on the best leg-B / leg-A ratio.
int verdict(const char* name, const char* leg_a, const char* leg_b,
            const char* overhead, const std::function<Legs()>& measure,
            const std::function<void()>& info) {
  double best_ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const Legs legs = measure();
    const double ratio = legs.b / legs.a;
    best_ratio = std::min(best_ratio, ratio);
    std::printf("%s attempt %d: %s %.3f ms, %s %.3f ms, ratio %.4f%s\n", name,
                attempt, leg_a, legs.a * 1e3, leg_b, legs.b * 1e3, ratio,
                legs.note.c_str());
    if (best_ratio < kBudget) break;
  }
  info();
  if (best_ratio >= kBudget) {
    std::fprintf(stderr,
                 "%s FAIL: %s overhead ratio %.4f exceeds budget %.2f\n",
                 name, overhead, best_ratio, kBudget);
    return 1;
  }
  std::printf("%s OK: best ratio %.4f (budget %.2f)\n", name, best_ratio,
              kBudget);
  return 0;
}

/// Informational: median microseconds of a 64-double allreduce on 4 ranks.
double allreduce_us(const comm::RunOptions& opts) {
  double med = 0.0;
  comm::Runtime::run(
      4,
      [&](comm::Comm& world) {
        std::vector<double> v(64, 1.0);
        const double m = median_seconds(kInfoReps, [&] {
          world.allreduce_sum(v.data(), static_cast<idx_t>(v.size()));
        });
        if (world.rank() == 0) med = m;
      },
      nullptr, nullptr, opts);
  return med * 1e6;
}

template <typename T>
la::Matrix<T> random_matrix(idx_t rows, idx_t cols, std::uint64_t seed) {
  CounterRng rng(seed);
  la::Matrix<T> m(rows, cols);
  for (idx_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<T>(rng.normal(i));
  }
  return m;
}

// -- cases ------------------------------------------------------------------

int comm_check_guard() {
  constexpr idx_t kN = 192;  // the bench_kernels GEMM shape family
  const auto a = random_matrix<double>(kN, kN, 1);
  const auto b = random_matrix<double>(kN, kN, 2);
  la::Matrix<double> c(kN, kN);
  const auto kernel = [&] {
    la::gemm(la::Op::none, la::Op::none, 1.0, a.cref(), b.cref(), 0.0,
             c.ref());
  };
  comm::RunOptions off;
  off.comm_check = 0;
  return verdict(
      "comm_check_guard", "standalone", "comm_check=off world",
      "comm_check=off", [&] { return standalone_vs_world(kernel, off); },
      [] {
        // Sanitizer on-cost: two extra barriers per collective.
        for (const int on : {0, 1}) {
          comm::RunOptions opts;
          opts.comm_check = on;
          std::printf(
              "comm_check_guard info: allreduce comm_check=%d %.3f us\n", on,
              allreduce_us(opts));
        }
      });
}

int metrics_guard() {
  constexpr idx_t kN = 48;  // mode size of the TTM workload
  constexpr idx_t kRank = 16;
  CounterRng rng(1);
  tensor::Tensor<double> x({kN, kN, kN});
  for (idx_t i = 0; i < x.size(); ++i) x[i] = rng.normal(i);
  const auto u = random_matrix<double>(kN, kRank, 2);
  // Allocates the output tensor every call: the TrackedBytes acquire in the
  // Tensor ctor and the AlignedBuffer pack scratch both run per repetition.
  const auto kernel = [&] {
    tensor::Tensor<double> y = tensor::ttm(x, 0, u.cref(), la::Op::transpose);
    (void)y;
  };
  return verdict(
      "metrics_guard", "standalone", "metrics-off world", "metrics-off",
      [&] { return standalone_vs_world(kernel, comm::RunOptions{}); },
      [&] {
        // Metrics-on: allocator tags update gauges, and CollectiveScope's
        // metrics timer reads the clock twice and updates two histograms.
        const double standalone = median_seconds(kInfoReps, kernel);
        std::vector<metrics::Registry> regs;
        comm::RunOptions on;
        on.rank_metrics = &regs;
        double metered = 0.0;
        comm::Runtime::run(
            1,
            [&](comm::Comm&) { metered = median_seconds(kInfoReps, kernel); },
            nullptr, nullptr, on);
        std::printf(
            "metrics_guard info: ttm metrics-on ratio %.4f (peak tensor "
            "bytes %.0f)\n",
            metered / standalone,
            regs.at(0).gauge(metrics::MemScope::tensor).peak);
        for (const bool metered_run : {false, true}) {
          std::vector<metrics::Registry> run_regs;
          comm::RunOptions opts;
          if (metered_run) opts.rank_metrics = &run_regs;
          std::printf("metrics_guard info: allreduce metrics=%d %.3f us\n",
                      metered_run ? 1 : 0, allreduce_us(opts));
        }
      });
}

int obs_guard() {
  constexpr int kP = 2;      // world size: collectives on the solve path
  constexpr int kReps = 61;  // interleaved repetitions per leg (median)
  const std::vector<idx_t> dims{24, 24, 24};
  const std::vector<idx_t> ranks{4, 4, 4};
  const auto measure = [&] {
    Legs legs;
    std::uint64_t recorded = 0;
    comm::Runtime::run(kP, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, {1, 1, kP});
      auto x = data::synthetic_tucker<double>(grid, dims, ranks, 1e-4, 7);
      core::HooiOptions opts;
      opts.max_iters = 2;
      const auto solve = [&] {
        auto res = core::hooi(x, ranks, opts);
        (void)res;
      };
      // Both legs run on every rank unconditionally, so the world's
      // collective schedules stay in lockstep across the comparison.
      solve();  // warmup
      std::vector<double> off_times, on_times;
      std::uint64_t on_records = 0;
      for (int r = 0; r < kReps; ++r) {
        {
          obs::ScopedFlightRecorder none(nullptr);
          off_times.push_back(time_call(solve));
        }
        const std::uint64_t before = obs::flight_recorder() != nullptr
                                         ? obs::flight_recorder()->total()
                                         : 0;
        on_times.push_back(time_call(solve));
        on_records += obs::flight_recorder() != nullptr
                          ? obs::flight_recorder()->total() - before
                          : 0;
      }
      if (world.rank() == 0) {
        legs.a = median(off_times);
        legs.b = median(on_times);
        recorded = on_records;
      }
    });
    legs.note = " (" + std::to_string(recorded) + " records over the on-leg)";
    return legs;
  };
  return verdict(
      "obs_guard", "recorder-off", "recorder-on", "flight-recorder", measure,
      [] {
        // Raw record() throughput of a standalone ring: the absolute
        // per-record cost the ratio above amortizes.
        obs::FlightRecorder ring;
        constexpr int kRecords = 1 << 16;
        const double t0 = now_s();
        for (int i = 0; i < kRecords; ++i) {
          ring.record(obs::RecordKind::collective_post, "allreduce", 4096.0);
        }
        const double per = (now_s() - t0) / kRecords;
        std::printf(
            "obs_guard info: record() %.1f ns/record (%llu total, %llu "
            "dropped)\n",
            per * 1e9, static_cast<unsigned long long>(ring.total()),
            static_cast<unsigned long long>(ring.dropped()));
      });
}

struct GuardCase {
  const char* name;
  int (*run)();
};

constexpr GuardCase kCases[] = {
    {"comm_check_guard", comm_check_guard},
    {"metrics_guard", metrics_guard},
    {"obs_guard", obs_guard},
};

}  // namespace

int main(int argc, char** argv) {
  for (const GuardCase& c : kCases) {
    if (argc == 2 && std::strcmp(argv[1], c.name) == 0) return c.run();
  }
  std::fprintf(stderr, "usage: %s <case>; cases:", argv[0]);
  for (const GuardCase& c : kCases) std::fprintf(stderr, " %s", c.name);
  std::fprintf(stderr, "\n");
  return 2;
}
