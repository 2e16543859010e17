// Overhead guard for the always-on flight recorder (docs/OBSERVABILITY.md
// "The live plane").
//
// Claim under test: the per-rank flight recorder that Runtime::run installs
// on every rank thread — recorder *on*, exporter off — costs under 1% on
// the solver hot path. Every instrument site (collective post/complete,
// span edges, fault hits, checkpoint writes) starts with one thread-local
// load and a branch, and a recording is one relaxed fetch_add plus a
// fixed-size slot write: no locks, no allocation. The guard runs the same
// small distributed HOOI solve twice inside one world — once with the
// recorder suppressed for the scope (ScopedFlightRecorder(nullptr), the
// counterfactual "site disabled" leg) and once with the default always-on
// recorder — and asserts the medians agree to <1%.
//
// Timing two legs of the same process to 1% is noise-sensitive, so the
// guard is self-relative, interleaves the two legs' repetitions
// (guard_timing.hpp), compares medians of many repetitions, and takes the
// best of several attempts before declaring a regression. A raw record()
// throughput figure is printed for information (deliberately not a guarded
// number). Exit code 0 = within budget, 1 = not.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "comm/runtime.hpp"
#include "core/hooi.hpp"
#include "data/synthetic.hpp"
#include "dist/dist_tensor.hpp"
#include "guard_timing.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using namespace rahooi;
using namespace rahooi::bench;
using la::idx_t;

}  // namespace

int main() {
  constexpr int kP = 2;           // world size: collectives on the solve path
  constexpr int kReps = 61;       // interleaved repetitions per leg (median)
  constexpr int kAttempts = 5;    // best-of attempts before failing
  constexpr double kBudget = 1.01;

  const std::vector<idx_t> dims{24, 24, 24};
  const std::vector<idx_t> ranks{4, 4, 4};

  double best_ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    double off = 0.0, on = 0.0;
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
        off = median(off_times);
        on = median(on_times);
        recorded = on_records;
      }
    });

    const double ratio = on / off;
    best_ratio = std::min(best_ratio, ratio);
    std::printf(
        "obs_guard attempt %d: recorder-off %.3f ms, recorder-on %.3f ms, "
        "ratio %.4f (%llu records over the on-leg)\n",
        attempt, off * 1e3, on * 1e3, ratio,
        static_cast<unsigned long long>(recorded));
    if (best_ratio < kBudget) break;
  }

  // Informational: raw record() throughput of a standalone ring (the
  // absolute per-record cost the ratio above amortizes).
  {
    obs::FlightRecorder ring;
    constexpr int kRecords = 1 << 16;
    const double t0 = now_s();
    for (int i = 0; i < kRecords; ++i) {
      ring.record(obs::RecordKind::collective_post, "allreduce", 4096.0);
    }
    const double per = (now_s() - t0) / kRecords;
    std::printf("obs_guard info: record() %.1f ns/record (%llu total, %llu "
                "dropped)\n",
                per * 1e9, static_cast<unsigned long long>(ring.total()),
                static_cast<unsigned long long>(ring.dropped()));
  }

  if (best_ratio >= kBudget) {
    std::fprintf(stderr,
                 "obs_guard FAIL: flight-recorder overhead ratio %.4f "
                 "exceeds budget %.2f\n",
                 best_ratio, kBudget);
    return 1;
  }
  std::printf("obs_guard OK: best ratio %.4f (budget %.2f)\n", best_ratio,
              kBudget);
  return 0;
}
