// End-to-end solver benchmark: one P=4 rank-adaptive HOSI-DT solve of the
// Miranda-like dataset, run with per-rank metrics Registries installed, and
// emitted as a flat BENCH_solver.json snapshot. tools/bench_diff compares a
// fresh emission against the committed repo-root baseline (bench-diff ctest
// label, tests/CMakeLists.txt): every field except `seconds` is
// deterministic under the scheduled simulated runtime, so convergence
// regressions (more iterations, worse error, larger ranks), work
// regressions (flop/byte counts), and telemetry regressions (missing
// events or counters) all show up as a diff.
//
//   ./bench_solver [out.json]     (default BENCH_solver.json)
//
// A second section runs the HOSI-DT solver with its random cold start on
// miranda_like and hcci_like at eps = 0.1 and 0.01, from start ranks that
// overshoot or undershoot: the per-config flop totals and relative errors
// (`*_baseline_flops`, `*_baseline_rel_error`) are deterministic and gated;
// the wall-clock `*_baseline_seconds` fields are emitted for the record but
// ignored by the gate.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "data/science.hpp"

using namespace rahooi;
using namespace rahooi::bench;

namespace {

/// One rank-adaptive solve of a comparison config.
struct CompareRun {
  double flops = 0.0;
  double rel_error = 0.0;
  double seconds = 0.0;
};

struct CompareCfg {
  std::string name;
  double eps;
  std::vector<int> gdims;
  std::vector<idx_t> start_ranks;
  std::function<dist::DistTensor<double>(const dist::ProcessorGrid&)> make;
};

CompareRun ra_compare_run(int p, const CompareCfg& cfg) {
  core::RankAdaptiveResult<double> ra;
  const RunResult run = timed_run(p, [&](comm::Comm& world) {
    auto grid = std::make_shared<dist::ProcessorGrid>(world, cfg.gdims);
    auto x = std::make_shared<dist::DistTensor<double>>(cfg.make(*grid));
    return std::function<void()>([grid, x, &world, &ra, &cfg] {
      core::RankAdaptiveOptions opt;
      opt.tolerance = cfg.eps;
      opt.max_iters = 6;
      opt.continue_after_satisfied = false;
      auto res = core::rank_adaptive_hooi(*x, cfg.start_ranks, opt);
      if (world.rank() == 0) ra = std::move(res);
    });
  });
  CompareRun out;
  out.flops = run.stats.total_flops();
  out.rel_error = ra.rel_error;
  out.seconds = run.seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_solver.json";
  const int p = 4;
  const idx_t n = 48;
  const double eps = 0.05;

  core::RankAdaptiveResult<double> ra;
  const RunResult run = timed_run(
      p,
      [&](comm::Comm& world) {
        auto grid =
            std::make_shared<dist::ProcessorGrid>(world, std::vector<int>{1, 2, 2});
        auto x = std::make_shared<dist::DistTensor<double>>(
            data::miranda_like<double>(*grid, n));
        return std::function<void()>([grid, x, &world, &ra, eps] {
          core::RankAdaptiveOptions opt;
          opt.tolerance = eps;
          auto res = core::rank_adaptive_hooi(
              *x, std::vector<idx_t>{4, 4, 4}, opt);
          if (world.rank() == 0) ra = std::move(res);
        });
      },
      /*profile=*/false, /*metrics=*/true);

  const metrics::Registry& reg = run.registries.at(0);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_solver: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"iterations\": %zu,\n", ra.iterations.size());
  std::fprintf(f, "  \"satisfied\": %d,\n", ra.satisfied ? 1 : 0);
  std::fprintf(f, "  \"rel_error\": %.12g,\n", ra.rel_error);
  std::fprintf(f, "  \"compressed_size\": %lld,\n",
               static_cast<long long>(ra.compressed_size));
  for (std::size_t j = 0; j < ra.tucker.factors.size(); ++j) {
    std::fprintf(f, "  \"rank_%zu\": %lld,\n", j,
                 static_cast<long long>(ra.tucker.factors[j].cols()));
  }
  std::fprintf(f, "  \"flops\": %.12g,\n", run.stats.total_flops());
  std::fprintf(f, "  \"comm_bytes\": %.12g,\n", run.stats.total_comm_bytes());
  std::fprintf(f, "  \"solver_sweeps\": %llu,\n",
               static_cast<unsigned long long>(
                   reg.counter(metrics::Counter::solver_sweeps)));
  std::fprintf(f, "  \"events\": %zu,\n", reg.events().size());
  std::fprintf(f, "  \"fallbacks\": %llu,\n",
               static_cast<unsigned long long>(ra.report.fallbacks));
  std::fprintf(f, "  \"retries\": %llu,\n",
               static_cast<unsigned long long>(ra.report.retries));

  // Start ranks model realistic bad guesses — overshoot where eps = 0.1
  // truncates far below the guess, undershoot (down to the zero-knowledge
  // {1,...,1}) where eps = 0.01 needs growth rounds.
  const auto miranda96 = [](const dist::ProcessorGrid& g) {
    return data::miranda_like<double>(g, 96);
  };
  const auto miranda = [](const dist::ProcessorGrid& g) {
    return data::miranda_like<double>(g, 32);
  };
  const auto hcci = [](const dist::ProcessorGrid& g) {
    return data::hcci_like<double>(g, 32, 32, 8, 16);
  };
  const std::vector<CompareCfg> cfgs{
      {"miranda_eps0.1", 0.1, {1, 2, 2}, {24, 24, 24}, miranda96},
      {"miranda_eps0.01", 0.01, {1, 2, 2}, {1, 1, 1}, miranda},
      {"hcci_eps0.1", 0.1, {1, 2, 2, 1}, {4, 4, 2, 2}, hcci},
      {"hcci_eps0.01", 0.01, {1, 2, 2, 1}, {2, 2, 2, 2}, hcci},
  };
  for (const auto& cfg : cfgs) {
    const CompareRun base = ra_compare_run(p, cfg);
    const char* c = cfg.name.c_str();
    std::fprintf(f, "  \"%s_baseline_flops\": %.12g,\n", c, base.flops);
    std::fprintf(f, "  \"%s_baseline_rel_error\": %.12g,\n", c,
                 base.rel_error);
    std::fprintf(f, "  \"%s_baseline_seconds\": %.6f,\n", c, base.seconds);
    std::printf("bench_solver[%s]: %.3g flops err %.4g (%.2fs)\n", c,
                base.flops, base.rel_error, base.seconds);
  }

  std::fprintf(f, "  \"seconds\": %.6f\n", run.seconds);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "bench_solver: %d iterations, rel_error %.4g, ranks %s, "
      "%zu events; report written to %s\n",
      static_cast<int>(ra.iterations.size()), ra.rel_error,
      dims_to_string(ra.tucker.ranks()).c_str(), reg.events().size(),
      path.c_str());
  return 0;
}
