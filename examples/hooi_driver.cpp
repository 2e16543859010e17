// HOOI driver, mirroring the paper artifact's `hooi` binary. The four HOOI
// variants are selected exactly as in the artifact's table, plus the
// sketched backends of this library:
//
//   variant       Dimension Tree Memoization   SVD Method
//   HOOI          false                        0
//   HOOI-DT       true                         0
//   HOSI          false                        2
//   HOSI-DT       true                         2
//   HOSK(-DT)     either                       3  (Gaussian sketch)
//   HOSK-KRP(-DT) either                       4  (Khatri-Rao sketch)
//
// "SVD Method = -1" asks the cost model to pick the cheapest LLSV backend
// for the problem shape (model::pick_llsv_backend). The sketched backends
// read the optional knobs "Sketch Oversample" (default 8), "Sketch Min
// Cols" (16), "Sketch Growth" (2.0), "Sketch Safety" (0.5) and "Sketch
// Deterministic" (false; bitwise grid-invariant fixed-point apply).
//
// "HOOI-Adapt Threshold" > 0 enables the rank-adaptive (error-specified)
// driver (paper Alg. 3) with that epsilon; 0 runs fixed-rank HOOI. The
// rank-adaptive start is controlled by "RA Init" = random (default, the
// Alg. 3 cold start) or sketched (randomized ST-HOSVD warm start).
//
//   ./hooi_driver --parameter-file HOOI.cfg [--profile] [--restore]
//               [--metrics-out <metrics.json>]
//
// --profile records a per-rank hierarchical span trace of the run and
// writes it as Chrome trace_event JSON ("Trace file" key, default
// trace.json); see docs/PROFILING.md.
//
// --metrics-out (or a "Metrics file" key) enables the metrics layer:
// per-rank counters/histograms/peak-memory gauges aggregated into a flat
// JSON file, plus a JSONL solver-telemetry event log at the sibling
// path — see docs/OBSERVABILITY.md.
//
// --restore resumes a solve (fixed-rank or rank-adaptive) from the
// "Checkpoint file" written by a previous (interrupted) run; "Collective
// timeout ms" arms the hang watchdog and "Fault plan" installs
// deterministic fault injection — see docs/ROBUSTNESS.md.
//
// Example configuration (artifact appendix B.1):
//   Print options = true
//   Print timings = true
//   Dimension Tree Memoization = false
//   Noise = 0.0001
//   HOOI-Adapt Threshold = 0.0
//   HOOI max iters = 2
//   SVD Method = 0
//   Processor grid dims = 1 2 2 1
//   Global dims = 100 100 100 100
//   Construction Ranks = 10 10 10 10
//   Decomposition Ranks = 10 10 10 10

#include <cstdio>
#include <optional>

#include "common/stopwatch.hpp"
#include "core/rank_adaptive.hpp"
#include "driver_common.hpp"
#include "example_util.hpp"
#include "fault/fault.hpp"
#include "prof/report.hpp"

using namespace rahooi;

namespace {

template <typename T>
int run(const io::ParamFile& params, bool profile, bool restore,
        const std::string& metrics_out) {
  const auto dims = params.get_dims("Global dims");
  auto construction = params.get_dims("Construction Ranks");
  auto decomposition = params.get_dims("Decomposition Ranks");
  const auto gdims = params.get_ints("Processor grid dims");
  RAHOOI_REQUIRE(!dims.empty(), "'Global dims' is required");
  RAHOOI_REQUIRE(!gdims.empty(), "'Processor grid dims' is required");
  RAHOOI_REQUIRE(!decomposition.empty(),
                 "'Decomposition Ranks' is required");
  if (construction.empty()) construction = decomposition;

  io::SolverOptions opts =
      io::solver_options(params, dims, decomposition, gdims);
  core::HooiOptions& hooi_opts = opts.ra.hooi;
  if (params.get_int("SVD Method", 0) == -1) {
    std::printf("SVD Method = -1 (auto): cost model picked method %d\n",
                static_cast<int>(hooi_opts.svd_method));
  }
  if (restore) {
    RAHOOI_REQUIRE(!hooi_opts.checkpoint_path.empty(),
                   "--restore needs a 'Checkpoint file' parameter naming the "
                   "checkpoint to resume from");
    hooi_opts.restore_path = hooi_opts.checkpoint_path;
  }
  const bool timings = params.get_bool("Print timings", false);

  // Deterministic fault injection ("Fault plan" / "Fault seed"): installed
  // process-wide for the whole run, used by the robustness ctest cases.
  std::optional<fault::ScopedPlan> fault_guard;
  const std::string fault_spec = params.get_string("Fault plan", "");
  if (!fault_spec.empty()) {
    fault_guard.emplace(fault::Plan::parse(
        fault_spec,
        static_cast<std::uint64_t>(params.get_int("Fault seed", 1))));
    std::printf("fault plan installed: %s\n", fault_spec.c_str());
  }

  std::printf("variant: %s%s\n", core::variant_name(hooi_opts).c_str(),
              opts.adaptive ? " (rank-adaptive)" : " (fixed rank)");

  int p = 1;
  for (const int g : gdims) p *= g;

  std::vector<Stats> per_rank;
  std::vector<prof::Recorder> traces;
  std::vector<metrics::Registry> rank_metrics;
  comm::RunOptions run_opts;
  if (!metrics_out.empty()) run_opts.rank_metrics = &rank_metrics;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, gdims);
        auto x = io::make_input<T>(params, grid, dims, construction);
        world.barrier();
        Stopwatch clock;
        if (opts.adaptive) {
          auto res = core::rank_adaptive_hooi(x, decomposition, opts.ra);
          world.barrier();
          const std::string output = params.get_string("Output file", "");
          if (!output.empty() && world.rank() == 0) {
            io::write_tucker(res.tucker, output);
            std::printf("compressed Tucker tensor written to %s\n",
                        output.c_str());
          }
          if (world.rank() == 0 && res.report.degraded()) {
            std::printf("solve degraded (numerical fallbacks taken):\n%s",
                        res.report.to_string().c_str());
          }
          if (world.rank() == 0) {
            if (restore) {
              std::printf("restored from %s (%zu total iterations incl. the "
                          "checkpointed ones)\n",
                          hooi_opts.restore_path.c_str(),
                          res.iterations.size());
            }
            for (const auto& it : res.iterations) {
              std::printf("iteration %d: error %.4e after ranks %s -> %s\n",
                          it.index, it.rel_error,
                          examples::dims_to_string(it.sweep_ranks).c_str(),
                          it.satisfied ? "satisfied" : "grow");
            }
            std::printf("final: ranks %s rel_error %.4e compression %.1fx "
                        "(%.3fs)\n",
                        examples::dims_to_string(res.tucker.ranks()).c_str(),
                        res.rel_error, res.tucker.compression_ratio(),
                        clock.elapsed());
          }
        } else {
          auto res = core::hooi(x, decomposition, hooi_opts);
          world.barrier();
          const std::string output = params.get_string("Output file", "");
          if (!output.empty()) {
            auto tucker = res.decomposition.replicated();  // collective
            if (world.rank() == 0) {
              io::write_tucker(tucker, output);
              std::printf("compressed Tucker tensor written to %s\n",
                          output.c_str());
            }
          }
          if (world.rank() == 0) {
            if (restore) {
              std::printf("restored from %s (%d total sweeps incl. the "
                          "checkpointed ones)\n",
                          hooi_opts.restore_path.c_str(), res.iterations);
            }
            if (res.report.degraded()) {
              std::printf("solve degraded (numerical fallbacks taken):\n%s",
                          res.report.to_string().c_str());
            }
            for (std::size_t i = 0; i < res.error_history.size(); ++i) {
              std::printf("iteration %zu: approximation error %.6e\n", i + 1,
                          res.error_history[i]);
            }
            examples::print_result(core::variant_name(hooi_opts).c_str(),
                                   res.decomposition, clock.elapsed());
          }
        }
      },
      &per_rank, profile ? &traces : nullptr, run_opts);
  if (timings) examples::print_timing_breakdown(per_rank[0]);
  if (!metrics_out.empty()) {
    examples::write_metrics_outputs(metrics_out, rank_metrics);
  }
  if (profile) {
    const std::string trace_path =
        params.get_string("Trace file", "trace.json");
    prof::write_chrome_trace(trace_path, traces);
    std::size_t events = 0;
    for (const auto& t : traces) events += t.events().size();
    std::printf("profile: %zu spans on %d ranks; Chrome trace written to %s "
                "(open at chrome://tracing or https://ui.perfetto.dev)\n",
                events, p, trace_path.c_str());
    std::printf("top spans by per-rank max inclusive time:\n%s\n",
                prof::aggregate_pretty(prof::aggregate(traces), 12).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (examples::has_flag(argc, argv, "--help")) {
    std::printf(
        "usage: hooi_driver --parameter-file <file.cfg> [--profile]\n"
        "                   [--restore] [--metrics-out <metrics.json>]\n\n"
        "parameter keys (io::param_key_table):\n%s",
        io::param_help("hooi").c_str());
    return 0;
  }
  try {
    const io::ParamFile params = examples::load_params(argc, argv);
    if (params.get_bool("Print options", false)) {
      std::printf("parsed options:\n%s\n", params.to_string().c_str());
    }
    // `--profile` (or `Profile = true` in the parameter file) traces the run
    // with per-rank prof::Recorders and writes a Chrome trace_event JSON to
    // "Trace file" (default trace.json).
    const bool profile = examples::has_flag(argc, argv, "--profile") ||
                         params.get_bool("Profile", false);
    // `--restore` resumes a checkpointed fixed-rank solve from the
    // "Checkpoint file" path (see docs/ROBUSTNESS.md).
    const bool restore = examples::has_flag(argc, argv, "--restore");
    // `--metrics-out <file.json>` (or "Metrics file" in the parameter file)
    // enables the metrics layer and writes the aggregated flat JSON plus
    // the JSONL event log (see docs/OBSERVABILITY.md).
    const std::string metrics_out = examples::arg_value(
        argc, argv, "--metrics-out", params.get_string("Metrics file", ""));
    return params.get_bool("Single precision", true)
               ? run<float>(params, profile, restore, metrics_out)
               : run<double>(params, profile, restore, metrics_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
