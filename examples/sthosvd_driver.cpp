// STHOSVD driver, mirroring the paper artifact's `sthosvd` binary: all
// settings come from a TuckerMPI-style parameter file.
//
//   ./sthosvd_driver --parameter-file STHOSVD.cfg
//                    [--metrics-out <metrics.json>]
//
// --metrics-out (or a "Metrics file" key) enables the metrics layer and
// writes the aggregated flat metrics JSON plus the JSONL solver-telemetry
// event log (one "solve" event) — see docs/OBSERVABILITY.md.
//
// Example configuration (artifact appendix B.1):
//   Print options = true
//   Print timings = true
//   Noise = 0.0001
//   SV Threshold = 0.0        # 0 -> fixed-rank mode using "Ranks"
//   Perform STHOSVD = true
//   Processor grid dims = 1 2 2 2
//   Global dims = 100 100 100 100
//   Ranks = 10 10 10 10
//   Single precision = true

#include <cstdio>

#include "common/stopwatch.hpp"
#include "core/sthosvd.hpp"
#include "driver_common.hpp"
#include "example_util.hpp"

using namespace rahooi;

namespace {

template <typename T>
int run(const io::ParamFile& params, const std::string& metrics_out) {
  const auto dims = params.get_dims("Global dims");
  const auto ranks = params.get_dims("Ranks");
  const auto gdims = params.get_ints("Processor grid dims");
  const double threshold = params.get_double("SV Threshold", 0.0);
  const bool timings = params.get_bool("Print timings", false);
  RAHOOI_REQUIRE(!dims.empty(), "'Global dims' is required");
  RAHOOI_REQUIRE(!gdims.empty(), "'Processor grid dims' is required");
  RAHOOI_REQUIRE(threshold > 0.0 || !ranks.empty(),
                 "either 'SV Threshold' > 0 or 'Ranks' must be given");

  int p = 1;
  for (const int g : gdims) p *= g;

  std::vector<Stats> per_rank;
  std::vector<metrics::Registry> rank_metrics;
  comm::RunOptions run_opts;
  if (!metrics_out.empty()) run_opts.rank_metrics = &rank_metrics;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, gdims);
        auto x = io::make_input<T>(params, grid, dims, ranks);
        world.barrier();
        Stopwatch clock;
        auto res = threshold > 0.0 ? core::sthosvd(x, threshold)
                                   : core::sthosvd_fixed_rank(x, ranks);
        world.barrier();
        const std::string output = params.get_string("Output file", "");
        if (!output.empty()) {
          auto tucker = res.replicated();  // collective gather
          if (world.rank() == 0) io::write_tucker(tucker, output);
        }
        if (world.rank() == 0) {
          examples::print_result("STHOSVD", res, clock.elapsed());
          if (!output.empty()) {
            std::printf("compressed Tucker tensor written to %s\n",
                        output.c_str());
          }
        }
      },
      &per_rank, nullptr, run_opts);
  if (timings) examples::print_timing_breakdown(per_rank[0]);
  if (!metrics_out.empty()) {
    examples::write_metrics_outputs(metrics_out, rank_metrics);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (examples::has_flag(argc, argv, "--help")) {
    std::printf(
        "usage: sthosvd_driver --parameter-file <file.cfg>\n"
        "                      [--metrics-out <metrics.json>]\n\n"
        "parameter keys (io::param_key_table):\n%s",
        io::param_help("sthosvd").c_str());
    return 0;
  }
  try {
    const io::ParamFile params = examples::load_params(argc, argv);
    if (params.get_bool("Print options", false)) {
      std::printf("parsed options:\n%s\n", params.to_string().c_str());
    }
    RAHOOI_REQUIRE(params.get_bool("Perform STHOSVD", true),
                   "'Perform STHOSVD' is false; nothing to do");
    const std::string metrics_out = examples::arg_value(
        argc, argv, "--metrics-out", params.get_string("Metrics file", ""));
    return params.get_bool("Single precision", true)
               ? run<float>(params, metrics_out)
               : run<double>(params, metrics_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
