// rahooi end-to-end benchmark (README.md in this directory).
//
//   rahooi_e2ebench --workload ra-hcci|sthosvd-synth --seed N
//                   --seconds S --trace 0|1 [--size tiny|full]
//
// Prints a `run_record {...}` line and, last, one JSON line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// correctness check failed, 2 on bad arguments or an exception.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/stats.hpp"
#include "workloads.hpp"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The per-layer metrics of the traced run. A metric whose layer the
// workload does not exercise is reported as 0 with 0 samples.
const std::vector<MetricName> kPerLayer = {
    {"data.gen_s", "s"},
    {"comm.spawn_s", "s"},
    {"comm.bytes", "B"},
    {"comm.messages", "count"},
    {"comm.wait_s", "s"},
    {"dist.ttm_s", "s"},
    {"dist.ttm_flops", "flop"},
    {"dist.ttm_gflops", "GF/s"},
    {"dist.gram_s", "s"},
    {"dist.gram_flops", "flop"},
    {"dist.contraction_s", "s"},
    {"tensor.ttm_root_s", "s"},
    {"tensor.ttm_root_roofline_frac", "ratio"},
    {"la.evd_s", "s"},
    {"la.evd_flops", "flop"},
    {"la.qr_s", "s"},
    {"la.gemm_gflops_f32", "GF/s"},
    {"la.gemm_gflops_f64", "GF/s"},
    {"la.stream_gbps", "GB/s"},
    {"core.core_analysis_s", "s"},
    {"core.other_s", "s"},
    {"core.sweep_s", "s"},
    {"core.sweeps", "count"},
    {"core.ra_iterations", "count"},
    {"core.dt_memo_peak_mb", "MB"},
    {"serve.jobs_per_s", "1/s"},
    {"serve.job_latency_p50_s", "s"},
    {"serve.job_latency_p95_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_peak", "count"},
    {"serve.solve_p50_s", "s"},
    {"serve.ranks_used_mean", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"model.plan_s", "s"},
    {"prof.trace_overhead_frac", "ratio"},
};

/// A world spawn that does nothing: the fixed cost every serve job and
/// every solve's Runtime::run pays.
void spawn_probe(const e2e::Args& args, e2e::Result& result) {
  std::vector<double> spawn_s;
  for (int rep = 0; rep < (args.tiny ? 10 : 50); ++rep) {
    const double t0 = rahooi::stats::now();
    rahooi::comm::Runtime::run(4, [](rahooi::comm::Comm&) {});
    spawn_s.push_back(rahooi::stats::now() - t0);
  }
  result.metric("comm.spawn_s", e2e::median(spawn_s), "s", spawn_s.size());
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, &args)) return 2;
  if (args.workload != "ra-hcci" && args.workload != "sthosvd-synth") {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  e2e::Result result;
  try {
    e2e::run_solve_workload(args, result);
    if (args.trace) {
      spawn_probe(args, result);
      e2e::run_serve_probe(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2ebench] %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.trace) {
    for (const MetricName& m : kPerLayer) {
      if (!result.has_metric(m.name)) result.metric(m.name, 0.0, m.unit, 0);
    }
  }
  result.print(args);
  return result.failed() == 0 && result.attempted() > 0 ? 0 : 1;
}
