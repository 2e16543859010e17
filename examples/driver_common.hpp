#pragma once
// Shared machinery for the artifact-style drivers (sthosvd_driver,
// hooi_driver): command-line and parameter-file handling and report output.
// Input selection ("Input file" or "Dataset" = synthetic (default) |
// miranda | hcci | sp) is io::make_input (io/solver_params.hpp).

#include <cstdio>
#include <string>

#include "comm/runtime.hpp"
#include "io/solver_params.hpp"
#include "metrics/report.hpp"

namespace rahooi::examples {

inline io::ParamFile load_params(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--parameter-file" && i + 1 < argc) {
      path = argv[i + 1];
    }
  }
  RAHOOI_REQUIRE(!path.empty(),
                 "usage: driver --parameter-file <config file>");
  return io::ParamFile::load(path);
}

inline bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

/// Value of a `--name <value>` argument, or `fallback` when absent.
inline std::string arg_value(int argc, char** argv, const std::string& name,
                             const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return fallback;
}

/// The `--metrics-out` exports shared by the param-file drivers: the flat
/// aggregated `name{labels,stat} -> value` JSON at `path`, rank 0's JSONL
/// solver-telemetry event stream at the sibling path (events_path_for),
/// and a terminal summary of the top metrics (docs/OBSERVABILITY.md).
inline void write_metrics_outputs(
    const std::string& path, const std::vector<metrics::Registry>& regs) {
  metrics::write_metrics_json(path, regs);
  const std::string events_path = metrics::events_path_for(path);
  metrics::write_events_jsonl(events_path, regs.at(0));
  std::printf(
      "metrics: %zu rank registries; flat JSON written to %s, event log "
      "(%zu events) to %s\n",
      regs.size(), path.c_str(), regs.at(0).events().size(),
      events_path.c_str());
  std::printf(
      "top metrics by per-rank max:\n%s\n",
      metrics::aggregate_pretty(metrics::aggregate(regs), 12).c_str());
}

inline void print_timing_breakdown(const Stats& s) {
  std::printf("timing breakdown (rank 0):\n");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (s.seconds[i] <= 0.0 && s.flops[i] <= 0.0) continue;
    std::printf("  %-14s %8.3fs  %10.3f gflop  %8.3f MB sent\n",
                phase_name(static_cast<Phase>(i)), s.seconds[i],
                s.flops[i] / 1e9, s.comm_bytes_by_phase[i] / 1e6);
  }
}

}  // namespace rahooi::examples
