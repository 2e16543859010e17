#pragma once
// The wrapper every solver shares. A SolveSession owns everything around a
// solver's math: the collective hang watchdog, the root span, the restore
// checks common to all checkpoints, cooperative preemption, the
// solver-level fault site, the per-step telemetry event deltas, the rank-0
// checkpoint save, and the SolveReport's closing ledger fields. A sweeping
// solver (hooi, rank_adaptive_hooi) is its math loop bracketed by
// begin_step() / step_done(); a one-shot solver (sthosvd) log()s one event.

#include <cstdint>
#include <functional>
#include <optional>

#include "common/stats.hpp"
#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "core/solve_report.hpp"
#include "dist/dist_tensor.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

/// Counts one fallback decision in both ledgers — the SolveReport and the
/// metrics counter — at the same site, so SolveReport::fallbacks and
/// Counter::solver_fallbacks agree exactly over a solve.
void count_fallback(SolveReport& report);

template <typename T>
class SolveSession {
 public:
  /// Opens the solve `name` ("hooi", "ra", "sthosvd"): arms
  /// options.collective_timeout_ms on x's world, opens the root span `name`
  /// (Phase::other, so the per-phase seconds sum to the solve's wall time),
  /// and takes the retry baseline of `report` and the first step's
  /// telemetry baseline. `kind` tags the checkpoints saved and restored.
  /// A one-shot solver passes neither options nor report.
  SolveSession(const dist::DistTensor<T>& x, const char* name,
               HooiOptions options = {}, SolveReport* report = nullptr,
               CheckpointKind kind = CheckpointKind::hooi);

  /// The checkpoint at options.restore_path (nullopt when unset), checked
  /// for what every solver shares: this session's kind and seed, x's order
  /// and dims, and fewer than `max_iters` completed steps. Every rank reads
  /// the replicated file itself, so a corrupt file fails identically
  /// everywhere.
  std::optional<SweepCheckpoint<T>> restore(int max_iters) const;

  /// Opens the step after `done` completed ones. Cooperative yield (serve
  /// preemption) first: rank 0 reads options.yield_flag and broadcasts the
  /// verdict, so every rank throws PreemptedError at the same boundary,
  /// with the previous step's checkpoint on disk and no collective torn.
  /// Then the fault site ("kill:sweep@R#N" kills rank R entering its Nth
  /// step) and the step's telemetry baseline.
  void begin_step(int done);

  /// Wall time since the step's baseline.
  double step_seconds() const { return stats::now() - t0_; }

  /// Closes the step. With options.checkpoint_path set, rank 0 saves
  /// make_checkpoint() (solver state is replicated) stamped with the kind,
  /// seed, and step count. Then `ev` is log()ged with the 1-based step
  /// index and the step's retry and fallback deltas, and counted in
  /// Counter::solver_sweeps.
  void step_done(metrics::Event ev,
                 const std::function<SweepCheckpoint<T>()>& make_checkpoint);

  /// Logs `ev` under the session name with the flops and collective bytes
  /// spent since the step's baseline. A no-op without a metrics registry.
  void log(metrics::Event ev);

  /// Fills the report's retries, metrics snapshot, and trace id.
  void finish();

 private:
  void take_baseline();

  const dist::DistTensor<T>& x_;
  const char* name_;
  const HooiOptions options_;
  SolveReport* report_;
  CheckpointKind kind_;
  metrics::Registry* const mreg_;
  const std::uint64_t retries0_;
  prof::TraceSpan root_;

  int step_ = 0;  ///< 1-based index of the open step
  const Stats* st_ = nullptr;
  double flops0_ = 0.0;
  double bytes0_ = 0.0;
  double t0_ = 0.0;
  std::uint64_t step_retries0_ = 0;
  std::uint64_t step_fallbacks0_ = 0;
};

}  // namespace rahooi::core
