#include "core/rank_adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/solve_session.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

template <typename T>
la::Matrix<T> grow_factor(const la::Matrix<T>& u, idx_t new_rank,
                          std::uint64_t seed) {
  const idx_t n = u.rows();
  const idx_t r = u.cols();
  RAHOOI_REQUIRE(new_rank >= r && new_rank <= n,
                 "grow_factor: new rank must be in [current rank, n]");
  if (new_rank == r) return u;

  // QR of [U | random]: since U is orthonormal, Q's leading r columns equal
  // U up to sign and the rest are a random orthonormal complement.
  CounterRng rng(seed);
  la::Matrix<T> ext(n, new_rank);
  for (idx_t j = 0; j < r; ++j) {
    for (idx_t i = 0; i < n; ++i) ext(i, j) = u(i, j);
  }
  for (idx_t j = r; j < new_rank; ++j) {
    for (idx_t i = 0; i < n; ++i) {
      ext(i, j) = static_cast<T>(rng.normal(i + j * n));
    }
  }
  la::Matrix<T> q = la::orthonormalize<T>(ext.cref());
  // Restore the original leading columns exactly (QR may flip signs).
  for (idx_t j = 0; j < r; ++j) {
    if (la::dot(n, q.data() + j * n, u.data() + j * n) < T{0}) {
      la::scal(n, T{-1}, q.data() + j * n);
    }
  }
  return q;
}

namespace {

/// Per-mode slice energies of the (gathered) core: out[j][i] is the squared
/// norm of the core slice with index i in mode j.
template <typename T>
std::vector<std::vector<double>> slice_energies(
    const tensor::Tensor<T>& core) {
  const int d = core.ndims();
  std::vector<std::vector<double>> energy(d);
  for (int j = 0; j < d; ++j) energy[j].assign(core.dim(j), 0.0);
  std::vector<idx_t> idx(d, 0);
  for (idx_t lin = 0; lin < core.size(); ++lin) {
    const double sq = static_cast<double>(core[lin]) * core[lin];
    for (int j = 0; j < d; ++j) energy[j][idx[j]] += sq;
    for (int j = 0; j < d; ++j) {
      if (++idx[j] < core.dim(j)) break;
      idx[j] = 0;
    }
  }
  return energy;
}

/// Mode-wise adaptation (AdaptStrategy::modewise): returns the new rank for
/// each mode given the slice spectra of the unsatisfied iterate.
std::vector<idx_t> modewise_new_ranks(
    const std::vector<std::vector<double>>& energy,
    const std::vector<idx_t>& dims, double core_norm_sq,
    double per_mode_budget_sq, const RankAdaptiveOptions& options) {
  const int d = static_cast<int>(energy.size());
  std::vector<idx_t> next(d);
  bool any_grew = false;
  int best_mode = 0;
  double best_tail = -1.0;
  for (int j = 0; j < d; ++j) {
    const auto& e = energy[j];
    const idx_t r = static_cast<idx_t>(e.size());
    // Contract: drop trailing slices while their cumulative energy stays
    // far inside the per-mode error budget.
    const double contract_tol =
        options.modewise_contract_fraction * per_mode_budget_sq;
    idx_t keep = r;
    double tail = 0.0;
    while (keep > 1 && tail + e[keep - 1] <= contract_tol) {
      tail += e[keep - 1];
      --keep;
    }
    // Expand: the spectrum has not decayed if the last kept slice still
    // holds a non-negligible share of the average slice energy.
    const double avg = core_norm_sq / std::max<double>(1.0, double(r));
    const double last = e[keep - 1];
    idx_t grown = keep;
    if (last > options.modewise_expand_fraction * avg) {
      grown = std::min<idx_t>(
          dims[j], std::max<idx_t>(
                       keep + 1,
                       static_cast<idx_t>(std::ceil(
                           options.growth_factor * double(keep)))));
    }
    if (grown > static_cast<idx_t>(e.size())) any_grew = true;
    if (last > best_tail && static_cast<idx_t>(e.size()) < dims[j]) {
      best_tail = last;
      best_mode = j;
    }
    next[j] = grown;
  }
  // Progress guarantee: if no mode expanded beyond its current rank, grow
  // the mode whose spectrum is flattest (largest trailing slice energy).
  if (!any_grew) {
    next[best_mode] =
        std::min<idx_t>(dims[best_mode], next[best_mode] + 1);
  }
  return next;
}

}  // namespace

template <typename T>
RankAdaptiveResult<T> rank_adaptive_hooi(
    const dist::DistTensor<T>& x, const std::vector<idx_t>& initial_ranks,
    const RankAdaptiveOptions& options) {
  const int d = x.ndims();
  RAHOOI_REQUIRE(static_cast<int>(initial_ranks.size()) == d,
                 "rank_adaptive_hooi: one initial rank per mode required");
  validate(options);
  RankAdaptiveResult<T> out;
  SolveSession<T> session(x, "ra", options.hooi, &out.report,
                          CheckpointKind::rank_adaptive);
  out.x_norm_sq = x.norm_squared();
  const double target_sq =
      (1.0 - options.tolerance * options.tolerance) * out.x_norm_sq;

  std::vector<idx_t> ranks = initial_ranks;
  for (int j = 0; j < d; ++j) {
    ranks[j] = std::min(ranks[j], x.global_dim(j));
    RAHOOI_REQUIRE(ranks[j] >= 1, "initial ranks must be positive");
  }
  std::vector<la::Matrix<T>> factors;
  int start = 0;
  if (auto ck = session.restore(options.max_iters)) {
    // Resume from a rank-adaptive checkpoint: the rank trajectory, the
    // replicated factors, and the best satisfied decomposition so far are
    // restored, and the loop continues at the recorded iteration. Because
    // the growth seeds are iteration-indexed and the RNG is counter-based,
    // the remaining iterations replay bitwise identically to the
    // uninterrupted run.
    ranks = ck->ranks;
    factors = std::move(ck->factors);
    start = static_cast<int>(ck->sweeps_done);
    out.satisfied = ck->ra_satisfied;
    if (ck->ra_satisfied) {
      out.rel_error = ck->ra_best_rel_error;
      out.compressed_size = static_cast<idx_t>(ck->ra_best_size);
      out.tucker = std::move(ck->best);
    }
    // Reseed the iteration log with the last completed iteration's summary
    // so the unsatisfied-fallback path below keeps working when the resumed
    // run also never satisfies the tolerance.
    out.iterations.push_back({.index = start,
                              .sweep_ranks = ranks,
                              .rel_error = ck->ra_last_rel_error,
                              .satisfied = ck->ra_satisfied,
                              .ranks_after = ranks,
                              .compressed_size = ck->ra_last_size,
                              .rel_error_after = ck->ra_last_rel_error});
  } else {
    factors = random_factors<T>(x.global_dims(), ranks, options.hooi.seed);
  }

  for (int iter = start + 1; iter <= options.max_iters; ++iter) {
    prof::TraceSpan iter_span("iteration", static_cast<std::int64_t>(iter));
    session.begin_step(iter - 1);
    RaIterationRecord rec;
    rec.index = iter;
    rec.sweep_ranks = ranks;

    x.grid().world().barrier();
    Stopwatch sweep_clock;
    dist::DistTensor<T> core =
        hooi_sweep(x, factors, ranks, options.hooi, iter, &out.report);
    const double core_norm_sq = core.norm_squared();
    x.grid().world().barrier();
    rec.seconds = sweep_clock.elapsed();

    rec.rel_error =
        std::sqrt(std::max(0.0, out.x_norm_sq - core_norm_sq) /
                  out.x_norm_sq);
    rec.satisfied = core_norm_sq >= target_sq;

    if (rec.satisfied) {
      // Gather the core (allgather cost r^d, §3.2) and run the eq. (3)
      // analysis replicated on every rank.
      Stopwatch analysis_clock;
      tensor::Tensor<T> full_core;
      CoreAnalysis analysis;
      {
        prof::TraceSpan t("core_analysis", Phase::core_analysis);
        full_core = core.allgather_full();
        analysis = analyze_core(full_core, x.global_dims(), target_sq);
      }
      rec.core_analysis_seconds = analysis_clock.elapsed();
      RAHOOI_DEBUG_ASSERT(analysis.feasible);

      tensor::TuckerTensor<T> candidate;
      candidate.core = std::move(full_core);
      candidate.factors = factors;
      candidate.truncate(analysis.ranks);

      rec.ranks_after = analysis.ranks;
      rec.compressed_size = analysis.compressed_size;
      rec.rel_error_after = std::sqrt(
          std::max(0.0, out.x_norm_sq - analysis.kept_norm_sq) /
          out.x_norm_sq);

      if (!out.satisfied || rec.compressed_size < out.compressed_size) {
        out.satisfied = true;
        out.compressed_size = rec.compressed_size;
        out.rel_error = rec.rel_error_after;
        out.tucker = std::move(candidate);
      }

      // Alg. 3 line 7: continue iterating from the truncated decomposition.
      ranks = analysis.ranks;
      for (int j = 0; j < d; ++j) {
        factors[j] = factors[j].leading_block(factors[j].rows(), ranks[j]);
      }
    } else {
      std::vector<idx_t> next(d);
      if (options.strategy == AdaptStrategy::modewise) {
        // Mode-wise expansion/contraction driven by the core's per-mode
        // slice spectra (Xiao & Yang-style, §2.3).
        prof::TraceSpan t("modewise_analysis", Phase::core_analysis);
        const tensor::Tensor<T> full_core = core.allgather_full();
        const double per_mode_budget_sq =
            options.tolerance * options.tolerance * out.x_norm_sq / d;
        next = modewise_new_ranks(slice_energies(full_core),
                                  x.global_dims(), core_norm_sq,
                                  per_mode_budget_sq, options);
      } else {
        // Alg. 3 line 9: grow all ranks by alpha (clamped to the dims).
        for (int j = 0; j < d; ++j) {
          const auto target = static_cast<idx_t>(std::ceil(
              options.growth_factor * static_cast<double>(ranks[j])));
          next[j] =
              std::min(x.global_dim(j), std::max(target, ranks[j] + 1));
        }
      }
      {
        prof::TraceSpan grow_span("grow_factors");
        for (int j = 0; j < d; ++j) {
          if (next[j] > ranks[j]) {
            factors[j] = grow_factor(factors[j], next[j],
                                     options.hooi.seed + 7919 * iter + j);
          } else if (next[j] < ranks[j]) {
            // Column pivoting / eigen-ordering concentrates energy in the
            // leading columns, so contraction keeps the leading block.
            factors[j] = factors[j].leading_block(factors[j].rows(), next[j]);
          }
        }
      }
      ranks = next;
      rec.ranks_after = ranks;
      rec.rel_error_after = rec.rel_error;
      // Size of the (unsatisfied) sweep iterate, for the progression plots.
      idx_t sz = 1;
      for (int j = 0; j < d; ++j) sz *= rec.sweep_ranks[j];
      for (int j = 0; j < d; ++j) {
        sz += x.global_dim(j) * rec.sweep_ranks[j];
      }
      rec.compressed_size = sz;
    }

    // The event is a superset of `rec`: the fig4/6/8 progression benches
    // read their trajectories from the log.
    metrics::Event ev;
    ev.kind = "iteration";
    ev.ranks = rec.sweep_ranks;
    ev.ranks_after = rec.ranks_after;
    ev.rel_error = rec.rel_error;
    ev.rel_error_after = rec.rel_error_after;
    ev.seconds = rec.seconds;
    ev.core_analysis_seconds = rec.core_analysis_seconds;
    ev.compressed_size = rec.compressed_size;
    ev.satisfied = rec.satisfied;
    out.iterations.push_back(std::move(rec));
    session.step_done(std::move(ev), [&] {
      SweepCheckpoint<T> ck;
      ck.ranks = ranks;
      ck.factors = factors;
      for (const auto& it : out.iterations) {
        ck.error_history.push_back(it.rel_error);
      }
      ck.ra_satisfied = out.satisfied;
      ck.ra_last_rel_error = out.iterations.back().rel_error;
      ck.ra_last_size =
          static_cast<std::int64_t>(out.iterations.back().compressed_size);
      if (out.satisfied) {
        ck.ra_best_rel_error = out.rel_error;
        ck.ra_best_size = static_cast<std::int64_t>(out.compressed_size);
        ck.best = out.tucker;
      }
      return ck;
    });
    if (out.iterations.back().satisfied &&
        !options.continue_after_satisfied) {
      break;
    }
  }

  if (!out.satisfied) {
    // Tolerance never met within the iteration cap: return the last sweep's
    // decomposition untruncated so the caller still gets the best effort.
    const RaIterationRecord& last = out.iterations.back();
    out.compressed_size = last.compressed_size;
    out.rel_error = last.rel_error;
    // Reconstruct a replicated TuckerTensor from the final factors by one
    // more core computation.
    dist::DistTensor<T> core =
        hooi_sweep(x, factors, ranks, options.hooi, options.max_iters + 1,
                   &out.report);
    out.tucker.core = core.allgather_full();
    out.tucker.factors = factors;
  }
  session.finish();
  return out;
}

#define RAHOOI_INSTANTIATE_RA(T)                                           \
  template la::Matrix<T> grow_factor<T>(const la::Matrix<T>&, idx_t,      \
                                        std::uint64_t);                    \
  template RankAdaptiveResult<T> rank_adaptive_hooi<T>(                    \
      const dist::DistTensor<T>&, const std::vector<idx_t>&,              \
      const RankAdaptiveOptions&);

RAHOOI_INSTANTIATE_RA(float)
RAHOOI_INSTANTIATE_RA(double)

#undef RAHOOI_INSTANTIATE_RA

}  // namespace rahooi::core
