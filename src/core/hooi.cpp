#include "core/hooi.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "core/solve_session.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

template <typename T>
std::vector<la::Matrix<T>> random_factors(const std::vector<idx_t>& dims,
                                          const std::vector<idx_t>& ranks,
                                          std::uint64_t seed) {
  RAHOOI_REQUIRE(dims.size() == ranks.size(),
                 "random_factors: dims/ranks size mismatch");
  CounterRng rng(seed);
  std::vector<la::Matrix<T>> factors;
  factors.reserve(dims.size());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    RAHOOI_REQUIRE(ranks[j] >= 1 && ranks[j] <= dims[j],
                   "random_factors: ranks must be in [1, n_j]");
    const CounterRng stream = rng.stream(j);
    la::Matrix<T> u(dims[j], ranks[j]);
    for (idx_t i = 0; i < u.size(); ++i) {
      u.data()[i] = static_cast<T>(stream.normal(i));
    }
    factors.push_back(la::orthonormalize<T>(u.cref()));
  }
  return factors;
}

namespace {

/// One sweep's state: the factors it updates in place, the knobs every leaf
/// update reads, and the core that falls out of the last mode's leaf.
template <typename T>
struct Sweep {
  std::vector<la::Matrix<T>>& factors;
  const std::vector<idx_t>& ranks;
  const HooiOptions& options;
  int index;
  SolveReport* report;
  int d;
  dist::DistTensor<T> core;

  // Runs the configured LLSV method for one mode and returns the new
  // factor.
  la::Matrix<T> primary(const dist::DistTensor<T>& y, int mode) const {
    if (options.svd_method == SvdMethod::subspace_iteration) {
      RAHOOI_REQUIRE(factors[mode].cols() == ranks[mode],
                     "subspace iteration needs a starting factor of the "
                     "requested rank");
      return llsv_subspace_iteration(y, mode, factors[mode]);
    }
    return llsv_gram(y, mode, ranks[mode]).u;
  }

  // Updates factors[mode] from `y`, the all-but-one multi-TTM result. When
  // `report` is non-null, numerical hazards degrade gracefully instead of
  // throwing: the primary method's failure (numerical_error or a non-finite
  // update) falls back to Gram+EVD, whose failure falls back to keeping the
  // previous factor. Collective consistency: every fallback decision is a
  // deterministic function of *replicated* data (the EVD/QRCP run on
  // replicated matrices, and factor updates are replicated), so all ranks
  // take identical branches and the collective schedule stays matched.
  void update(const dist::DistTensor<T>& y, int mode) {
    if (report == nullptr) {
      factors[mode] = primary(y, mode);
      return;
    }
    la::Matrix<T> updated;
    bool ok = false;
    try {
      updated = primary(y, mode);
      ok = la::all_finite(updated);
      if (!ok) {
        report->record(index, mode, "nonfinite_update",
                       variant_name(options) + " produced a non-finite factor");
      }
    } catch (const numerical_error& e) {
      report->record(index, mode, "primary_failed", e.what());
    }

    if (!ok && options.svd_method != SvdMethod::gram_evd) {
      // Second chance: Gram+EVD tolerates a wider range of inputs than the
      // QRCP subspace path (it never divides by a pivot).
      count_fallback(*report);
      try {
        updated = llsv_gram(y, mode, ranks[mode]).u;
        ok = la::all_finite(updated);
        report->record(index, mode, "fallback_gram_evd",
                       ok ? "recovered via Gram+EVD"
                          : "Gram+EVD also produced non-finite values");
      } catch (const numerical_error& e) {
        report->record(index, mode, "fallback_gram_evd_failed", e.what());
      }
    }

    if (ok) {
      factors[mode] = std::move(updated);
      return;
    }
    // Last resort: keep the previous factor (clamped to the requested rank).
    // It is orthonormal and finite, so the sweep stays well-posed; accuracy
    // for this mode simply does not improve this sweep.
    count_fallback(*report);
    const idx_t keep = std::min<idx_t>(factors[mode].cols(), ranks[mode]);
    factors[mode] = factors[mode].leading_block(factors[mode].rows(), keep);
    report->record(index, mode, "kept_previous_factor",
                   "all update paths failed; factor unchanged this sweep");
  }

  // A leaf of the sweep: updates factors[m] from `y`; the last mode's leaf
  // also forms the core G = Y x_m U_m^T.
  void leaf(const dist::DistTensor<T>& y, int m) {
    update(y, m);
    if (m == d - 1) {
      prof::TraceSpan t("core_ttm", Phase::ttm);
      core = dist::dist_ttm(y, m, factors[m].cref());
    }
  }

  // Direct sweep (Alg. 2): one fresh multi-TTM from X per subiteration.
  void direct(const dist::DistTensor<T>& x) {
    for (int j = 0; j < d; ++j) {
      prof::TraceSpan mode_span("mode", static_cast<std::int64_t>(j));
      dist::DistTensor<T> y;
      {
        prof::TraceSpan t("multi_ttm", Phase::ttm);
        const dist::DistTensor<T>* src = &x;
        for (int i = 0; i < d; ++i) {
          if (i == j) continue;
          y = dist::dist_ttm(*src, i, factors[i].cref());
          src = &y;
        }
      }
      leaf(y, j);
    }
  }

  // Multiplies `modes` (in order) into `node`. Chain nodes *are* the
  // dimension-tree memo cache: their local blocks are charged to dt_memo so
  // the memo footprint is a gauge of its own (the leaves' LLSV allocations
  // stay under dist_tensor).
  dist::DistTensor<T> chain(const dist::DistTensor<T>& node,
                            const std::vector<int>& modes) const {
    prof::TraceSpan t("tree_ttm", Phase::ttm);
    const metrics::MemScopeGuard memo_scope(metrics::MemScope::dt_memo);
    dist::DistTensor<T> out;
    const dist::DistTensor<T>* src = &node;
    for (const int i : modes) {
      out = dist::dist_ttm(*src, i, factors[i].cref());
      src = &out;
    }
    return out;
  }

  // Dimension-tree sweep (Alg. 4). `modes` lists the modes not yet
  // multiplied into `node`; leaves are reached in ascending mode order so
  // the core falls out of the last leaf.
  void tree(const dist::DistTensor<T>& node, const std::vector<int>& modes) {
    if (modes.size() == 1) {
      prof::TraceSpan mode_span("mode", static_cast<std::int64_t>(modes[0]));
      leaf(node, modes[0]);
      return;
    }
    const std::size_t half = modes.size() / 2;
    const std::vector<int> mu(modes.begin(), modes.begin() + half);
    const std::vector<int> eta(modes.begin() + half, modes.end());
    // Multiply the eta modes (descending: the last-mode TTM is a single
    // large GEMM in this layout, §3.3) and recurse into the mu leaves; then
    // the mu modes with their freshly-updated factors, into the eta leaves.
    tree(chain(node, std::vector<int>(eta.rbegin(), eta.rend())), mu);
    tree(chain(node, mu), eta);
  }
};

}  // namespace

template <typename T>
dist::DistTensor<T> hooi_sweep(const dist::DistTensor<T>& x,
                               std::vector<la::Matrix<T>>& factors,
                               const std::vector<idx_t>& ranks,
                               const HooiOptions& options, int sweep_index,
                               SolveReport* report) {
  const int d = x.ndims();
  RAHOOI_REQUIRE(static_cast<int>(factors.size()) == d,
                 "hooi_sweep: one factor per mode required");
  RAHOOI_REQUIRE(static_cast<int>(ranks.size()) == d,
                 "hooi_sweep: one rank per mode required");
  prof::TraceSpan span("sweep", static_cast<std::int64_t>(sweep_index));
  Sweep<T> sweep{factors, ranks, options, sweep_index, report, d, {}};
  if (d == 1) {
    // Degenerate single-mode case: HOOI reduces to one LLSV of X itself.
    sweep.leaf(x, 0);
  } else if (options.use_dimension_tree) {
    std::vector<int> all(d);
    for (int j = 0; j < d; ++j) all[j] = j;
    sweep.tree(x, all);
  } else {
    sweep.direct(x);
  }
  return std::move(sweep.core);
}

template <typename T>
HooiResult<T> hooi(const dist::DistTensor<T>& x,
                   const std::vector<idx_t>& ranks,
                   const HooiOptions& options) {
  validate(options);
  HooiResult<T> out;
  SolveSession<T> session(x, "hooi", options, &out.report);
  out.decomposition.x_norm_sq = x.norm_squared();

  int start = 0;
  if (auto ck = session.restore(options.max_iters)) {
    RAHOOI_REQUIRE(ck->ranks == ranks,
                   "restore: checkpoint ranks differ from requested ranks");
    out.decomposition.factors = std::move(ck->factors);
    out.error_history = std::move(ck->error_history);
    start = out.iterations = static_cast<int>(ck->sweeps_done);
  } else {
    out.decomposition.factors =
        random_factors<T>(x.global_dims(), ranks, options.seed);
  }

  for (int iter = start; iter < options.max_iters; ++iter) {
    session.begin_step(iter);
    out.decomposition.core = hooi_sweep(x, out.decomposition.factors, ranks,
                                        options, iter, &out.report);
    out.decomposition.core_norm_sq = out.decomposition.core.norm_squared();
    ++out.iterations;
    const double err = out.decomposition.relative_error();
    out.error_history.push_back(err);

    metrics::Event ev;
    ev.kind = "sweep";
    ev.ranks = ranks;
    ev.rel_error = err;
    ev.seconds = session.step_seconds();
    ev.compressed_size = out.decomposition.compressed_size();
    ev.detail = variant_name(options);
    session.step_done(std::move(ev), [&] {
      SweepCheckpoint<T> ck;
      ck.ranks = ranks;
      ck.factors = out.decomposition.factors;
      ck.error_history = out.error_history;
      return ck;
    });

    const std::size_t n = out.error_history.size();
    const double prev_error = n > 1 ? out.error_history[n - 2] : 1.0;
    if (options.convergence_tol > 0.0 &&
        prev_error - err < options.convergence_tol) {
      break;
    }
  }
  session.finish();
  return out;
}

#define RAHOOI_INSTANTIATE_HOOI(T)                                        \
  template std::vector<la::Matrix<T>> random_factors<T>(                  \
      const std::vector<idx_t>&, const std::vector<idx_t>&,               \
      std::uint64_t);                                                     \
  template dist::DistTensor<T> hooi_sweep<T>(                             \
      const dist::DistTensor<T>&, std::vector<la::Matrix<T>>&,            \
      const std::vector<idx_t>&, const HooiOptions&, int, SolveReport*);  \
  template HooiResult<T> hooi<T>(const dist::DistTensor<T>&,              \
                                 const std::vector<idx_t>&,               \
                                 const HooiOptions&);

RAHOOI_INSTANTIATE_HOOI(float)
RAHOOI_INSTANTIATE_HOOI(double)

#undef RAHOOI_INSTANTIATE_HOOI

}  // namespace rahooi::core
