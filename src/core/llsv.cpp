#include "core/llsv.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "core/options.hpp"
#include "la/svd.hpp"
#include "prof/trace.hpp"

namespace rahooi::core {

std::string variant_name(const HooiOptions& o) {
  switch (o.svd_method) {
    case SvdMethod::subspace_iteration:
      return o.use_dimension_tree ? "HOSI-DT" : "HOSI";
    case SvdMethod::gram_evd:
      break;
  }
  return o.use_dimension_tree ? "HOOI-DT" : "HOOI";
}

idx_t rank_for_threshold(const std::vector<double>& eigenvalues,
                         double tau_sq) {
  const idx_t n = static_cast<idx_t>(eigenvalues.size());
  // Trailing sums computed back-to-front; clamp roundoff negatives.
  double trailing = 0.0;
  idx_t rank = n;
  for (idx_t i = n - 1; i >= 1; --i) {
    trailing += std::max(0.0, eigenvalues[i]);
    if (trailing > tau_sq) break;
    rank = i;
  }
  return std::max<idx_t>(rank, 1);
}

namespace {

template <typename T>
GramLlsv<T> llsv_gram_impl(const dist::DistTensor<T>& x, int mode,
                           idx_t fixed_rank, double tau_sq) {
  prof::TraceSpan span("llsv");
  la::Matrix<T> gram;
  {
    prof::TraceSpan t("gram", Phase::gram);
    gram = dist::dist_mode_gram(x, mode);
  }
  la::EvdResult<T> evd;
  {
    prof::TraceSpan t("evd", Phase::evd);
    evd = la::sym_evd<T>(gram.cref());
  }
  GramLlsv<T> out;
  out.rank = fixed_rank > 0 ? fixed_rank
                            : rank_for_threshold(evd.eigenvalues, tau_sq);
  RAHOOI_REQUIRE(out.rank <= x.global_dim(mode),
                 "llsv: requested rank exceeds the mode dimension");
  out.u = evd.vectors.leading_block(evd.vectors.rows(), out.rank);
  out.eigenvalues = std::move(evd.eigenvalues);
  return out;
}

}  // namespace

template <typename T>
GramLlsv<T> llsv_gram(const dist::DistTensor<T>& x, int mode, idx_t rank) {
  RAHOOI_REQUIRE(rank >= 1, "llsv_gram: rank must be positive");
  return llsv_gram_impl(x, mode, rank, 0.0);
}

template <typename T>
GramLlsv<T> llsv_gram_tol(const dist::DistTensor<T>& x, int mode,
                          double tau_sq) {
  RAHOOI_REQUIRE(tau_sq >= 0.0, "llsv_gram_tol: threshold must be >= 0");
  return llsv_gram_impl(x, mode, idx_t{0}, tau_sq);
}

template <typename T>
GramLlsv<T> llsv_qr_svd(const dist::DistTensor<T>& x, int mode, idx_t rank,
                        double tau_sq) {
  prof::TraceSpan span("llsv");
  la::Matrix<T> r_factor;
  {
    // Attributed to the Gram phase: it plays the same role in the
    // breakdown (the parallel reduction of the unfolding).
    prof::TraceSpan t("tsqr_r", Phase::gram);
    r_factor = dist::dist_mode_tsqr_r(x, mode);
  }
  const idx_t n = x.global_dim(mode);
  GramLlsv<T> out;
  {
    // Small sequential factorization replacing the EVD in the breakdown.
    prof::TraceSpan t("r_svd", Phase::evd);
    // R is exactly upper triangular (zeros below the diagonal), so a full
    // transpose yields the lower-triangular L = R^T directly.
    la::Matrix<T> l(n, n);
    la::transpose(r_factor.cref(), l.ref());
    la::SvdResult<T> svd = la::svd_jacobi<T>(l.cref());
    out.eigenvalues.resize(n);
    for (idx_t i = 0; i < n; ++i) {
      out.eigenvalues[i] = svd.singular[i] * svd.singular[i];
    }
    out.rank = rank > 0 ? rank
                        : rank_for_threshold(out.eigenvalues, tau_sq);
    RAHOOI_REQUIRE(out.rank <= n,
                   "llsv_qr_svd: requested rank exceeds the mode dimension");
    out.u = svd.u.leading_block(n, out.rank);
  }
  return out;
}

template <typename T>
la::Matrix<T> llsv_subspace_iteration(const dist::DistTensor<T>& x, int mode,
                                      const la::Matrix<T>& u_prev,
                                      int steps) {
  RAHOOI_REQUIRE(u_prev.rows() == x.global_dim(mode),
                 "llsv_si: factor rows must match the mode dimension");
  RAHOOI_REQUIRE(steps >= 1, "llsv_si: need at least one iteration");
  const idx_t r = u_prev.cols();

  prof::TraceSpan span("llsv");
  la::Matrix<T> u = u_prev;
  for (int step = 0; step < steps; ++step) {
    // Alg. 5 line 2: G = U^T A is the TTM X x_mode U^T — the current core
    // estimate (distributed). Attributed to the contraction phase: the
    // paper's subspace-iteration cost 4 d n r^d / P covers this TTM and
    // the line-3 contraction together, and the Fig. 3 breakdown separates
    // LLSV work from the sweep's multi-TTMs.
    dist::DistTensor<T> g;
    {
      prof::TraceSpan t("si_ttm", Phase::contraction);
      g = dist::dist_ttm(x, mode, u.cref());
    }
    // Alg. 5 line 3: Z = A G^T, the all-but-one contraction; replicated.
    la::Matrix<T> z;
    {
      prof::TraceSpan t("si_contract", Phase::contraction);
      z = dist::dist_contract_all_but_one(x, g, mode);
    }
    // Alg. 5 line 4: QRCP, replicated (sequential QR in the paper's cost
    // model). Each rank computes the identical factorization.
    prof::TraceSpan t("qrcp", Phase::qr);
    u = la::qrcp<T>(z.cref(), r).q;
  }
  return u;
}

#define RAHOOI_INSTANTIATE_LLSV(T)                                        \
  template GramLlsv<T> llsv_gram<T>(const dist::DistTensor<T>&, int,     \
                                    idx_t);                               \
  template GramLlsv<T> llsv_gram_tol<T>(const dist::DistTensor<T>&, int, \
                                        double);                          \
  template GramLlsv<T> llsv_qr_svd<T>(const dist::DistTensor<T>&, int,    \
                                      idx_t, double);                     \
  template la::Matrix<T> llsv_subspace_iteration<T>(                      \
      const dist::DistTensor<T>&, int, const la::Matrix<T>&, int);

RAHOOI_INSTANTIATE_LLSV(float)
RAHOOI_INSTANTIATE_LLSV(double)

#undef RAHOOI_INSTANTIATE_LLSV

}  // namespace rahooi::core
