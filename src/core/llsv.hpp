#pragma once
// Leading-left-singular-vector (LLSV) computations — the two algorithmic
// choices the paper compares, plus the TSQR path STHOSVD can use:
//
//  * Gram + EVD (paper §2.1): eigenvectors of the replicated Gram matrix;
//    supports rank-specified and error-specified truncation. The EVD is
//    sequential (replicated on all ranks), reproducing TuckerMPI's O(n^3)
//    bottleneck.
//  * Subspace iteration (paper §3.4, Alg. 5): one step of subspace
//    iteration initialized from the previous HOOI iterate, orthonormalized
//    with QR-with-column-pivoting. Rank-specified only.
//  * TSQR + small SVD (Li, Fang & Ballard): the numerically stable
//    alternative to the Gram matrix, rank- or error-specified.

#include <vector>

#include "core/options.hpp"
#include "dist/dist_ops.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"

namespace rahooi::core {

using la::idx_t;

template <typename T>
struct GramLlsv {
  la::Matrix<T> u;                 ///< leading eigenvectors (n x r)
  std::vector<double> eigenvalues; ///< all n eigenvalues, descending
  idx_t rank = 0;
};

/// Smallest rank r such that the trailing eigenvalue sum of `eigenvalues`
/// is at most tau_sq (eigenvalues descending; negative roundoff clamped).
/// Always returns at least 1.
idx_t rank_for_threshold(const std::vector<double>& eigenvalues,
                         double tau_sq);

/// LLSV via Gram + EVD with a fixed rank.
template <typename T>
GramLlsv<T> llsv_gram(const dist::DistTensor<T>& x, int mode, idx_t rank);

/// LLSV via Gram + EVD with error-specified truncation: picks the smallest
/// rank whose discarded eigenvalue mass is <= tau_sq (STHOSVD's per-mode
/// threshold eps^2 ||X||^2 / d).
template <typename T>
GramLlsv<T> llsv_gram_tol(const dist::DistTensor<T>& x, int mode,
                          double tau_sq);

/// LLSV via the numerically stable QR-SVD path (Li, Fang & Ballard, cited
/// in §2.3): a distributed TSQR of the transposed unfolding followed by a
/// small sequential SVD of the triangular factor. Avoids squaring the
/// condition number (the Gram path loses half the working digits), at
/// roughly twice the Gram flops. `rank` = 0 selects error-specified
/// truncation with threshold `tau_sq` (as in llsv_gram_tol). The returned
/// `eigenvalues` hold the squared singular values, so thresholding logic is
/// interchangeable with the Gram path.
template <typename T>
GramLlsv<T> llsv_qr_svd(const dist::DistTensor<T>& x, int mode, idx_t rank,
                        double tau_sq = 0.0);

/// LLSV-SI (Alg. 5): `steps` subspace iterations from the previous factor
/// `u_prev` (n x r, orthonormal). Each step computes the core slice
/// G = X x_mode U^T (a TTM), the contraction Z = X_(mode) G_(mode)^T, and
/// orthonormalizes with QRCP; the paper uses steps = 1 (§3.4), noting the
/// computation "could be repeated to improve accuracy". Column pivoting
/// orders the basis by captured energy for the rank-adaptive core analysis
/// (§3.2).
template <typename T>
la::Matrix<T> llsv_subspace_iteration(const dist::DistTensor<T>& x, int mode,
                                      const la::Matrix<T>& u_prev,
                                      int steps = 1);

}  // namespace rahooi::core
