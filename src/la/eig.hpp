#pragma once
// Symmetric eigendecomposition (substitute for LAPACK SYEV).
//
// This is the sequential EVD that TuckerMPI applies to the Gram matrix of a
// tensor unfolding (paper §2.1). It is deliberately *not* parallelized —
// reproducing TuckerMPI's O(d n^3) sequential bottleneck is one of the
// scaling effects the paper measures (Fig. 2, 3-way case) — so it runs on
// one thread, replicated on every rank, with no communication.
//
// The algorithm has SYEV's structure:
//  1. a column-oriented, lower-triangle Householder tridiagonalization
//     (DSYTRD): panels of 32 reflectors (DLATRD), each followed by one GEMM
//     for the rank-64 trailing update;
//  2. Q formed by accumulating the reflectors backwards in 32-wide
//     compact-WY blocks I - V T V^T applied through GEMM (DORGTR);
//  3. implicit-shift QL on the tridiagonal matrix, rotating Q's columns
//     (EISPACK TQL2).
// Its cost is charged as the usual 9 n^3 flops of SYEV with vectors; the
// GEMMs inside record nothing of their own.
//
// The reduction runs internally in double precision regardless of the
// element type; the Gram matrix of a single-precision unfolding can be too
// ill-conditioned for a float-precision QL iteration to converge reliably.

#include <vector>

#include "la/matrix.hpp"

namespace rahooi::la {

template <typename T>
struct EvdResult {
  /// Eigenvalues in descending order (clamped at zero for the Gram use-case
  /// happens at the caller; tiny negative values from roundoff are kept).
  std::vector<double> eigenvalues;
  /// Orthonormal eigenvectors, column i pairs with eigenvalues[i].
  Matrix<T> vectors;
};

/// Full eigendecomposition of a symmetric matrix via Householder
/// tridiagonalization + implicit-shift QL. Throws numerical_error if the QL
/// iteration fails to converge (pathological input).
template <typename T>
EvdResult<T> sym_evd(ConstMatrixRef<T> a);

// ---------------------------------------------------------------------------
// Retained naive reference kernel: the seed's EISPACK TRED2 + TQL2 pair,
// kept as the differential oracle for sym_evd and as the "seed" side of the
// bench_kernels report. It records no flops and must never be used on a
// hot path.
// ---------------------------------------------------------------------------

/// Reference eigendecomposition with sym_evd's contract.
template <typename T>
EvdResult<T> sym_evd_ref(ConstMatrixRef<T> a);

}  // namespace rahooi::la
