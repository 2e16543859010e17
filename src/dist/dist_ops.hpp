#pragma once
// Parallel kernels on distributed tensors — the TuckerMPI-equivalent layer
// the paper's algorithms are built from:
//
//  * dist_ttm            — truncating TTM with reduce-scatter along the
//                          mode's grid dimension (§2.1/§2.2 TTM kernel),
//  * redistribute_mode   — all-to-all redistribution of a mode's unfolding
//                          into 1D column layout, returned as per-source
//                          row blocks (the Gram redistribution of §2.1 and
//                          the contraction redistribution of §3.4),
//  * dist_mode_gram      — parallel Gram, formed blockwise from the row
//                          blocks, + world allreduce (LLSV input),
//  * dist_contract_all_but_one — the new parallel kernel the paper adds for
//                          subspace iteration: Z = Y_(j) G_(j)^T (Alg. 5,
//                          line 3), returned replicated on every rank.
//
// Factor matrices are replicated on all ranks (TuckerMPI's convention), so
// they appear here as plain la::Matrix values.

#include <memory>

#include "dist/dist_tensor.hpp"
#include "la/blas.hpp"
#include "metrics/metrics.hpp"

namespace rahooi::dist {

/// Y = X x_mode U^T where U is the replicated (global_dim(mode) x r) factor.
/// The result is distributed on the same grid; its mode extent r is block-
/// distributed over the mode's grid dimension via reduce-scatter.
template <typename T>
DistTensor<T> dist_ttm(const DistTensor<T>& x, int mode,
                       la::ConstMatrixRef<T> u);

/// A mode-j unfolding after redistribution into 1D column layout, kept in
/// the row blocks it arrives in rather than assembled: this rank holds a
/// contiguous chunk of `fibers` unfolding columns (mode-j fibers), and
/// blocks[q] holds rows [row_offset[q], row_offset[q] + blocks[q].rows) of
/// that chunk — the segment owned by rank q of the mode's grid dimension —
/// column-major with contiguous columns. Chunks held by distinct ranks
/// partition the global unfolding. Move-only; the blocks point into
/// `storage`, or into the tensor's local block when no copy was needed.
/// `storage` is plain uninitialized heap memory: allocating these per-call
/// buffers 64-byte aligned (la::AlignedBuffer) raised the peak RSS of a
/// P=4 STHOSVD of a 537 MB tensor from 1.66 to 1.96 GB.
template <typename T>
struct ModeRowBlocks {
  std::vector<la::ConstMatrixRef<T>> blocks;
  std::vector<idx_t> row_offset;
  idx_t fibers = 0;
  std::unique_ptr<T[]> storage;
  metrics::TrackedBytes storage_mem;  ///< storage's pack_buffer charge
};

/// Redistributes the mode-j unfolding with an all-to-all along the mode's
/// grid dimension, as in TuckerMPI. Mode 0 sends straight from the local
/// block (each destination's fibers are contiguous there); other modes pack
/// with blocked transposes. The receive buffer is left uninitialized. With
/// one rank along the mode there is no communication, and in mode 0 the
/// single block is a view of the local block.
template <typename T>
ModeRowBlocks<T> redistribute_mode(const DistTensor<T>& x, int mode);

/// Replicated Gram matrix of the mode-j unfolding: G = X_(j) X_(j)^T of
/// shape (global_dim(mode))^2, formed blockwise from the redistributed row
/// blocks (SYRK on each diagonal block, GEMM below it, then mirrored;
/// n(n+1) F flops in all), then a world allreduce.
template <typename T>
la::Matrix<T> dist_mode_gram(const DistTensor<T>& x, int mode);

/// Replicated contraction in all modes but `mode` between tensors with
/// identical non-mode global dims and distribution:
/// Z = Y_(mode) G_(mode)^T, shape (y.global_dim(mode) x g.global_dim(mode)),
/// formed blockwise (one GEMM per pair of redistributed row blocks), then a
/// world allreduce.
template <typename T>
la::Matrix<T> dist_contract_all_but_one(const DistTensor<T>& y,
                                        const DistTensor<T>& g, int mode);

/// TSQR-style R factor of the *transposed* mode-j unfolding: returns an
/// upper-triangular R (n x n, replicated) with R^T R = X_(j) X_(j)^T,
/// computed without ever forming the Gram matrix — each rank QRs its
/// redistributed column block and the small R factors are combined with one
/// allgather + a final local QR. This is the communication pattern of the
/// numerically stable QR-SVD LLSV of Li, Fang & Ballard (ICPP '21), which
/// the paper cites as TuckerMPI's stable STHOSVD variant (§2.3).
template <typename T>
la::Matrix<T> dist_mode_tsqr_r(const DistTensor<T>& x, int mode);

}  // namespace rahooi::dist
