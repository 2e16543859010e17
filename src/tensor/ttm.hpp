#pragma once
// Tensor-times-matrix (TTM), multi-TTM, and unfolding-Gram kernels on local
// tensors. These are the computational workhorses of every algorithm in the
// paper; their distributed counterparts in dist/ call these on local blocks.
//
// All general-mode operations map the slab geometry of a mode-j unfolding
// onto the strided-batch entry points of la/blas.hpp, so the `right_size`
// tiny per-slab GEMM/SYRK calls of the naive formulation become a single
// packed kernel invocation and slab transposes are fused into operand
// packing (mode_gram and contract_all_but_one never materialize a
// transposed scratch matrix). Truncating TTMs with a skinny result (r <= 32,
// contraction <= 256, mode 0 or slabs of at least 64 rows) instead stream X
// in place through la::gemm_skinny_batch, with bitwise the same results.

#include "la/blas.hpp"
#include "tensor/tensor.hpp"

namespace rahooi::tensor {

namespace detail {
/// Test hook: when true, general-mode ttm takes the per-slab GEMM loop
/// instead of the batched kernel. Exists solely so tests can cross-validate
/// the two paths; never set this on a hot path.
extern bool g_force_ttm_slab_fallback;
}  // namespace detail

/// Y = X x_mode op(U).
///
/// With op = transpose and U of shape (dim(mode) x r), computes the
/// truncation Y = X x_mode U^T whose mode dimension becomes r (the TTM used
/// throughout STHOSVD/HOOI). With op = none and U of shape (m x dim(mode)),
/// computes expansion to m (used in reconstruction).
template <typename T>
Tensor<T> ttm(const Tensor<T>& x, int mode, la::ConstMatrixRef<T> u,
              la::Op op = la::Op::transpose);

/// Truncating Y = X x_mode U^T written straight into `out`, with the result
/// extent r split into consecutive parts of lengths `part_rows` (summing to
/// r). Part q, holding mode indices [off_q, off_q + len_q), is stored
/// contiguously at out + off_q * left_size(mode) * right_size(mode), laid
/// out as a tensor whose mode extent is len_q: the layout a reduce-scatter
/// over the parts consumes. A single part is ttm's own layout. `out` needs
/// no initialization, and the values are bitwise those of ttm.
template <typename T>
void ttm_parts(const Tensor<T>& x, int mode, la::ConstMatrixRef<T> u,
               const std::vector<idx_t>& part_rows, T* out);

/// Multi-TTM: applies op(U_j) in every mode j in `modes`, in the given
/// order. `factors[j]` must have valid shape for each j in `modes`.
/// `modes` must be non-empty (an empty multi-TTM is the identity, and the
/// copy it would imply is never what a caller wants; use the rvalue
/// overload when the mode list can be empty).
template <typename T>
Tensor<T> multi_ttm(const Tensor<T>& x,
                    const std::vector<la::ConstMatrixRef<T>>& factors,
                    const std::vector<int>& modes,
                    la::Op op = la::Op::transpose);

/// Multi-TTM taking ownership of x. With empty `modes` this is the identity
/// and returns the moved-in tensor without copying.
template <typename T>
Tensor<T> multi_ttm(Tensor<T>&& x,
                    const std::vector<la::ConstMatrixRef<T>>& factors,
                    const std::vector<int>& modes,
                    la::Op op = la::Op::transpose);

/// Multi-TTM in all modes except `skip_mode`, applied in increasing mode
/// order (the direct HOOI subiteration, Alg. 2 line 5).
template <typename T>
Tensor<T> multi_ttm_skip(const Tensor<T>& x,
                         const std::vector<la::ConstMatrixRef<T>>& factors,
                         int skip_mode, la::Op op = la::Op::transpose);

/// Gram matrix of the mode-j unfolding: G = X_(j) X_(j)^T, shape
/// (dim(j) x dim(j)). Uses SYRK-style symmetric accumulation (~size*dim(j)
/// flops), matching the n^{d+1}/P Gram accounting in the paper's Table 1.
/// For general modes the slab transpose is fused into kernel packing.
template <typename T>
la::Matrix<T> mode_gram(const Tensor<T>& x, int mode);

/// Contraction of two same-shape-except-mode tensors over all modes but
/// `mode`: Z = Y_(mode) G_(mode)^T, shape (y.dim(mode) x g.dim(mode)).
/// This is the subspace-iteration kernel of Alg. 5 line 3 (paper §3.4).
template <typename T>
la::Matrix<T> contract_all_but_one(const Tensor<T>& y, const Tensor<T>& g,
                                   int mode);

}  // namespace rahooi::tensor
