#pragma once
// BLAS-equivalent dense kernels (substitute for a vendor BLAS, which is not
// available in this environment).
//
// GEMM and SYRK are BLIS-style packed kernels: panels of both operands are
// packed into contiguous, cache-aligned buffers (the pack step absorbs
// transposition, so every op combination runs at full speed) and an
// MR x NR register-tiled micro-kernel is driven over an MC/KC/NC loop nest.
// The strided-batch entry points below extend the same machinery to the
// tensor layer's slab geometry: a whole mode-j unfolding is consumed as one
// packed GEMM/SYRK instead of `right_size` tiny per-slab calls, with the
// slab transposes fused into packing. See DESIGN.md "Local kernel
// architecture" for the blocking scheme.
//
// All kernels operate on column-major views and report exact flop counts to
// the instrumentation layer (common/stats.hpp), which is how the paper's
// Table 1 is reproduced from measurement.

#include <vector>

#include "la/matrix.hpp"

namespace rahooi::la {

enum class Op { none, transpose };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// Shapes: with op(A) m x k and op(B) k x n, C must be m x n.
template <typename T>
void gemm(Op op_a, Op op_b, T alpha, ConstMatrixRef<T> a, ConstMatrixRef<T> b,
          T beta, MatrixRef<T> c);

/// Convenience allocation form of gemm with alpha=1, beta=0.
template <typename T>
Matrix<T> matmul(Op op_a, Op op_b, ConstMatrixRef<T> a, ConstMatrixRef<T> b);

/// C = alpha * A * A^T + beta * C with C symmetric (both triangles stored).
/// Exploits symmetry: ~m^2 k flops instead of 2 m^2 k.
template <typename T>
void syrk(T alpha, ConstMatrixRef<T> a, T beta, MatrixRef<T> c);

/// Strided-batch GEMM with one shared right-hand factor:
///
///   C_s = alpha * A_s * op(B) + beta * C_s   for s in [0, batch)
///
/// where A_s is the column-major (m x k) block at a + s * a_stride (leading
/// dimension m) and C_s the (m x n) block at c + s * c_stride (leading
/// dimension m). The batch is packed as a single virtual (batch*m x k)
/// operand, so B is packed once and full MC/KC/NC blocking applies across
/// slab boundaries — this is the general-mode TTM hot path.
template <typename T>
void gemm_strided_batch(Op op_b, idx_t batch, T alpha, const T* a, idx_t m,
                        idx_t k, idx_t a_stride, ConstMatrixRef<T> b, T beta,
                        T* c, idx_t n, idx_t c_stride);

/// Depth of one cache block of the packed kernels (the KC of their loop
/// nest). A product no deeper than this sums each entry in a single pass.
inline constexpr idx_t kGemmDepthBlock = 256;

/// Widest result gemm_skinny_batch takes.
inline constexpr idx_t kSkinnyMaxCols = 32;

/// Unpacked strided-batch product for truncating TTMs with a skinny result:
///
///   C_s = A_s * B   for s in [0, batch)
///
/// with A_s the column-major (m x k) block at a + s * m * k and B (k x n).
/// The n columns of C are split into consecutive parts of lengths
/// `part_cols` (summing to n; a single part is the plain layout): part q,
/// holding columns [off_q, off_q + len_q), is stored contiguously at
/// c + off_q * m * batch as `batch` column-major (m x len_q) blocks. That is
/// the layout a reduce-scatter over the parts consumes.
///
/// A is streamed in place, never packed, and B lives in L1 transposed. C is
/// only stored to, so it needs no initialization. With m == 1 (a mode-0
/// unfolding) the kernel vectorizes over the n columns, otherwise over the
/// m rows, which pays off from m >= 64 on.
///
/// Requires n <= kSkinnyMaxCols and k <= kGemmDepthBlock. Each entry then
/// sums over l in increasing order with the packed micro-kernel's
/// operations, so the result is bitwise equal to gemm_strided_batch with
/// op_b = none (and, for m == 1, to gemm(transpose, none, B, A_(0))).
template <typename T>
void gemm_skinny_batch(idx_t batch, const T* a, idx_t m, idx_t k,
                       ConstMatrixRef<T> b,
                       const std::vector<idx_t>& part_cols, T* c);

/// Batched transposed product:
///
///   C = alpha * sum_s A_s^T * B_s + beta * C
///
/// with A_s the column-major (rows x m) block at a + s * a_stride and B_s
/// the (rows x n) block at b + s * b_stride; C is m x n. The slab
/// transposes are absorbed by packing (no scratch transpose is ever
/// materialized). This is the LLSV subspace-iteration contraction
/// Z = Y_(j) G_(j)^T expressed over the slab geometry.
template <typename T>
void gemm_batch_tn(idx_t batch, T alpha, const T* a, idx_t rows, idx_t m,
                   idx_t a_stride, const T* b, idx_t n, idx_t b_stride,
                   T beta, MatrixRef<T> c);

/// Batched Gram accumulation:
///
///   C = alpha * sum_s A_s^T * A_s + beta * C
///
/// with A_s the column-major (rows x n) block at a + s * a_stride and C the
/// symmetric n x n result (both triangles stored). Computes the lower
/// triangle only (~n^2 * rows * batch flops) and mirrors; the slab
/// transpose is fused into the pack step. This is the general-mode
/// mode_gram hot path.
template <typename T>
void syrk_batch_t(idx_t batch, T alpha, const T* a, idx_t rows, idx_t n,
                  idx_t a_stride, T beta, MatrixRef<T> c);

/// B = A^T, cache-blocked. B must be (a.cols x a.rows).
template <typename T>
void transpose(ConstMatrixRef<T> a, MatrixRef<T> b);

/// y = alpha * op(A) * x + beta * y.
template <typename T>
void gemv(Op op_a, T alpha, ConstMatrixRef<T> a, const T* x, T beta, T* y);

/// Euclidean dot product of length-n arrays.
template <typename T>
T dot(idx_t n, const T* x, const T* y);

/// y += alpha * x over length-n arrays.
template <typename T>
void axpy(idx_t n, T alpha, const T* x, T* y);

/// x *= alpha over a length-n array.
template <typename T>
void scal(idx_t n, T alpha, T* x);

/// Sum of squared entries of a length-n array (accumulated in double for
/// accuracy in single precision).
template <typename T>
double sum_squares(idx_t n, const T* x);

/// Frobenius norm of a matrix view.
template <typename T>
double frobenius_norm(ConstMatrixRef<T> a);

/// Max |a - b| over corresponding entries (test/diagnostic helper).
template <typename T>
double max_abs_diff(ConstMatrixRef<T> a, ConstMatrixRef<T> b);

// ---------------------------------------------------------------------------
// Retained naive reference kernels. These are the pre-packing seed
// implementations (axpy/dot loops with K-blocking only), kept as the
// validation oracle for the packed kernels and as the "seed" side of the
// bench_kernels speedup report. They do not report flops and must never be
// used on a hot path.
// ---------------------------------------------------------------------------

/// Reference C = alpha * op(A) * op(B) + beta * C.
template <typename T>
void gemm_ref(Op op_a, Op op_b, T alpha, ConstMatrixRef<T> a,
              ConstMatrixRef<T> b, T beta, MatrixRef<T> c);

/// Reference C = alpha * A * A^T + beta * C (symmetric, both triangles).
template <typename T>
void syrk_ref(T alpha, ConstMatrixRef<T> a, T beta, MatrixRef<T> c);

}  // namespace rahooi::la
