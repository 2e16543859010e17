#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace rahooi::la {

namespace {

// ===========================================================================
// Packed register-blocked GEMM core (BLIS-style).
//
// Loop nest (outer to inner): NC columns of C / KC depth / MC rows of C,
// with op(B) packed once per (NC, KC) panel and op(A) once per (MC, KC)
// block. The innermost macro loop sweeps MR x NR register tiles computed by
// a micro-kernel written with GCC vector extensions, so register blocking
// does not depend on fragile auto-vectorization. Operand transposition and
// the tensor layer's slab batching are absorbed entirely by the pack/write
// policies below; the driver and micro-kernel are shared by every entry
// point.
// ===========================================================================

#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;  // SSE2 baseline; GCC synthesizes elsewhere
#endif

template <typename T>
struct Tile {
  // The vector type carries may_alias (it overlays plain T buffers) and
  // element alignment only (packed panels are in fact 64-byte aligned, but
  // unaligned moves cost nothing when the address is aligned).
  typedef T Vec __attribute__((vector_size(kVecBytes), aligned(alignof(T)),
                               may_alias));
  static constexpr int VL = kVecBytes / static_cast<int>(sizeof(T));
  static constexpr int MU = 4;          ///< row vectors per tile
  static constexpr int NR = 4;          ///< tile columns
  static constexpr int MR = MU * VL;    ///< tile rows
};

// Cache blocking. KC x NR of packed B lives in L1 across a macro row; the
// MC x KC packed A block targets L2; NC x KC of packed B targets L3. kMC is
// a multiple of every Tile<T>::MR and kNC of every Tile<T>::NR.
constexpr idx_t kMC = 128;
constexpr idx_t kKC = 256;
constexpr idx_t kNC = 960;

template <typename T>
struct Scratch {
  AlignedBuffer<T> a{static_cast<std::size_t>((kMC + Tile<T>::MR) * kKC)};
  AlignedBuffer<T> b{static_cast<std::size_t>((kNC + Tile<T>::NR) * kKC)};
};

// Per-thread so the simulated ranks (threads) never contend on scratch.
template <typename T>
Scratch<T>& tls_scratch() {
  static thread_local Scratch<T> s;
  return s;
}

/// Computes a full MR x NR tile product of two packed panels into `out`
/// (column-major MR x NR). Accumulators live in explicit vector registers.
template <typename T>
inline void micro_tile(idx_t kc, const T* __restrict__ ap,
                       const T* __restrict__ bp, T* __restrict__ out) {
  using Vec = typename Tile<T>::Vec;
  constexpr int MU = Tile<T>::MU, NR = Tile<T>::NR, VL = Tile<T>::VL,
                MR = Tile<T>::MR;
  Vec acc[MU * NR];
  for (int x = 0; x < MU * NR; ++x) acc[x] = Vec{};
  for (idx_t l = 0; l < kc; ++l) {
    const T* __restrict__ a = ap + l * MR;
    const T* __restrict__ b = bp + l * NR;
    Vec av[MU];
    for (int u = 0; u < MU; ++u) {
      av[u] = *reinterpret_cast<const Vec*>(a + u * VL);
    }
    for (int j = 0; j < NR; ++j) {
      const Vec bv = Vec{} + b[j];  // broadcast
      for (int u = 0; u < MU; ++u) acc[u + j * MU] += av[u] * bv;
    }
  }
  for (int j = 0; j < NR; ++j) {
    for (int u = 0; u < MU; ++u) {
      *reinterpret_cast<Vec*>(out + j * MR + u * VL) = acc[u + j * MU];
    }
  }
}

// ---------------------------------------------------------------------------
// Pack policies. Each packs a block of the logical operand into MR-tiled
// (A side) or NR-tiled (B side) panels, zero-padding partial tiles so the
// micro-kernel never needs an edge case. Row/column indices are global.
// ---------------------------------------------------------------------------

/// A side, op(A) = A: column-major source with leading dimension ld.
template <typename T>
struct PackACols {
  const T* a;
  idx_t ld;

  void pack(T* __restrict__ buf, idx_t i0, idx_t mc, idx_t pc,
            idx_t kc) const {
    constexpr int MR = Tile<T>::MR;
    for (idx_t p = 0; p < mc; p += MR) {
      const int mr = static_cast<int>(std::min<idx_t>(MR, mc - p));
      const T* src = a + (i0 + p) + pc * ld;
      T* dst = buf + p * kc;
      for (idx_t l = 0; l < kc; ++l) {
        const T* col = src + l * ld;
        for (int i = 0; i < mr; ++i) dst[i] = col[i];
        for (int i = mr; i < MR; ++i) dst[i] = T{0};
        dst += MR;
      }
    }
  }
};

/// A side, op(A) = A^T: op(A)(i, l) = a[l + i*ld].
template <typename T>
struct PackATrans {
  const T* a;
  idx_t ld;

  void pack(T* __restrict__ buf, idx_t i0, idx_t mc, idx_t pc,
            idx_t kc) const {
    constexpr int MR = Tile<T>::MR;
    for (idx_t p = 0; p < mc; p += MR) {
      const int mr = static_cast<int>(std::min<idx_t>(MR, mc - p));
      T* panel = buf + p * kc;
      // Depth-major order: panel stores are contiguous (the strided reads
      // for consecutive l hit the same cache lines).
      const T* src0 = a + pc + (i0 + p) * ld;
      for (idx_t l = 0; l < kc; ++l) {
        const T* __restrict__ src = src0 + l;
        T* __restrict__ dst = panel + l * MR;
        for (int i = 0; i < mr; ++i) dst[i] = src[i * ld];
        for (int i = mr; i < MR; ++i) dst[i] = T{0};
      }
    }
  }
};

/// A side, virtual-row batch: row i of the operand is row (i % m_in) of the
/// column-major (m_in x k) slab at a + (i / m_in) * stride. Stacks all
/// slabs of a mode-j unfolding into one packed operand.
template <typename T>
struct PackABatchCols {
  const T* a;
  idx_t m_in;
  idx_t stride;

  void pack(T* __restrict__ buf, idx_t i0, idx_t mc, idx_t pc,
            idx_t kc) const {
    constexpr int MR = Tile<T>::MR;
    for (idx_t p = 0; p < mc; p += MR) {
      const int mr = static_cast<int>(std::min<idx_t>(MR, mc - p));
      T* panel = buf + p * kc;
      const idx_t row = i0 + p;
      const idx_t s0 = row / m_in;
      const idx_t r0 = row % m_in;
      for (idx_t l = 0; l < kc; ++l) {
        T* dst = panel + l * MR;
        idx_t s = s0, r = r0;
        const T* col = a + s * stride + (pc + l) * m_in;
        for (int i = 0; i < mr; ++i) {
          dst[i] = col[r];
          if (++r == m_in) {
            r = 0;
            ++s;
            col = a + s * stride + (pc + l) * m_in;
          }
        }
        for (int i = mr; i < MR; ++i) dst[i] = T{0};
      }
    }
  }
};

/// A side, transposed virtual-depth batch: op(A)(i, l) with depth index
/// l = s * rows + r addressing a[s*stride + i*rows + r] — i.e. the operand
/// is the transpose of the stacked (rows*batch x m) slab matrix. This is
/// the pack step that replaces mode_gram's scalar slab transpose.
template <typename T>
struct PackABatchRows {
  const T* a;
  idx_t rows;
  idx_t stride;

  void pack(T* __restrict__ buf, idx_t i0, idx_t mc, idx_t pc,
            idx_t kc) const {
    constexpr int MR = Tile<T>::MR;
    for (idx_t p = 0; p < mc; p += MR) {
      const int mr = static_cast<int>(std::min<idx_t>(MR, mc - p));
      T* panel = buf + p * kc;
      // Depth-major with one (s, r) carry per depth step: panel stores are
      // contiguous and consecutive l reuse the same source cache lines.
      idx_t s = pc / rows, r = pc % rows;
      for (idx_t l = 0; l < kc; ++l) {
        const T* __restrict__ src = a + s * stride + r + (i0 + p) * rows;
        T* __restrict__ dst = panel + l * MR;
        for (int i = 0; i < mr; ++i) dst[i] = src[i * rows];
        for (int i = mr; i < MR; ++i) dst[i] = T{0};
        if (++r == rows) {
          r = 0;
          ++s;
        }
      }
    }
  }
};

/// B side, op(B) = B: op(B)(l, j) = b[l + j*ld].
template <typename T>
struct PackBCols {
  const T* b;
  idx_t ld;

  void pack(T* __restrict__ buf, idx_t j0, idx_t nc, idx_t pc,
            idx_t kc) const {
    constexpr int NR = Tile<T>::NR;
    for (idx_t q = 0; q < nc; q += NR) {
      const int nr = static_cast<int>(std::min<idx_t>(NR, nc - q));
      T* panel = buf + q * kc;
      for (int j = 0; j < nr; ++j) {
        const T* col = b + pc + (j0 + q + j) * ld;
        for (idx_t l = 0; l < kc; ++l) panel[l * NR + j] = col[l];
      }
      for (int j = nr; j < NR; ++j) {
        for (idx_t l = 0; l < kc; ++l) panel[l * NR + j] = T{0};
      }
    }
  }
};

/// B side, op(B) = B^T: op(B)(l, j) = b[j + l*ld].
template <typename T>
struct PackBRows {
  const T* b;
  idx_t ld;

  void pack(T* __restrict__ buf, idx_t j0, idx_t nc, idx_t pc,
            idx_t kc) const {
    constexpr int NR = Tile<T>::NR;
    for (idx_t q = 0; q < nc; q += NR) {
      const int nr = static_cast<int>(std::min<idx_t>(NR, nc - q));
      T* panel = buf + q * kc;
      for (idx_t l = 0; l < kc; ++l) {
        const T* row = b + (j0 + q) + (pc + l) * ld;
        T* dst = panel + l * NR;
        for (int j = 0; j < nr; ++j) dst[j] = row[j];
        for (int j = nr; j < NR; ++j) dst[j] = T{0};
      }
    }
  }
};

/// B side, virtual-depth batch: op(B)(l, j) with l = s * rows + r
/// addressing b[s*stride + j*rows + r] — the stacked (rows*batch x n) slab
/// matrix consumed in its natural layout.
template <typename T>
struct PackBBatchCols {
  const T* b;
  idx_t rows;
  idx_t stride;

  void pack(T* __restrict__ buf, idx_t j0, idx_t nc, idx_t pc,
            idx_t kc) const {
    constexpr int NR = Tile<T>::NR;
    for (idx_t q = 0; q < nc; q += NR) {
      const int nr = static_cast<int>(std::min<idx_t>(NR, nc - q));
      T* panel = buf + q * kc;
      idx_t s = pc / rows, r = pc % rows;
      for (idx_t l = 0; l < kc; ++l) {
        const T* __restrict__ src = b + s * stride + r + (j0 + q) * rows;
        T* __restrict__ dst = panel + l * NR;
        for (int j = 0; j < nr; ++j) dst[j] = src[j * rows];
        for (int j = nr; j < NR; ++j) dst[j] = T{0};
        if (++r == rows) {
          r = 0;
          ++s;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Write policies: scatter a computed MR x NR tile into C as C += alpha*tile.
// ---------------------------------------------------------------------------

/// Plain column-major C with leading dimension ldc.
template <typename T>
struct CwPlain {
  T* c;
  idx_t ldc;

  void add(idx_t ig, idx_t jg, const T* tile, int mr, int nr, T alpha) const {
    constexpr int MR = Tile<T>::MR;
    T* ct = c + ig + jg * ldc;
    for (int j = 0; j < nr; ++j) {
      T* __restrict__ cj = ct + j * ldc;
      const T* __restrict__ tj = tile + j * MR;
      for (int i = 0; i < mr; ++i) cj[i] += alpha * tj[i];
    }
  }
};

/// Lower triangle of a symmetric C: entries with row >= col only.
template <typename T>
struct CwLower {
  T* c;
  idx_t ldc;

  void add(idx_t ig, idx_t jg, const T* tile, int mr, int nr, T alpha) const {
    constexpr int MR = Tile<T>::MR;
    for (int j = 0; j < nr; ++j) {
      const int istart =
          static_cast<int>(std::max<idx_t>(0, jg + j - ig));
      T* __restrict__ cj = c + ig + (jg + j) * ldc;
      const T* __restrict__ tj = tile + j * MR;
      for (int i = istart; i < mr; ++i) cj[i] += alpha * tj[i];
    }
  }
};

/// Virtual-row batch C: row i lands in row (i % m_in) of the column-major
/// (m_in x n) slab at c + (i / m_in) * stride.
template <typename T>
struct CwBatch {
  T* c;
  idx_t m_in;
  idx_t stride;

  void add(idx_t ig, idx_t jg, const T* tile, int mr, int nr, T alpha) const {
    constexpr int MR = Tile<T>::MR;
    const idx_t s0 = ig / m_in;
    const idx_t r0 = ig % m_in;
    for (int j = 0; j < nr; ++j) {
      idx_t s = s0, r = r0;
      T* col = c + s * stride + (jg + j) * m_in;
      const T* __restrict__ tj = tile + j * MR;
      for (int i = 0; i < mr; ++i) {
        col[r] += alpha * tj[i];
        if (++r == m_in) {
          r = 0;
          ++s;
          col = c + s * stride + (jg + j) * m_in;
        }
      }
    }
  }
};

/// Shared macro-kernel driver: C += alpha * A * B over the packed panels,
/// where A is m x k and B is k x n in their logical (post-op) shapes. With
/// `lower_only`, tiles strictly above the diagonal are skipped (SYRK).
template <typename T, class PA, class PB, class CW>
void gemm_driver(idx_t m, idx_t n, idx_t k, T alpha, const PA& pa,
                 const PB& pb, const CW& cw, bool lower_only) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  Scratch<T>& scratch = tls_scratch<T>();
  T* abuf = scratch.a.data();
  T* bbuf = scratch.b.data();
  alignas(64) T tile[MR * NR];
  for (idx_t jc = 0; jc < n; jc += kNC) {
    const idx_t nc = std::min(kNC, n - jc);
    for (idx_t pc = 0; pc < k; pc += kKC) {
      const idx_t kc = std::min(kKC, k - pc);
      pb.pack(bbuf, jc, nc, pc, kc);
      for (idx_t ic = 0; ic < m; ic += kMC) {
        const idx_t mc = std::min(kMC, m - ic);
        if (lower_only && ic + mc <= jc) continue;
        pa.pack(abuf, ic, mc, pc, kc);
        for (idx_t j0 = 0; j0 < nc; j0 += NR) {
          const int nr = static_cast<int>(std::min<idx_t>(NR, nc - j0));
          const idx_t jg = jc + j0;
          for (idx_t i0 = 0; i0 < mc; i0 += MR) {
            const int mr = static_cast<int>(std::min<idx_t>(MR, mc - i0));
            const idx_t ig = ic + i0;
            if (lower_only && ig + mr <= jg) continue;
            micro_tile<T>(kc, abuf + i0 * kc, bbuf + j0 * kc, tile);
            cw.add(ig, jg, tile, mr, nr, alpha);
          }
        }
      }
    }
  }
}

template <typename T>
void scale_matrix(MatrixRef<T> c, T beta) {
  if (beta == T{1}) return;
  for (idx_t j = 0; j < c.cols; ++j) {
    T* __restrict__ cj = c.col(j);
    if (beta == T{0}) {
      std::fill(cj, cj + c.rows, T{0});
    } else {
      for (idx_t i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

template <typename T>
void mirror_lower_to_upper(MatrixRef<T> c) {
  for (idx_t j = 1; j < c.cols; ++j) {
    for (idx_t i = 0; i < j; ++i) c(i, j) = c(j, i);
  }
}

}  // namespace

template <typename T>
void gemm(Op op_a, Op op_b, T alpha, ConstMatrixRef<T> a, ConstMatrixRef<T> b,
          T beta, MatrixRef<T> c) {
  const idx_t m = (op_a == Op::none) ? a.rows : a.cols;
  const idx_t ka = (op_a == Op::none) ? a.cols : a.rows;
  const idx_t kb = (op_b == Op::none) ? b.rows : b.cols;
  const idx_t n = (op_b == Op::none) ? b.cols : b.rows;
  RAHOOI_REQUIRE(ka == kb, "gemm: inner dimensions disagree");
  RAHOOI_REQUIRE(c.rows == m && c.cols == n, "gemm: C has wrong shape");

  scale_matrix(c, beta);
  if (alpha == T{0} || m == 0 || n == 0 || ka == 0) return;

  const CwPlain<T> cw{c.data, c.ld};
  if (op_a == Op::none && op_b == Op::none) {
    gemm_driver(m, n, ka, alpha, PackACols<T>{a.data, a.ld},
                PackBCols<T>{b.data, b.ld}, cw, false);
  } else if (op_a == Op::transpose && op_b == Op::none) {
    gemm_driver(m, n, ka, alpha, PackATrans<T>{a.data, a.ld},
                PackBCols<T>{b.data, b.ld}, cw, false);
  } else if (op_a == Op::none && op_b == Op::transpose) {
    gemm_driver(m, n, ka, alpha, PackACols<T>{a.data, a.ld},
                PackBRows<T>{b.data, b.ld}, cw, false);
  } else {
    gemm_driver(m, n, ka, alpha, PackATrans<T>{a.data, a.ld},
                PackBRows<T>{b.data, b.ld}, cw, false);
  }
  stats::add_flops(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                   static_cast<double>(ka));
}

template <typename T>
Matrix<T> matmul(Op op_a, Op op_b, ConstMatrixRef<T> a, ConstMatrixRef<T> b) {
  const idx_t m = (op_a == Op::none) ? a.rows : a.cols;
  const idx_t n = (op_b == Op::none) ? b.cols : b.rows;
  Matrix<T> c(m, n);
  gemm(op_a, op_b, T{1}, a, b, T{0}, c.ref());
  return c;
}

template <typename T>
void syrk(T alpha, ConstMatrixRef<T> a, T beta, MatrixRef<T> c) {
  const idx_t m = a.rows, k = a.cols;
  RAHOOI_REQUIRE(c.rows == m && c.cols == m, "syrk: C must be m x m");

  scale_matrix(c, beta);
  if (alpha != T{0} && m != 0 && k != 0) {
    // Lower triangle via the packed driver (B side reads A transposed
    // during packing), then mirror.
    gemm_driver(m, m, k, alpha, PackACols<T>{a.data, a.ld},
                PackBRows<T>{a.data, a.ld}, CwLower<T>{c.data, c.ld}, true);
    mirror_lower_to_upper(c);
  }
  stats::add_flops(static_cast<double>(m) * static_cast<double>(m + 1) *
                   static_cast<double>(k));
}

template <typename T>
void gemm_strided_batch(Op op_b, idx_t batch, T alpha, const T* a, idx_t m,
                        idx_t k, idx_t a_stride, ConstMatrixRef<T> b, T beta,
                        T* c, idx_t n, idx_t c_stride) {
  const idx_t kb = (op_b == Op::none) ? b.rows : b.cols;
  const idx_t nb = (op_b == Op::none) ? b.cols : b.rows;
  RAHOOI_REQUIRE(kb == k, "gemm_strided_batch: inner dimensions disagree");
  RAHOOI_REQUIRE(nb == n, "gemm_strided_batch: B has wrong column count");
  RAHOOI_REQUIRE(batch >= 0 && m >= 0 && n >= 0 && k >= 0,
                 "gemm_strided_batch: negative extent");

  for (idx_t s = 0; s < batch; ++s) {
    scale_matrix(MatrixRef<T>{c + s * c_stride, m, n, m}, beta);
  }
  if (alpha == T{0} || batch == 0 || m == 0 || n == 0 || k == 0) return;

  const PackABatchCols<T> pa{a, m, a_stride};
  const CwBatch<T> cw{c, m, c_stride};
  if (op_b == Op::none) {
    gemm_driver(m * batch, n, k, alpha, pa, PackBCols<T>{b.data, b.ld}, cw,
                false);
  } else {
    gemm_driver(m * batch, n, k, alpha, pa, PackBRows<T>{b.data, b.ld}, cw,
                false);
  }
  stats::add_flops(2.0 * static_cast<double>(m) * static_cast<double>(batch) *
                   static_cast<double>(n) * static_cast<double>(k));
}

template <typename T>
void gemm_batch_tn(idx_t batch, T alpha, const T* a, idx_t rows, idx_t m,
                   idx_t a_stride, const T* b, idx_t n, idx_t b_stride,
                   T beta, MatrixRef<T> c) {
  RAHOOI_REQUIRE(c.rows == m && c.cols == n,
                 "gemm_batch_tn: C has wrong shape");
  RAHOOI_REQUIRE(batch >= 0 && rows >= 0, "gemm_batch_tn: negative extent");

  scale_matrix(c, beta);
  const idx_t kk = rows * batch;
  if (alpha == T{0} || m == 0 || n == 0 || kk == 0) return;

  gemm_driver(m, n, kk, alpha, PackABatchRows<T>{a, rows, a_stride},
              PackBBatchCols<T>{b, rows, b_stride},
              CwPlain<T>{c.data, c.ld}, false);
  stats::add_flops(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                   static_cast<double>(kk));
}

template <typename T>
void syrk_batch_t(idx_t batch, T alpha, const T* a, idx_t rows, idx_t n,
                  idx_t a_stride, T beta, MatrixRef<T> c) {
  RAHOOI_REQUIRE(c.rows == n && c.cols == n,
                 "syrk_batch_t: C must be n x n");
  RAHOOI_REQUIRE(batch >= 0 && rows >= 0, "syrk_batch_t: negative extent");

  scale_matrix(c, beta);
  const idx_t kk = rows * batch;
  if (alpha != T{0} && n != 0 && kk != 0) {
    gemm_driver(n, n, kk, alpha, PackABatchRows<T>{a, rows, a_stride},
                PackBBatchCols<T>{a, rows, a_stride},
                CwLower<T>{c.data, c.ld}, true);
    mirror_lower_to_upper(c);
  }
  stats::add_flops(static_cast<double>(n) * static_cast<double>(n + 1) *
                   static_cast<double>(kk));
}

template <typename T>
void transpose(ConstMatrixRef<T> a, MatrixRef<T> b) {
  RAHOOI_REQUIRE(b.rows == a.cols && b.cols == a.rows,
                 "transpose: shape mismatch");
  constexpr idx_t kTB = 32;
  for (idx_t j0 = 0; j0 < a.cols; j0 += kTB) {
    const idx_t j1 = std::min(j0 + kTB, a.cols);
    for (idx_t i0 = 0; i0 < a.rows; i0 += kTB) {
      const idx_t i1 = std::min(i0 + kTB, a.rows);
      for (idx_t j = j0; j < j1; ++j) {
        const T* __restrict__ aj = a.col(j);
        for (idx_t i = i0; i < i1; ++i) b(j, i) = aj[i];
      }
    }
  }
}

template <typename T>
void gemv(Op op_a, T alpha, ConstMatrixRef<T> a, const T* x, T beta, T* y) {
  const idx_t m = (op_a == Op::none) ? a.rows : a.cols;
  const idx_t n = (op_a == Op::none) ? a.cols : a.rows;
  if (beta == T{0}) {
    std::fill(y, y + m, T{0});
  } else if (beta != T{1}) {
    for (idx_t i = 0; i < m; ++i) y[i] *= beta;
  }
  if (op_a == Op::none) {
    for (idx_t j = 0; j < n; ++j) {
      const T axj = alpha * x[j];
      const T* __restrict__ aj = a.col(j);
      for (idx_t i = 0; i < m; ++i) y[i] += axj * aj[i];
    }
  } else {
    for (idx_t i = 0; i < m; ++i) {
      y[i] += alpha * dot(n, a.col(i), x);
    }
  }
  stats::add_flops(2.0 * static_cast<double>(m) * static_cast<double>(n));
}

template <typename T>
T dot(idx_t n, const T* x, const T* y) {
  T acc{};
  for (idx_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

template <typename T>
void axpy(idx_t n, T alpha, const T* x, T* y) {
  for (idx_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
void scal(idx_t n, T alpha, T* x) {
  for (idx_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename T>
double sum_squares(idx_t n, const T* x) {
  double acc = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return acc;
}

template <typename T>
double frobenius_norm(ConstMatrixRef<T> a) {
  double acc = 0.0;
  for (idx_t j = 0; j < a.cols; ++j) acc += sum_squares(a.rows, a.col(j));
  return std::sqrt(acc);
}

template <typename T>
double max_abs_diff(ConstMatrixRef<T> a, ConstMatrixRef<T> b) {
  RAHOOI_REQUIRE(a.rows == b.rows && a.cols == b.cols,
                 "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (idx_t j = 0; j < a.cols; ++j) {
    for (idx_t i = 0; i < a.rows; ++i) {
      m = std::max(m, std::abs(static_cast<double>(a(i, j)) - b(i, j)));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Retained naive reference kernels (the seed implementation, minus flop
// instrumentation and minus its zero-skip shortcut so reference flops are
// deterministic). Validation oracle only.
// ---------------------------------------------------------------------------

template <typename T>
void gemm_ref(Op op_a, Op op_b, T alpha, ConstMatrixRef<T> a,
              ConstMatrixRef<T> b, T beta, MatrixRef<T> c) {
  const idx_t m = (op_a == Op::none) ? a.rows : a.cols;
  const idx_t ka = (op_a == Op::none) ? a.cols : a.rows;
  const idx_t kb = (op_b == Op::none) ? b.rows : b.cols;
  const idx_t n = (op_b == Op::none) ? b.cols : b.rows;
  RAHOOI_REQUIRE(ka == kb, "gemm_ref: inner dimensions disagree");
  RAHOOI_REQUIRE(c.rows == m && c.cols == n, "gemm_ref: C has wrong shape");

  scale_matrix(c, beta);
  if (alpha == T{0} || m == 0 || n == 0 || ka == 0) return;

  if (op_a == Op::none && op_b == Op::none) {
    for (idx_t l0 = 0; l0 < ka; l0 += kKC) {
      const idx_t l1 = std::min(l0 + kKC, ka);
      for (idx_t j = 0; j < n; ++j) {
        T* __restrict__ cj = c.col(j);
        for (idx_t l = l0; l < l1; ++l) {
          const T blj = alpha * b(l, j);
          const T* __restrict__ al = a.col(l);
          for (idx_t i = 0; i < m; ++i) cj[i] += blj * al[i];
        }
      }
    }
  } else if (op_a == Op::transpose && op_b == Op::none) {
    for (idx_t j = 0; j < n; ++j) {
      const T* __restrict__ bj = b.col(j);
      T* __restrict__ cj = c.col(j);
      for (idx_t i = 0; i < m; ++i) {
        const T* __restrict__ ai = a.col(i);
        T acc{};
        for (idx_t l = 0; l < ka; ++l) acc += ai[l] * bj[l];
        cj[i] += alpha * acc;
      }
    }
  } else if (op_a == Op::none && op_b == Op::transpose) {
    for (idx_t l0 = 0; l0 < ka; l0 += kKC) {
      const idx_t l1 = std::min(l0 + kKC, ka);
      for (idx_t j = 0; j < n; ++j) {
        T* __restrict__ cj = c.col(j);
        for (idx_t l = l0; l < l1; ++l) {
          const T bjl = alpha * b(j, l);
          const T* __restrict__ al = a.col(l);
          for (idx_t i = 0; i < m; ++i) cj[i] += bjl * al[i];
        }
      }
    }
  } else {
    for (idx_t j = 0; j < n; ++j) {
      T* __restrict__ cj = c.col(j);
      for (idx_t i = 0; i < m; ++i) {
        const T* __restrict__ ai = a.col(i);
        T acc{};
        for (idx_t l = 0; l < ka; ++l) acc += ai[l] * b(j, l);
        cj[i] += alpha * acc;
      }
    }
  }
}

template <typename T>
void syrk_ref(T alpha, ConstMatrixRef<T> a, T beta, MatrixRef<T> c) {
  const idx_t m = a.rows, k = a.cols;
  RAHOOI_REQUIRE(c.rows == m && c.cols == m, "syrk_ref: C must be m x m");

  scale_matrix(c, beta);
  for (idx_t l0 = 0; l0 < k; l0 += 128) {
    const idx_t l1 = std::min(l0 + 128, k);
    for (idx_t j = 0; j < m; ++j) {
      T* __restrict__ cj = c.col(j);
      for (idx_t l = l0; l < l1; ++l) {
        const T* __restrict__ al = a.col(l);
        const T ajl = alpha * al[j];
        for (idx_t i = j; i < m; ++i) cj[i] += ajl * al[i];
      }
    }
  }
  mirror_lower_to_upper(c);
}

#define RAHOOI_INSTANTIATE_BLAS(T)                                            \
  template void gemm<T>(Op, Op, T, ConstMatrixRef<T>, ConstMatrixRef<T>, T,   \
                        MatrixRef<T>);                                        \
  template Matrix<T> matmul<T>(Op, Op, ConstMatrixRef<T>, ConstMatrixRef<T>); \
  template void syrk<T>(T, ConstMatrixRef<T>, T, MatrixRef<T>);               \
  template void gemm_strided_batch<T>(Op, idx_t, T, const T*, idx_t, idx_t,   \
                                      idx_t, ConstMatrixRef<T>, T, T*, idx_t, \
                                      idx_t);                                 \
  template void gemm_batch_tn<T>(idx_t, T, const T*, idx_t, idx_t, idx_t,     \
                                 const T*, idx_t, idx_t, T, MatrixRef<T>);    \
  template void syrk_batch_t<T>(idx_t, T, const T*, idx_t, idx_t, idx_t, T,   \
                                MatrixRef<T>);                                \
  template void transpose<T>(ConstMatrixRef<T>, MatrixRef<T>);                \
  template void gemv<T>(Op, T, ConstMatrixRef<T>, const T*, T, T*);           \
  template T dot<T>(idx_t, const T*, const T*);                               \
  template void axpy<T>(idx_t, T, const T*, T*);                              \
  template void scal<T>(idx_t, T, T*);                                        \
  template double sum_squares<T>(idx_t, const T*);                            \
  template double frobenius_norm<T>(ConstMatrixRef<T>);                       \
  template double max_abs_diff<T>(ConstMatrixRef<T>, ConstMatrixRef<T>);      \
  template void gemm_ref<T>(Op, Op, T, ConstMatrixRef<T>, ConstMatrixRef<T>,  \
                            T, MatrixRef<T>);                                 \
  template void syrk_ref<T>(T, ConstMatrixRef<T>, T, MatrixRef<T>);

RAHOOI_INSTANTIATE_BLAS(float)
RAHOOI_INSTANTIATE_BLAS(double)

#undef RAHOOI_INSTANTIATE_BLAS

}  // namespace rahooi::la
