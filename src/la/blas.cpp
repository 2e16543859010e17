#include "la/blas.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

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
constexpr idx_t kKC = kGemmDepthBlock;
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

// ---------------------------------------------------------------------------
// Unpacked skinny kernels (gemm_skinny_batch). A truncating TTM multiplies a
// tensor-sized operand by a factor of at most kSkinnyMaxCols columns. Packing
// that operand costs as much memory traffic as the product itself, and in the
// transposed (mode-0) form an MR-row tile over r = 12 outputs is mostly zero
// padding. These kernels read A in place and keep B transposed, padded to
// whole vectors, in the thread's B-panel scratch. Every accumulator starts at
// zero and runs over l in increasing order with micro_tile's vector
// operations, and is stored once. Both forms keep their output tile in the
// A-panel scratch: on a rank thread's stack the column form ran 2-3% slower
// than on the main thread (bench_overhead_guard metrics_guard).
// ---------------------------------------------------------------------------

/// Accumulator vectors one skinny block holds: AVX-512 has 32 vector
/// registers, narrower ISAs 16, and the operands need the rest.
constexpr int kSkinnyAcc = (kVecBytes == 64) ? 24 : 12;

/// Most B vectors one column-form pass keeps in registers.
constexpr int kSkinnyMaxNV = 4;

/// Row form blocking: rows of A go in blocks of kSkinnyRowBlock and the
/// depth in groups of kSkinnyDepthGroup, so each step streams a few long
/// contiguous column runs of A instead of touching every column's page.
/// Partial sums live in an L1/L2 tile between depth groups.
constexpr idx_t kSkinnyRowBlock = 256;
constexpr idx_t kSkinnyDepthGroup = 32;

/// How far ahead of the rows being multiplied the row form prefetches each
/// column run of A.
constexpr int kSkinnyPrefetchBytes = 1024;

/// All lanes x. Unlike micro_tile's Vec{} + x it is a single broadcast
/// load; the two differ only for x = -0, which makes no difference to a
/// product that is added to a sum started at +0.
template <typename T, std::size_t... I>
inline typename Tile<T>::Vec splat(T x, std::index_sequence<I...>) {
  return typename Tile<T>::Vec{(static_cast<void>(I), x)...};
}
template <typename T>
inline typename Tile<T>::Vec splat(T x) {
  return splat(x, std::make_index_sequence<Tile<T>::VL>{});
}

/// Column form: NJ consecutive length-k columns of `a` times the NV*VL
/// columns of the transposed panel `bt` (row stride np), into `out` (row
/// stride np, one row per column of `a`).
template <typename T, int NV, int NJ>
void skinny_cols(idx_t k, const T* __restrict__ a, const T* __restrict__ bt,
                 idx_t np, T* __restrict__ out) {
  using Vec = typename Tile<T>::Vec;
  constexpr int VL = Tile<T>::VL;
  Vec acc[NV * NJ];
  for (int x = 0; x < NV * NJ; ++x) acc[x] = Vec{};
  // The next block of columns, two cache lines per step.
  const T* next = a + NJ * k;
  constexpr int kLine = 64 / static_cast<int>(sizeof(T));
  for (idx_t l = 0; l < k; ++l) {
    __builtin_prefetch(next + 2 * l * kLine);
    __builtin_prefetch(next + (2 * l + 1) * kLine);
    Vec bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = *reinterpret_cast<const Vec*>(bt + l * np + v * VL);
    }
    for (int j = 0; j < NJ; ++j) {
      const Vec av = splat(a[j * k + l]);
      for (int v = 0; v < NV; ++v) acc[v + j * NV] += bv[v] * av;
    }
  }
  for (int j = 0; j < NJ; ++j) {
    for (int v = 0; v < NV; ++v) {
      *reinterpret_cast<Vec*>(out + j * np + v * VL) = acc[v + j * NV];
    }
  }
}

/// Row form: MU*VL rows of the column-major block `a` (leading dimension
/// lda, already offset to the block's first row and depth) over a depth
/// group of lg, times the NC columns of the transposed panel `bt` (row
/// stride np). Column c's sums start at zero on the first group and are
/// reloaded from row it of its tile column (tile + c * kSkinnyRowBlock)
/// otherwise; the last group stores them to row i of col[c], earlier ones
/// back to the tile.
template <typename T, int MU, int NC>
void skinny_rows(idx_t lg, const T* __restrict__ a, idx_t lda,
                 const T* __restrict__ bt, idx_t np, T* const* col, T* tile,
                 idx_t i, idx_t it, bool first, bool last) {
  using Vec = typename Tile<T>::Vec;
  constexpr int VL = Tile<T>::VL;
  Vec acc[MU * NC];
  for (int c = 0; c < NC; ++c) {
    const T* partial = tile + c * kSkinnyRowBlock + it;
    for (int u = 0; u < MU; ++u) {
      acc[u + c * MU] =
          first ? Vec{} : *reinterpret_cast<const Vec*>(partial + u * VL);
    }
  }
  for (idx_t l = 0; l < lg; ++l) {
    const T* __restrict__ al = a + l * lda;
    const T* __restrict__ bl = bt + l * np;
    __builtin_prefetch(al + kSkinnyPrefetchBytes / sizeof(T));
    __builtin_prefetch(al + (kSkinnyPrefetchBytes + 64) / sizeof(T));
    Vec av[MU];
    for (int u = 0; u < MU; ++u) {
      av[u] = *reinterpret_cast<const Vec*>(al + u * VL);
    }
    for (int c = 0; c < NC; ++c) {
      const Vec bv = splat(bl[c]);
      for (int u = 0; u < MU; ++u) acc[u + c * MU] += av[u] * bv;
    }
  }
  for (int c = 0; c < NC; ++c) {
    T* dst = last ? col[c] + i : tile + c * kSkinnyRowBlock + it;
    for (int u = 0; u < MU; ++u) {
      *reinterpret_cast<Vec*>(dst + u * VL) = acc[u + c * MU];
    }
  }
}

template <typename T>
using SkinnyColsFn = void (*)(idx_t, const T*, const T*, idx_t, T*);
template <typename T>
using SkinnyRowsFn = void (*)(idx_t, const T*, idx_t, const T*, idx_t,
                              T* const*, T*, idx_t, idx_t, bool, bool);

/// skinny_rows<T, MU, NC> for NC = 1 .. kSkinnyAcc / MU, indexed by NC - 1.
template <typename T, int MU, std::size_t... I>
constexpr auto skinny_rows_table(std::index_sequence<I...>) {
  return std::array<SkinnyRowsFn<T>, sizeof...(I)>{
      &skinny_rows<T, MU, static_cast<int>(I) + 1>...};
}
template <typename T, int MU>
constexpr auto kSkinnyRows =
    skinny_rows_table<T, MU>(std::make_index_sequence<kSkinnyAcc / MU>{});

/// A full column block (kSkinnyAcc / NV columns) and a single column of the
/// column form, for passes of NV = 1 .. kSkinnyMaxNV vectors.
template <typename T, std::size_t... I>
constexpr auto skinny_cols_table(std::index_sequence<I...>) {
  return std::array<std::pair<SkinnyColsFn<T>, SkinnyColsFn<T>>,
                    sizeof...(I)>{std::pair<SkinnyColsFn<T>, SkinnyColsFn<T>>{
      &skinny_cols<T, static_cast<int>(I) + 1,
                   kSkinnyAcc / (static_cast<int>(I) + 1)>,
      &skinny_cols<T, static_cast<int>(I) + 1, 1>}...};
}
template <typename T>
constexpr auto kSkinnyCols =
    skinny_cols_table<T>(std::make_index_sequence<kSkinnyMaxNV>{});

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
void gemm_skinny_batch(idx_t batch, const T* a, idx_t m, idx_t k,
                       ConstMatrixRef<T> b,
                       const std::vector<idx_t>& part_cols, T* c) {
  constexpr int VL = Tile<T>::VL;
  const idx_t n = b.cols;
  RAHOOI_REQUIRE(b.rows == k, "gemm_skinny_batch: inner dimensions disagree");
  RAHOOI_REQUIRE(n <= kSkinnyMaxCols && k <= kGemmDepthBlock,
                 "gemm_skinny_batch: result too wide or product too deep");
  RAHOOI_REQUIRE(batch >= 0 && m >= 0, "gemm_skinny_batch: negative extent");
  idx_t covered = 0;
  for (const idx_t len : part_cols) {
    RAHOOI_REQUIRE(len >= 0, "gemm_skinny_batch: negative part");
    covered += len;
  }
  RAHOOI_REQUIRE(covered == n,
                 "gemm_skinny_batch: parts must cover the result columns");
  if (batch == 0 || m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n * batch, T{0});
    return;
  }

  // B^T, each row padded to np entries (whole vectors for the column form).
  const idx_t nv = (n + VL - 1) / VL;
  const int nvb = static_cast<int>(std::min<idx_t>(nv, kSkinnyMaxNV));
  const idx_t passes = (nv + nvb - 1) / nvb;
  const idx_t np = (m == 1) ? passes * nvb * VL : n;
  T* bt = tls_scratch<T>().b.data();
  for (idx_t l = 0; l < k; ++l) {
    for (idx_t j = 0; j < n; ++j) bt[l * np + j] = b(l, j);
    std::fill(bt + l * np + n, bt + (l + 1) * np, T{0});
  }

  if (m == 1) {
    // Vectorized over the n results of each column of A; every column's
    // results are then split into the parts.
    const idx_t nj = kSkinnyAcc / nvb;
    T* tile = tls_scratch<T>().a.data();
    const auto [block, single] = kSkinnyCols<T>[nvb - 1];
    for (idx_t j0 = 0; j0 < batch; j0 += nj) {
      const idx_t jn = std::min(nj, batch - j0);
      const T* aj = a + j0 * k;
      for (idx_t p = 0; p < passes; ++p) {
        const idx_t o = p * nvb * VL;
        if (jn == nj) {
          block(k, aj, bt + o, np, tile + o);
        } else {
          for (idx_t j = 0; j < jn; ++j) {
            single(k, aj + j * k, bt + o, np, tile + j * np + o);
          }
        }
      }
      if (part_cols.size() == 1 && np == n) {
        // Unpadded rows in the plain layout: the block is one run of C.
        std::copy(tile, tile + jn * n, c + j0 * n);
        continue;
      }
      for (idx_t j = 0; j < jn; ++j) {
        idx_t off = 0;
        for (const idx_t len : part_cols) {
          std::copy(tile + j * np + off, tile + j * np + off + len,
                    c + off * batch + (j0 + j) * len);
          off += len;
        }
      }
    }
  } else {
    // Vectorized over rows. The n columns go in near-equal chunks that fit
    // the accumulator registers; each row block of A is read from memory
    // once, one depth group of contiguous column runs at a time.
    constexpr int MU = 2;
    const idx_t chunks = (n + kSkinnyAcc / MU - 1) / (kSkinnyAcc / MU);
    T* col[kSkinnyMaxCols];
    T* tile = tls_scratch<T>().a.data();
    const idx_t m_vec = m / VL * VL;
    for (idx_t s = 0; s < batch; ++s) {
      idx_t off = 0, cidx = 0;
      for (const idx_t len : part_cols) {
        T* part = c + off * m * batch + s * len * m;
        for (idx_t j = 0; j < len; ++j) col[cidx++] = part + j * m;
        off += len;
      }
      const T* as = a + s * m * k;
      for (idx_t i0 = 0; i0 < m_vec; i0 += kSkinnyRowBlock) {
        const idx_t i1 = std::min(i0 + kSkinnyRowBlock, m_vec);
        for (idx_t g = 0; g < k; g += kSkinnyDepthGroup) {
          const idx_t lg = std::min(kSkinnyDepthGroup, k - g);
          const bool first = g == 0, last = g + lg == k;
          const T* ag = as + g * m;
          for (idx_t q = 0, c0 = 0; q < chunks; ++q) {
            const idx_t nc = n / chunks + (q < n % chunks ? 1 : 0);
            T* const* cc = col + c0;
            T* tc = tile + c0 * kSkinnyRowBlock;
            const T* bg = bt + g * np + c0;
            idx_t i = i0;
            for (; i + MU * VL <= i1; i += MU * VL) {
              kSkinnyRows<T, MU>[nc - 1](lg, ag + i, m, bg, np, cc, tc, i,
                                         i - i0, first, last);
            }
            for (; i < i1; i += VL) {
              kSkinnyRows<T, 1>[nc - 1](lg, ag + i, m, bg, np, cc, tc, i,
                                        i - i0, first, last);
            }
            c0 += nc;
          }
        }
      }
      for (idx_t i = m_vec; i < m; ++i) {
        for (idx_t j = 0; j < n; ++j) {
          T acc{};
          for (idx_t l = 0; l < k; ++l) acc += as[i + l * m] * bt[l * np + j];
          col[j][i] = acc;
        }
      }
    }
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
  template void gemm_skinny_batch<T>(idx_t, const T*, idx_t, idx_t,          \
                                     ConstMatrixRef<T>,                      \
                                     const std::vector<idx_t>&, T*);         \
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
