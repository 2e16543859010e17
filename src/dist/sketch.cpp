#include "dist/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "comm/monitor.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::dist {

namespace {

/// Bound of |CounterRng::normal|: Box-Muller with the u1 = 2^-53 clamp gives
/// sqrt(-2 ln 2^-53) < 8.58 (see common/rng.hpp). The deterministic path's
/// fixed-point scale is derived from this analytic bound instead of a
/// measured max so no extra collective is needed for Omega.
constexpr double kNormalBound = 8.58;

int ceil_log2(std::uint64_t v) {
  int b = 0;
  while ((std::uint64_t{1} << b) < v && b < 63) ++b;
  return b;
}

/// Per-rank geometry of the mode-`mode` sketch: global fiber indices of the
/// local block's fibers, decomposed over the slab geometry as
/// kk(l, s) = lk[l] + rbase(s), with l indexing the left fibers of a slab
/// and s the slabs.
struct FiberIndexer {
  std::vector<la::idx_t> lk;        ///< left part incl. offsets, size left
  std::vector<la::idx_t> rstride;   ///< global fiber stride per mode > mode
  std::vector<la::idx_t> rdim;      ///< local extent per mode > mode
  std::vector<la::idx_t> roff;      ///< global offset per mode > mode
  std::uint64_t fibers_global = 1;  ///< prod_{i != mode} n_i

  template <typename T>
  FiberIndexer(const DistTensor<T>& x, int mode) {
    const int d = x.ndims();
    // Global fiber strides: modes in increasing order with mode `mode`
    // skipped, earlier modes fastest (the slab geometry's fiber order).
    std::vector<la::idx_t> stride(static_cast<std::size_t>(d), 0);
    la::idx_t acc = 1;
    for (int i = 0; i < d; ++i) {
      if (i == mode) continue;
      stride[static_cast<std::size_t>(i)] = acc;
      acc *= x.global_dim(i);
      fibers_global *= static_cast<std::uint64_t>(x.global_dim(i));
    }
    // Left table: one entry per local left fiber, odometer over the local
    // coordinates of modes < mode (mode 0 fastest).
    const la::idx_t left = x.local().left_size(mode);
    lk.assign(static_cast<std::size_t>(left), 0);
    std::vector<la::idx_t> c(static_cast<std::size_t>(mode), 0);
    for (la::idx_t l = 0; l < left; ++l) {
      la::idx_t k = 0;
      for (int i = 0; i < mode; ++i) {
        k += (c[static_cast<std::size_t>(i)] + x.local_offset(i)) *
             stride[static_cast<std::size_t>(i)];
      }
      lk[static_cast<std::size_t>(l)] = k;
      for (int i = 0; i < mode; ++i) {
        if (++c[static_cast<std::size_t>(i)] < x.local_dim(i)) break;
        c[static_cast<std::size_t>(i)] = 0;
      }
    }
    for (int i = mode + 1; i < d; ++i) {
      rstride.push_back(stride[static_cast<std::size_t>(i)]);
      rdim.push_back(x.local_dim(i));
      roff.push_back(x.local_offset(i));
    }
  }

  /// Right (slab) part of the global fiber index for local slab `s`.
  la::idx_t rbase(la::idx_t s) const {
    la::idx_t k = 0;
    for (std::size_t i = 0; i < rstride.size(); ++i) {
      k += (s % rdim[i] + roff[i]) * rstride[i];
      s /= rdim[i];
    }
    return k;
  }
};

/// Local row blocks of the per-mode KRP factors W_i (i != mode), entries
/// keyed on *global* row indices so every grid draws the same factors.
/// Slot `mode` is left empty.
template <typename T>
std::vector<la::Matrix<double>> krp_factors(const DistTensor<T>& x, int mode,
                                            idx_t cols, const CounterRng& rng) {
  const int d = x.ndims();
  std::vector<la::Matrix<double>> w(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    if (i == mode) continue;
    const CounterRng wi = rng.stream(static_cast<std::uint64_t>(i));
    la::Matrix<double> m(x.local_dim(i), cols);
    for (idx_t t = 0; t < cols; ++t) {
      for (idx_t c = 0; c < x.local_dim(i); ++c) {
        m(c, t) = wi.normal2(static_cast<std::uint64_t>(c + x.local_offset(i)),
                             static_cast<std::uint64_t>(t));
      }
    }
    w[static_cast<std::size_t>(i)] = std::move(m);
  }
  return w;
}

/// Left-factor fold W_{mode-1} (krp) ... (krp) W_0 over this rank's rows
/// ((left x cols); all ones when mode == 0). The fold runs in increasing
/// mode order so each entry's multiplication order — and hence its bits —
/// is the same on every grid.
la::Matrix<double> fold_left_krp(const std::vector<la::Matrix<double>>& w,
                                 int mode, idx_t cols) {
  la::Matrix<double> acc(1, cols);
  for (idx_t t = 0; t < cols; ++t) acc(0, t) = 1.0;
  for (int i = 0; i < mode; ++i) {
    acc = la::khatri_rao<double>(acc.cref(),
                                 w[static_cast<std::size_t>(i)].cref());
  }
  return acc;
}

/// Right-factor column scaling for local slab `s`: rf[t] = prod_{i > mode}
/// W_i(c_i, t), multiplied in increasing mode order (bitwise deterministic).
template <typename T>
void slab_right_factor(const DistTensor<T>& x, int mode,
                       const std::vector<la::Matrix<double>>& w, idx_t s,
                       idx_t cols, double* rf) {
  for (idx_t t = 0; t < cols; ++t) rf[t] = 1.0;
  for (int i = mode + 1; i < x.ndims(); ++i) {
    const la::Matrix<double>& wi = w[static_cast<std::size_t>(i)];
    const idx_t c = s % x.local_dim(i);
    s /= x.local_dim(i);
    for (idx_t t = 0; t < cols; ++t) rf[t] *= wi(c, t);
  }
}

/// Fills the Omega block of one slab ((left x cols) column-major, ld = left)
/// for either operator family. `base` is the slab's global-fiber base index
/// (gaussian); `rf` its right-factor scaling (krp).
template <typename T>
void fill_omega_block(SketchKind kind, const CounterRng& rng,
                      const std::vector<la::idx_t>& lk, la::idx_t base,
                      const la::Matrix<double>& left_krp, const double* rf,
                      la::idx_t left, la::idx_t cols, T* out) {
  if (kind == SketchKind::gaussian) {
    for (la::idx_t t = 0; t < cols; ++t) {
      const CounterRng col = rng.stream(static_cast<std::uint64_t>(t));
      T* dst = out + t * left;
      for (la::idx_t l = 0; l < left; ++l) {
        dst[l] = static_cast<T>(col.normal(
            static_cast<std::uint64_t>(base + lk[static_cast<std::size_t>(l)])));
      }
    }
    return;
  }
  for (la::idx_t t = 0; t < cols; ++t) {
    const double* src = left_krp.data() + t * left;
    const double w = rf[t];
    T* dst = out + t * left;
    for (la::idx_t l = 0; l < left; ++l) dst[l] = static_cast<T>(src[l] * w);
  }
}

}  // namespace

template <typename T>
la::Matrix<T> dist_sketch_mode(const DistTensor<T>& x, int mode, idx_t cols,
                               const CounterRng& rng, SketchKind kind,
                               bool deterministic) {
  prof::TraceSpan span("sketch", static_cast<std::int64_t>(mode));
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "dist_sketch_mode: bad mode");
  RAHOOI_REQUIRE(cols >= 1, "dist_sketch_mode: need at least one column");
  // Site hook for the fault-tolerance suite: injected transient faults are
  // retried with bounded backoff before any collective below runs, so a
  // recovered rank re-enters the schedule in lockstep with its peers.
  const int site_rank = comm::fault_rank(x.grid().world().rank());
  fault::with_retry([&] { fault::inject_point("sketch", site_rank); });
  if (metrics::Registry* reg = metrics::registry()) {
    // Two views of the same knob: the named counter accumulates total
    // columns sketched (apply volume), the gauge's high-water mark reports
    // the widest single sketch (where the adaptive ladder topped out).
    reg->add_named("sketch.cols", static_cast<double>(cols));
    reg->record_sketch_cols(static_cast<double>(cols));
  }

  const int d = x.ndims();
  const idx_t n = x.global_dim(mode);

  const idx_t left = x.local().left_size(mode);
  const idx_t m_loc = x.local_dim(mode);
  const idx_t right = x.local().right_size(mode);
  const idx_t row_off = x.local_offset(mode);
  const FiberIndexer fib(x, mode);

  std::vector<la::Matrix<double>> w;
  la::Matrix<double> left_krp;
  if (kind == SketchKind::krp) {
    w = krp_factors(x, mode, cols, rng);
    left_krp = fold_left_krp(w, mode, cols);
  }
  std::vector<double> rf(static_cast<std::size_t>(cols), 1.0);

  la::Matrix<T> y(n, cols);
  prof::TraceSpan apply_span("sketch_apply", Phase::gram);

  if (!deterministic) {
    // Fast path: fused kernels over the slab geometry. Omega blocks are
    // generated chunk-by-chunk into bounded scratch in the slab-contiguous
    // layout gemm_batch_tn packs from (each (left x cols) block contiguous
    // with ld = left); when left == 1 the local block *is* the column-major
    // (m_loc x right) unfolding, so the chunk becomes a column-major
    // (batch x cols) operand and one tall-skinny GEMM.
    // A rank can own an empty slab (a mode already truncated to fewer
    // slices than its grid extent): it contributes zeros to the allreduce
    // but must still reach the collective in lockstep with its peers.
    const bool empty = left == 0 || m_loc == 0 || right == 0;
    constexpr idx_t kChunkElems = idx_t{1} << 20;
    const idx_t bc =
        empty ? 1
              : std::max<idx_t>(1, std::min(right, kChunkElems / (left * cols)));
    std::vector<T> omega(
        empty ? 0 : static_cast<std::size_t>(bc * left * cols));
    const metrics::ScopedBytes omega_bytes(
        metrics::MemScope::pack_buffer,
        static_cast<double>(omega.size()) * sizeof(T));
    la::Matrix<T> partial(m_loc, cols);
    for (idx_t s0 = 0; !empty && s0 < right; s0 += bc) {
      const idx_t batch = std::min(bc, right - s0);
      for (idx_t b = 0; b < batch; ++b) {
        const idx_t s = s0 + b;
        if (kind == SketchKind::krp) {
          slab_right_factor(x, mode, w, s, cols, rf.data());
        }
        if (left == 1) {
          const la::idx_t base = fib.rbase(s);
          if (kind == SketchKind::gaussian) {
            for (idx_t t = 0; t < cols; ++t) {
              omega[static_cast<std::size_t>(t * bc + b)] = static_cast<T>(
                  rng.normal2(static_cast<std::uint64_t>(base + fib.lk[0]),
                              static_cast<std::uint64_t>(t)));
            }
          } else {
            for (idx_t t = 0; t < cols; ++t) {
              omega[static_cast<std::size_t>(t * bc + b)] = static_cast<T>(
                  left_krp(0, t) * rf[static_cast<std::size_t>(t)]);
            }
          }
        } else {
          fill_omega_block(kind, rng, fib.lk, fib.rbase(s), left_krp,
                           rf.data(), left, cols,
                           omega.data() + b * left * cols);
        }
      }
      const T beta = s0 == 0 ? T{0} : T{1};
      if (left == 1) {
        const la::ConstMatrixRef<T> a_blk(x.local().data() + s0 * m_loc, m_loc,
                                          batch, m_loc);
        const la::ConstMatrixRef<T> b_blk(omega.data(), batch, cols, bc);
        la::gemm(la::Op::none, la::Op::none, T{1}, a_blk, b_blk, beta,
                 partial.ref());
      } else {
        la::gemm_batch_tn(batch, T{1}, x.local().data() + s0 * left * m_loc,
                          left, m_loc, left * m_loc, omega.data(), cols,
                          left * cols, beta, partial.ref());
      }
    }
    for (idx_t t = 0; t < cols; ++t) {
      T* dst = y.data() + t * n + row_off;
      const T* src = partial.data() + t * m_loc;
      std::copy(src, src + m_loc, dst);
    }
    x.grid().world().allreduce_sum(y.data(), y.size());
    fault::inject_payload("sketch", site_rank, y.data(),
                          sizeof(T) * static_cast<std::size_t>(y.size()));
    return y;
  }

  // Deterministic path: every product x * omega is quantized to int64 fixed
  // point with a scale all grids agree on exactly — |x| <= maxx (one exact
  // allreduce_max), |omega| bounded analytically — and the shift leaves
  // ceil(log2 K) headroom so the K-term fiber sum cannot overflow. Integer
  // addition is associative, so the integer allreduce yields bitwise
  // identical sums regardless of the grid's summation order.
  double maxx = 0.0;
  for (idx_t i = 0; i < x.local().size(); ++i) {
    maxx = std::max(maxx, std::abs(static_cast<double>(x.local()[i])));
  }
  x.grid().world().allreduce_max(&maxx, 1);
  const double wbound = kind == SketchKind::gaussian
                            ? kNormalBound
                            : std::pow(kNormalBound, std::max(1, d - 1));
  const int shift = 62 - ceil_log2(fib.fibers_global);
  const double scale =
      maxx > 0.0 ? std::ldexp(1.0, shift) / (maxx * wbound) : 0.0;

  std::vector<std::int64_t> acc(static_cast<std::size_t>(n * cols), 0);
  const metrics::ScopedBytes acc_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(acc.size()) * sizeof(std::int64_t));
  std::vector<double> wrow(static_cast<std::size_t>(cols));
  for (idx_t s = 0; s < right; ++s) {
    if (kind == SketchKind::krp) {
      slab_right_factor(x, mode, w, s, cols, rf.data());
    }
    const la::idx_t base = fib.rbase(s);
    const T* slab = x.local().data() + s * left * m_loc;
    for (idx_t l = 0; l < left; ++l) {
      const std::uint64_t kk = static_cast<std::uint64_t>(
          base + fib.lk[static_cast<std::size_t>(l)]);
      if (kind == SketchKind::gaussian) {
        for (idx_t t = 0; t < cols; ++t) {
          wrow[static_cast<std::size_t>(t)] =
              rng.normal2(kk, static_cast<std::uint64_t>(t));
        }
      } else {
        const double* lrow = left_krp.data();
        for (idx_t t = 0; t < cols; ++t) {
          wrow[static_cast<std::size_t>(t)] =
              lrow[l + t * left] * rf[static_cast<std::size_t>(t)];
        }
      }
      for (idx_t t = 0; t < cols; ++t) {
        const double ws = wrow[static_cast<std::size_t>(t)] * scale;
        std::int64_t* col = acc.data() + t * n + row_off;
        for (idx_t i = 0; i < m_loc; ++i) {
          col[i] += std::llrint(static_cast<double>(slab[i * left + l]) * ws);
        }
      }
    }
  }
  x.grid().world().allreduce_sum(acc.data(), static_cast<idx_t>(acc.size()));
  const double inv = scale > 0.0 ? 1.0 / scale : 0.0;
  for (idx_t i = 0; i < n * cols; ++i) {
    y.data()[i] = static_cast<T>(
        static_cast<double>(acc[static_cast<std::size_t>(i)]) * inv);
  }
  // Match the fast path's accounting: one multiply-add per local tensor
  // entry per sketch column (the quantization llrint is not a flop).
  stats::add_flops(2.0 * static_cast<double>(x.local().size()) *
                   static_cast<double>(cols));
  fault::inject_payload("sketch", site_rank, y.data(),
                        sizeof(T) * static_cast<std::size_t>(y.size()));
  return y;
}

template la::Matrix<float> dist_sketch_mode<float>(const DistTensor<float>&,
                                                   int, idx_t,
                                                   const CounterRng&,
                                                   SketchKind, bool);
template la::Matrix<double> dist_sketch_mode<double>(const DistTensor<double>&,
                                                     int, idx_t,
                                                     const CounterRng&,
                                                     SketchKind, bool);

}  // namespace rahooi::dist
