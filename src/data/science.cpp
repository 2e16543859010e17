#include "data/science.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "la/blas.hpp"

namespace rahooi::data {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr int kModes = 14;
constexpr idx_t kMaxVars = 64;

// A superposition of low-wavenumber traveling waves with polynomially
// decaying amplitudes — the "turbulent" component shared by all three
// substitutes. Wave m has an integer frequency per continuous axis, a
// per-variable coupling coefficient, and a temporal frequency:
//
//   wave(s, t, v) = sum_m amp_m c_mv sin(2 pi (f_m . s + omega_m t) + phi_m).
struct WavePack {
  double amp[kModes];
  double freq[kModes][4];  // x, y, z, then the temporal frequency omega
  double phase[kModes];
  double var_coeff[kModes][kMaxVars];

  WavePack(const CounterRng& rng, int axes, idx_t nvar, double decay) {
    idx_t c = 0;
    for (int m = 0; m < kModes; ++m) {
      amp[m] = std::pow(m + 1.0, -decay);
      for (int a = 0; a < 3; ++a) {
        freq[m][a] = a < axes
                         ? std::floor(rng.uniform(c++) * 5.0) + 1.0
                         : 0.0;
      }
      freq[m][3] = std::floor(rng.uniform(c++) * 3.0) + 1.0;
      phase[m] = rng.uniform(c++) * kTwoPi;
      for (idx_t v = 0; v < kMaxVars; ++v) {
        var_coeff[m][v] = v < nvar ? rng.normal(c + v) : 0.0;
      }
      c += kMaxVars;
    }
  }
};

/// One mode of a block: global extent, first global index, local length.
struct Axis {
  idx_t n = 1;
  idx_t offset = 0;
  idx_t len = 1;
};

double unit(idx_t i, idx_t n) {
  return static_cast<double>(i) / static_cast<double>(n);
}

/// tanh(a - b) given ea = e^{2a} and eb = e^{-2b}. The fronts' tanh
/// arguments are differences of per-axis terms, so their exponentials split
/// into per-axis tables and each entry costs a multiply and a divide. The
/// absolute error is at most half the relative error of ea * eb: about
/// 1e-15 for the fronts' |2a|, |2b| <= 40.
double tanh_diff(double ea, double eb) {
  const double q = ea * eb;
  return (q - 1.0) / (q + 1.0);
}

/// e^{i (2 pi f i / n + shift)} for every mode m and local index i of `ax`
/// ([m * len + i]), with f = freq[m][f_col] reduced exactly mod n.
std::vector<std::complex<double>> phase_table(const WavePack& w, int f_col,
                                              const Axis& ax,
                                              const double* shift) {
  std::vector<std::complex<double>> tab(
      static_cast<std::size_t>(kModes * ax.len));
  for (int m = 0; m < kModes; ++m) {
    const auto f = static_cast<idx_t>(w.freq[m][f_col]);
    for (idx_t i = 0; i < ax.len; ++i) {
      const idx_t k = (f * (ax.offset + i)) % ax.n;
      const double theta = kTwoPi * static_cast<double>(k) /
                               static_cast<double>(ax.n) +
                           (shift != nullptr ? shift[m] : 0.0);
      tab[m * ax.len + i] = std::polar(1.0, theta);
    }
  }
  return tab;
}

/// Evaluates the wave sum over one block in separable form and hands it to
/// `store` tile by tile. The block is viewed column-major as a (space x
/// columns) matrix: rows are the spatial modes `space` (x fastest, grouped
/// into whole x-lines), column v + nv * g pairs variable v of `var` with
/// index g of the `outer` mode, whose frequency is freq[m][outer_f].
///
/// Integer frequencies make sin(2 pi (f . s + omega t) + phi) =
/// Im E_m(s) Re G_m(t) + Re E_m(s) Im G_m(t), with E_m(s) = e^{i 2 pi f . s}
/// a product of per-axis phase tables and G_m(t) = e^{i(2 pi omega t +
/// phi)}. The wave term of a tile is therefore one GEMM of the spatial
/// phase matrix [Im E | Re E] (rows x 2 kModes) with the coefficient matrix
/// holding amp_m c_mv {Re, Im} G_m(g), accumulated in double. Every entry
/// is the same fixed-order sum over the 2 kModes terms whatever the tile
/// shape, so the result is identical on every processor grid.
///
/// `store(line0, line1, g0, g1, wave)` receives the rows of x-lines
/// [line0, line1) (row r = x + lx * (line - line0)) for outer indices
/// [g0, g1). Transient memory is the phase tables plus one tile each of
/// phases, coefficients and wave values. Tiles stay under glibc's default
/// 128 KiB mmap threshold: freeing a larger buffer raises that threshold
/// for the whole process, which moved the later solve's temporaries into
/// the heap arenas and added 25-40 MB to the peak RSS of a 524 MB solve.
template <class Store>
void wave_tiles(const WavePack& w, const std::vector<Axis>& space,
                const Axis& var, const Axis& outer, int outer_f,
                Store&& store) {
  constexpr idx_t kTileRows = 512;
  constexpr idx_t kTileCols = 256;
  constexpr idx_t kTileEntries = 8192;
  constexpr idx_t kTerms = 2 * kModes;
  const idx_t lx = space[0].len;
  idx_t lines = 1;
  for (std::size_t a = 1; a < space.size(); ++a) lines *= space[a].len;
  const idx_t nv = var.len;
  if (lx * lines * nv * outer.len == 0) return;
  // Generation is input set-up, not solver work: the GEMMs' flops go to a
  // discarded ledger so they never reach the caller's Stats.
  Stats discarded;
  const ScopedStats quiet(discarded);

  std::vector<std::vector<std::complex<double>>> tables;
  for (std::size_t a = 0; a < space.size(); ++a) {
    tables.push_back(phase_table(w, static_cast<int>(a), space[a], nullptr));
  }
  const std::vector<std::complex<double>> g_tab =
      phase_table(w, outer_f, outer, w.phase);

  const idx_t tile_lines = std::clamp<idx_t>(kTileRows / lx, 1, lines);
  const idx_t tile_g = std::clamp<idx_t>(
      std::min(kTileEntries / (lx * tile_lines), kTileCols) / nv, 1,
      outer.len);
  la::Matrix<double> phases(lx * tile_lines, kTerms);
  la::Matrix<double> coeff(kTerms, nv * tile_g);
  la::Matrix<double> wave(lx * tile_lines, nv * tile_g);
  for (idx_t line0 = 0; line0 < lines; line0 += tile_lines) {
    const idx_t line1 = std::min(line0 + tile_lines, lines);
    const idx_t rows = lx * (line1 - line0);
    for (idx_t line = line0; line < line1; ++line) {
      for (int m = 0; m < kModes; ++m) {
        // E_m over the x-line: the x table times the line's y (and z) phase.
        std::complex<double> e_yz{1.0, 0.0};
        idx_t rest = line;
        for (std::size_t a = 1; a < space.size(); ++a) {
          e_yz *= tables[a][m * space[a].len + rest % space[a].len];
          rest /= space[a].len;
        }
        const std::complex<double>* e_x = &tables[0][m * lx];
        const idx_t r0 = lx * (line - line0);
        for (idx_t x = 0; x < lx; ++x) {
          const std::complex<double> e = e_x[x] * e_yz;
          phases(r0 + x, m) = e.imag();
          phases(r0 + x, kModes + m) = e.real();
        }
      }
    }
    for (idx_t g0 = 0; g0 < outer.len; g0 += tile_g) {
      const idx_t g1 = std::min(g0 + tile_g, outer.len);
      const idx_t cols = nv * (g1 - g0);
      for (idx_t g = g0; g < g1; ++g) {
        for (idx_t v = 0; v < nv; ++v) {
          const idx_t c = v + nv * (g - g0);
          for (int m = 0; m < kModes; ++m) {
            const double a = w.amp[m] * w.var_coeff[m][var.offset + v];
            const std::complex<double> gm = g_tab[m * outer.len + g];
            coeff(m, c) = a * gm.real();
            coeff(kModes + m, c) = a * gm.imag();
          }
        }
      }
      la::MatrixRef<double> tile = wave.ref().block(0, 0, rows, cols);
      la::gemm(la::Op::none, la::Op::none, 1.0,
               phases.cref().block(0, 0, rows, kTerms),
               coeff.cref().block(0, 0, kTerms, cols), 0.0, tile);
      store(line0, line1, g0, g1, la::ConstMatrixRef<double>(tile));
    }
  }
}

std::vector<Axis> block_axes(const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& offsets,
                             const std::vector<idx_t>& lens) {
  std::vector<Axis> axes(dims.size());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    axes[j] = {dims[j], offsets[j], lens[j]};
  }
  return axes;
}

// Miranda-like: sharp but smooth mixing interface whose height is modulated
// in (x, y), plus a turbulence spectrum. Matches the original's key trait:
// the density field is dominated by a low-dimensional coherent structure.
// Rows are (x, y), the outer mode is z:
//   1.5 + tanh((z - h(x, y)) / 0.08) + 0.15 wave(x, y, z).
template <typename T>
void fill_miranda(T* out, const std::vector<idx_t>& dims,
                  const std::vector<idx_t>& offsets,
                  const std::vector<idx_t>& lens, const WavePack& waves) {
  const std::vector<Axis> ax = block_axes(dims, offsets, lens);
  const idx_t n = dims[0];
  const idx_t lx = ax[0].len, plane = lx * ax[1].len;
  // e^{-h / 0.04} per (x, y): the interface height's half of the front.
  std::vector<double> e_height(static_cast<std::size_t>(plane));
  for (idx_t iy = 0; iy < ax[1].len; ++iy) {
    const double y = unit(ax[1].offset + iy, n);
    for (idx_t ix = 0; ix < lx; ++ix) {
      const double x = unit(ax[0].offset + ix, n);
      const double height =
          0.5 + 0.1 * std::sin(kTwoPi * x) * std::cos(kTwoPi * y);
      e_height[ix + lx * iy] = std::exp(-height / 0.04);
    }
  }
  wave_tiles(waves, {ax[0], ax[1]}, Axis{}, ax[2], 2,
             [&](idx_t line0, idx_t line1, idx_t g0, idx_t g1,
                 la::ConstMatrixRef<double> wave) {
               const idx_t r0 = lx * line0, rows = lx * (line1 - line0);
               for (idx_t g = g0; g < g1; ++g) {
                 const double e_z = std::exp(unit(ax[2].offset + g, n) / 0.04);
                 const double* wc = wave.col(g - g0);
                 const double* e_h = e_height.data() + r0;
                 T* dst = out + r0 + plane * g;
                 for (idx_t r = 0; r < rows; ++r) {
                   const double front = tanh_diff(e_z, e_h[r]);
                   dst[r] = static_cast<T>(1.5 + front + 0.15 * wc[r]);
                 }
               }
             });
}

// HCCI-like: an ignition front advancing in time, with per-variable
// amplitude decay across the (small) variable mode. Rows are (x, y), the
// outer mode is time; the front depends on no variable, so each (x, y, t)
// evaluates it once for all nvar slabs:
//   e^{-0.35 v} (1 + 0.8 tanh((y - p(x, t)) / 0.06)) + 0.2 wave(x, y, t, v).
template <typename T>
void fill_hcci(T* out, const std::vector<idx_t>& dims,
               const std::vector<idx_t>& offsets,
               const std::vector<idx_t>& lens, const WavePack& waves) {
  const std::vector<Axis> ax = block_axes(dims, offsets, lens);
  const idx_t lx = ax[0].len, nv = ax[2].len, plane = lx * ax[1].len;
  std::vector<double> sin_x(static_cast<std::size_t>(lx)), w_v(nv);
  std::vector<double> e_y(static_cast<std::size_t>(ax[1].len));
  for (idx_t ix = 0; ix < lx; ++ix) {
    sin_x[ix] = std::sin(kTwoPi * unit(ax[0].offset + ix, dims[0]));
  }
  for (idx_t v = 0; v < nv; ++v) {
    w_v[v] = std::exp(-0.35 * static_cast<double>(ax[2].offset + v));
  }
  for (idx_t iy = 0; iy < ax[1].len; ++iy) {
    e_y[iy] = std::exp(unit(ax[1].offset + iy, dims[1]) / 0.03);
  }
  std::vector<double> front, e_pos(static_cast<std::size_t>(lx));
  wave_tiles(waves, {ax[0], ax[1]}, ax[2], ax[3], 3,
             [&](idx_t line0, idx_t line1, idx_t g0, idx_t g1,
                 la::ConstMatrixRef<double> wave) {
               const idx_t r0 = lx * line0, rows = lx * (line1 - line0);
               front.resize(static_cast<std::size_t>(rows));
               for (idx_t g = g0; g < g1; ++g) {
                 const double t = unit(ax[3].offset + g, dims[3]);
                 for (idx_t ix = 0; ix < lx; ++ix) {
                   const double pos = 0.3 + 0.4 * t + 0.05 * sin_x[ix];
                   e_pos[ix] = std::exp(-pos / 0.03);
                 }
                 for (idx_t line = line0; line < line1; ++line) {
                   double* f = front.data() + lx * (line - line0);
                   for (idx_t ix = 0; ix < lx; ++ix) {
                     f[ix] = tanh_diff(e_y[line], e_pos[ix]);
                   }
                 }
                 for (idx_t v = 0; v < nv; ++v) {
                   const double* wc = wave.col(v + nv * (g - g0));
                   T* dst = out + r0 + plane * (v + nv * g);
                   for (idx_t r = 0; r < rows; ++r) {
                     dst[r] = static_cast<T>(w_v[v] * (1.0 + 0.8 * front[r]) +
                                             0.2 * wc[r]);
                   }
                 }
               }
             });
}

// SP-like: statistically-stationary planar flame in x with weak wrinkling
// in (y, z) and per-variable couplings. Rows are (x, y, z), the outer mode
// is time; the front is evaluated once per (x, y, z, t) for all nvar slabs:
//   e^{-0.3 v} (1 + 0.7 tanh((x - 0.5 - k(y, z, t)) / 0.05))
//       + 0.15 wave(x, y, z, t, v).
template <typename T>
void fill_sp(T* out, const std::vector<idx_t>& dims,
             const std::vector<idx_t>& offsets,
             const std::vector<idx_t>& lens, const WavePack& waves) {
  const std::vector<Axis> ax = block_axes(dims, offsets, lens);
  const idx_t lx = ax[0].len, ly = ax[1].len, nv = ax[3].len;
  const idx_t space = lx * ly * ax[2].len;
  std::vector<double> w_v(nv), front, e_x(static_cast<std::size_t>(lx));
  for (idx_t v = 0; v < nv; ++v) {
    w_v[v] = std::exp(-0.3 * static_cast<double>(ax[3].offset + v));
  }
  for (idx_t ix = 0; ix < lx; ++ix) {
    e_x[ix] = std::exp(unit(ax[0].offset + ix, dims[0]) / 0.025);
  }
  wave_tiles(waves, {ax[0], ax[1], ax[2]}, ax[3], ax[4], 3,
             [&](idx_t line0, idx_t line1, idx_t g0, idx_t g1,
                 la::ConstMatrixRef<double> wave) {
               const idx_t r0 = lx * line0, rows = lx * (line1 - line0);
               front.resize(static_cast<std::size_t>(rows));
               for (idx_t g = g0; g < g1; ++g) {
                 const double t = unit(ax[4].offset + g, dims[4]);
                 for (idx_t line = line0; line < line1; ++line) {
                   const double y = unit(ax[1].offset + line % ly, dims[1]);
                   const double z = unit(ax[2].offset + line / ly, dims[2]);
                   const double wrinkle =
                       0.04 * std::sin(kTwoPi * y) * std::sin(kTwoPi * z) +
                       0.02 * std::sin(kTwoPi * (2 * y + t));
                   const double e_w = std::exp(-(0.5 + wrinkle) / 0.025);
                   double* f = front.data() + lx * (line - line0);
                   for (idx_t ix = 0; ix < lx; ++ix) {
                     f[ix] = tanh_diff(e_x[ix], e_w);
                   }
                 }
                 for (idx_t v = 0; v < nv; ++v) {
                   const double* wc = wave.col(v + nv * (g - g0));
                   T* dst = out + r0 + space * (v + nv * g);
                   for (idx_t r = 0; r < rows; ++r) {
                     dst[r] = static_cast<T>(w_v[v] * (1.0 + 0.7 * front[r]) +
                                             0.15 * wc[r]);
                   }
                 }
               }
             });
}

/// A fresh distributed tensor whose blocks `fill` writes in place.
template <typename T, class Fill>
dist::DistTensor<T> generate_blocks(const dist::ProcessorGrid& grid,
                                    const std::vector<idx_t>& dims,
                                    const WavePack& waves, Fill fill) {
  dist::DistTensor<T> x(grid, dims);
  std::vector<idx_t> offsets(dims.size()), lens(dims.size());
  for (int j = 0; j < x.ndims(); ++j) {
    offsets[j] = x.local_offset(j);
    lens[j] = x.local_dim(j);
  }
  fill(x.local().data(), dims, offsets, lens, waves);
  return x;
}

}  // namespace

template <typename T>
dist::DistTensor<T> miranda_like(const dist::ProcessorGrid& grid, idx_t n,
                                 std::uint64_t seed) {
  const WavePack waves(CounterRng(seed), 3, 1, 2.2);
  return generate_blocks<T>(grid, {n, n, n}, waves, fill_miranda<T>);
}

template <typename T>
tensor::Tensor<T> miranda_like_serial(idx_t n, std::uint64_t seed) {
  const WavePack waves(CounterRng(seed), 3, 1, 2.2);
  tensor::Tensor<T> x({n, n, n});
  fill_miranda(x.data(), x.dims(), {0, 0, 0}, x.dims(), waves);
  return x;
}

template <typename T>
dist::DistTensor<T> hcci_like(const dist::ProcessorGrid& grid, idx_t nx,
                              idx_t ny, idx_t nvar, idx_t nt,
                              std::uint64_t seed) {
  RAHOOI_REQUIRE(nvar >= 1 && nvar <= kMaxVars,
                 "hcci_like: nvar must be in [1, 64]");
  const WavePack waves(CounterRng(seed), 2, nvar, 1.8);
  return generate_blocks<T>(grid, {nx, ny, nvar, nt}, waves, fill_hcci<T>);
}

template <typename T>
dist::DistTensor<T> sp_like(const dist::ProcessorGrid& grid, idx_t nx,
                            idx_t ny, idx_t nz, idx_t nvar, idx_t nt,
                            std::uint64_t seed) {
  RAHOOI_REQUIRE(nvar >= 1 && nvar <= kMaxVars,
                 "sp_like: nvar must be in [1, 64]");
  const WavePack waves(CounterRng(seed), 3, nvar, 1.9);
  return generate_blocks<T>(grid, {nx, ny, nz, nvar, nt}, waves,
                            fill_sp<T>);
}

#define RAHOOI_INSTANTIATE_SCIENCE(T)                                      \
  template dist::DistTensor<T> miranda_like<T>(const dist::ProcessorGrid&, \
                                               idx_t, std::uint64_t);      \
  template tensor::Tensor<T> miranda_like_serial<T>(idx_t, std::uint64_t); \
  template dist::DistTensor<T> hcci_like<T>(const dist::ProcessorGrid&,    \
                                            idx_t, idx_t, idx_t, idx_t,    \
                                            std::uint64_t);                \
  template dist::DistTensor<T> sp_like<T>(const dist::ProcessorGrid&,      \
                                          idx_t, idx_t, idx_t, idx_t,      \
                                          idx_t, std::uint64_t);

RAHOOI_INSTANTIATE_SCIENCE(float)
RAHOOI_INSTANTIATE_SCIENCE(double)

#undef RAHOOI_INSTANTIATE_SCIENCE

}  // namespace rahooi::data
