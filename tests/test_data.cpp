#include "data/science.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <type_traits>
#include <numbers>

#include "common/rng.hpp"
#include "comm/runtime.hpp"
#include "core/sthosvd.hpp"
#include "la/svd.hpp"
#include "tensor/ttm.hpp"

namespace rahooi::data {
namespace {

// ---------------------------------------------------------------------------
// Naive reference for the simulation substitutes: the direct per-entry
// formulas, one sin per wave and entry, against which the separable
// (phase-table + GEMM) generators are checked.
// ---------------------------------------------------------------------------

constexpr double kTwoPi = 2.0 * std::numbers::pi;

struct RefWavePack {
  static constexpr int kModes = 14;
  double amp[kModes];
  double freq[kModes][3];
  double omega[kModes];
  double phase[kModes];
  double var_coeff[kModes][64];

  RefWavePack(const CounterRng& rng, int axes, idx_t nvar, double decay) {
    idx_t c = 0;
    for (int m = 0; m < kModes; ++m) {
      amp[m] = std::pow(m + 1.0, -decay);
      for (int a = 0; a < 3; ++a) {
        freq[m][a] = a < axes
                         ? std::floor(rng.uniform(c++) * 5.0) + 1.0
                         : 0.0;
      }
      omega[m] = std::floor(rng.uniform(c++) * 3.0) + 1.0;
      phase[m] = rng.uniform(c++) * kTwoPi;
      for (idx_t v = 0; v < 64; ++v) {
        var_coeff[m][v] = v < nvar ? rng.normal(c + v) : 0.0;
      }
      c += 64;
    }
  }

  double eval(const double* s, double t, idx_t v) const {
    double acc = 0.0;
    for (int m = 0; m < kModes; ++m) {
      const double arg = kTwoPi * (freq[m][0] * s[0] + freq[m][1] * s[1] +
                                   freq[m][2] * s[2] + omega[m] * t) +
                         phase[m];
      acc += amp[m] * var_coeff[m][v] * std::sin(arg);
    }
    return acc;
  }
};

double unit(idx_t i, idx_t n) {
  return static_cast<double>(i) / static_cast<double>(n);
}

double miranda_ref(const std::vector<idx_t>& g, idx_t n,
                   const RefWavePack& waves) {
  const double x = unit(g[0], n), y = unit(g[1], n), z = unit(g[2], n);
  const double interface_z =
      0.5 + 0.1 * std::sin(kTwoPi * x) * std::cos(kTwoPi * y);
  const double front = std::tanh((z - interface_z) / 0.08);
  const double s[3] = {x, y, z};
  return 1.5 + front + 0.15 * waves.eval(s, 0.0, 0);
}

double hcci_ref(const std::vector<idx_t>& g, idx_t nx, idx_t ny, idx_t nt,
                const RefWavePack& waves) {
  const double x = unit(g[0], nx), y = unit(g[1], ny);
  const idx_t v = g[2];
  const double t = unit(g[3], nt);
  const double w_v = std::exp(-0.35 * static_cast<double>(v));
  const double front_pos = 0.3 + 0.4 * t + 0.05 * std::sin(kTwoPi * x);
  const double front = std::tanh((y - front_pos) / 0.06);
  const double s[3] = {x, y, 0.0};
  return w_v * (1.0 + 0.8 * front) + 0.2 * waves.eval(s, t, v);
}

double sp_ref(const std::vector<idx_t>& g, idx_t nx, idx_t ny, idx_t nz,
              idx_t nt, const RefWavePack& waves) {
  const double x = unit(g[0], nx), y = unit(g[1], ny), z = unit(g[2], nz);
  const idx_t v = g[3];
  const double t = unit(g[4], nt);
  const double w_v = std::exp(-0.3 * static_cast<double>(v));
  const double wrinkle =
      0.04 * std::sin(kTwoPi * y) * std::sin(kTwoPi * z) +
      0.02 * std::sin(kTwoPi * (2 * y + t));
  const double front = std::tanh((x - 0.5 - wrinkle) / 0.05);
  const double s[3] = {x, y, z};
  return w_v * (1.0 + 0.7 * front) + 0.15 * waves.eval(s, t, v);
}

using RefFn = std::function<double(const std::vector<idx_t>&)>;

/// Every entry of `x` against the reference: within 1e-12 in fp64, and in
/// fp32 within one float ulp of the reference's double value (the generator
/// accumulates in double and rounds once at the store).
template <typename T>
void expect_matches_reference(const tensor::Tensor<T>& x, const RefFn& ref) {
  std::vector<idx_t> g(x.ndims(), 0);
  for (idx_t lin = 0; lin < x.size(); ++lin) {
    const double want = ref(g);
    const double err = std::abs(static_cast<double>(x[lin]) - want);
    double budget = 1e-12;
    if constexpr (std::is_same_v<T, float>) {
      const auto wf = static_cast<float>(want);
      budget = std::nextafter(std::abs(wf), INFINITY) - std::abs(wf);
    }
    if (err > budget) {
      ADD_FAILURE() << "entry " << lin << ": got " << x[lin] << ", want "
                    << want << " (|diff| " << err << ")";
      return;
    }
    for (int j = 0; j < x.ndims(); ++j) {
      if (++g[j] < x.dim(j)) break;
      g[j] = 0;
    }
  }
}

/// Serial (P=1) generation of a distributed substitute.
template <typename T>
tensor::Tensor<T> on_one_rank(
    int d, const std::function<dist::DistTensor<T>(
               const dist::ProcessorGrid&)>& make) {
  tensor::Tensor<T> out;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, std::vector<int>(d, 1));
    out = make(grid).allgather_full();
  });
  return out;
}

template <typename T>
void check_all_generators_against_reference(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  {
    // 71^3 spans 2 row tiles and 3 column tiles of the wave GEMM.
    const idx_t n = 71;
    const RefWavePack waves(CounterRng(seed), 3, 1, 2.2);
    expect_matches_reference(
        miranda_like_serial<T>(n, seed),
        [&](const std::vector<idx_t>& g) { return miranda_ref(g, n, waves); });
  }
  {
    const idx_t nx = 37, ny = 29, nv = 5, nt = 23;
    const RefWavePack waves(CounterRng(seed), 2, nv, 1.8);
    expect_matches_reference(
        on_one_rank<T>(4,
                       [&](const dist::ProcessorGrid& grid) {
                         return hcci_like<T>(grid, nx, ny, nv, nt, seed);
                       }),
        [&](const std::vector<idx_t>& g) {
          return hcci_ref(g, nx, ny, nt, waves);
        });
  }
  {
    const idx_t nx = 13, ny = 11, nz = 7, nv = 5, nt = 9;
    const RefWavePack waves(CounterRng(seed), 3, nv, 1.9);
    expect_matches_reference(
        on_one_rank<T>(5,
                       [&](const dist::ProcessorGrid& grid) {
                         return sp_like<T>(grid, nx, ny, nz, nv, nt, seed);
                       }),
        [&](const std::vector<idx_t>& g) {
          return sp_ref(g, nx, ny, nz, nt, waves);
        });
  }
}

/// Gathers `make` on each grid and expects it bitwise equal to `want`.
template <typename T>
void expect_grid_invariant(
    const tensor::Tensor<T>& want, const std::vector<std::vector<int>>& grids,
    const std::function<dist::DistTensor<T>(const dist::ProcessorGrid&)>&
        make) {
  for (const auto& gdims : grids) {
    int p = 1;
    for (const int q : gdims) p *= q;
    comm::Runtime::run(p, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, gdims);
      const auto full = make(grid).allgather_full();
      ASSERT_EQ(full.dims(), want.dims());
      for (idx_t i = 0; i < full.size(); ++i) {
        ASSERT_EQ(full[i], want[i]) << "entry " << i << ", grid dim 0 = "
                                    << gdims[0];
      }
    });
  }
}

TEST(SyntheticTucker, SerialIsDeterministic) {
  auto a = synthetic_tucker_serial<double>({8, 7, 6}, {2, 2, 2}, 1e-3, 5);
  auto b = synthetic_tucker_serial<double>({8, 7, 6}, {2, 2, 2}, 1e-3, 5);
  for (idx_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  auto c = synthetic_tucker_serial<double>({8, 7, 6}, {2, 2, 2}, 1e-3, 6);
  double diff = 0;
  for (idx_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - c[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(SyntheticTucker, DistributedMatchesSerialBitExact) {
  const std::vector<idx_t> dims = {9, 8, 7};
  auto serial = synthetic_tucker_serial<double>(dims, {3, 3, 3}, 1e-4, 11);
  for (const std::vector<int>& gdims :
       {std::vector<int>{2, 2, 1}, {1, 1, 4}, {4, 1, 1}}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, gdims);
      auto x = synthetic_tucker<double>(grid, dims, {3, 3, 3}, 1e-4, 11);
      auto full = x.allgather_full();
      for (idx_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(full[i], serial[i]);
      }
    });
  }
}

TEST(SyntheticTucker, NoiseLevelControlsRelativeResidual) {
  // At noise level eta, the best rank-r approximation should leave a
  // relative error close to eta (within statistical slack).
  const double eta = 0.01;
  auto x = synthetic_tucker_serial<double>({16, 14, 12}, {3, 3, 3}, eta, 12);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = dist::DistTensor<double>::generate(
        grid, x.dims(),
        [&x](const std::vector<idx_t>& g) { return x.at(g); });
    auto res = core::sthosvd_fixed_rank(xd, {3, 3, 3});
    EXPECT_NEAR(res.relative_error(), eta, 0.5 * eta);
  });
}

TEST(SyntheticTucker, ZeroNoiseIsExactlyLowRank) {
  auto x = synthetic_tucker_serial<double>({10, 9, 8}, {2, 2, 2}, 0.0, 13);
  auto svd = la::svd_jacobi<double>(tensor::unfold(x, 0).cref());
  EXPECT_GT(svd.singular[1], 1e-6);
  EXPECT_LT(svd.singular[2], 1e-10 * svd.singular[0]);
}

TEST(SyntheticTucker, FourWaySingle) {
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1, 1});
    auto x = synthetic_tucker<float>(grid, {6, 6, 6, 6}, {2, 2, 2, 2},
                                     1e-4f, 14);
    EXPECT_EQ(x.global_dims(), (std::vector<idx_t>{6, 6, 6, 6}));
    EXPECT_GT(x.norm_squared(), 0.0);
  });
}

// Includes uneven splits (3 ways of 37) and a grid dimension larger than
// its mode, which leaves some ranks an empty block.
TEST(MirandaLike, GridInvariantGeneration) {
  expect_grid_invariant<float>(
      miranda_like_serial<float>(37),
      {{1, 2, 2}, {3, 1, 1}, {1, 1, 4}, {2, 3, 1}, {1, 1, 40}},
      [](const dist::ProcessorGrid& grid) {
        return miranda_like<float>(grid, 37);
      });
}

TEST(MirandaLike, IsHighlyCompressible) {
  // The defining trait of the Miranda regime: large n/r at loose
  // tolerances. At eps = 0.1 the Tucker ranks collapse far below n.
  comm::Runtime::run(2, [](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto x = miranda_like<float>(grid, 24);
    auto res = core::sthosvd(x, 0.1);
    for (int j = 0; j < 3; ++j) {
      EXPECT_LE(res.ranks()[j], 24 / 3) << "mode " << j;
    }
    EXPECT_LE(res.relative_error(), 0.1);
  });
}

TEST(MirandaLike, SpectraDecayMonotonically) {
  auto x = miranda_like_serial<double>(16);
  auto svd = la::svd_jacobi<double>(tensor::unfold(x, 2).cref());
  // Energy concentrates in few components.
  double total = 0, top4 = 0;
  for (std::size_t i = 0; i < svd.singular.size(); ++i) {
    const double e = svd.singular[i] * svd.singular[i];
    total += e;
    if (i < 4) top4 += e;
  }
  EXPECT_GT(top4 / total, 0.99);
}

TEST(HcciLike, ShapeAndCompressibility) {
  comm::Runtime::run(4, [](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1, 1});
    auto x = hcci_like<double>(grid, 16, 16, 6, 10);
    EXPECT_EQ(x.global_dims(), (std::vector<idx_t>{16, 16, 6, 10}));
    auto res = core::sthosvd(x, 0.05);
    EXPECT_LE(res.relative_error(), 0.05);
    EXPECT_GT(res.compression_ratio(), 2.0);
  });
}

TEST(HcciLike, VariableModeHasDecayingEnergy) {
  comm::Runtime::run(1, [](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1, 1});
    auto x = hcci_like<double>(grid, 12, 12, 8, 8);
    // Variable v's slab energy decreases with v (exp(-0.35 v) weighting).
    auto full = x.allgather_full();
    std::vector<double> energy(8, 0.0);
    std::vector<idx_t> g(4, 0);
    for (idx_t lin = 0; lin < full.size(); ++lin) {
      energy[g[2]] += full[lin] * full[lin];
      for (int j = 0; j < 4; ++j) {
        if (++g[j] < full.dim(j)) break;
        g[j] = 0;
      }
    }
    EXPECT_GT(energy[0], energy[4]);
    EXPECT_GT(energy[4], energy[7]);
  });
}

TEST(SpLike, FiveWayShapeAndDecomposition) {
  comm::Runtime::run(4, [](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1, 1, 1});
    auto x = sp_like<double>(grid, 10, 10, 10, 4, 6);
    EXPECT_EQ(x.ndims(), 5);
    auto res = core::sthosvd(x, 0.1);
    EXPECT_LE(res.relative_error(), 0.1);
    EXPECT_GT(res.compression_ratio(), 4.0);
  });
}

TEST(ScienceData, DifferentSeedsDiffer) {
  auto a = miranda_like_serial<double>(8, 1);
  auto b = miranda_like_serial<double>(8, 2);
  double diff = 0;
  for (idx_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(ScienceData, MatchesDirectFormulaDouble) {
  for (const std::uint64_t seed : {7001ull, 42ull}) {
    check_all_generators_against_reference<double>(seed);
  }
}

TEST(ScienceData, MatchesDirectFormulaFloatWithinOneUlp) {
  for (const std::uint64_t seed : {7003ull, 9ull}) {
    check_all_generators_against_reference<float>(seed);
  }
}

// Uneven splits (3 ways of 61, 4 ways of 131) and a grid dimension larger
// than its mode, which leaves some ranks an empty block. At P=1 the hcci
// block spans several row and column tiles of the wave GEMM.
TEST(ScienceData, HcciGridInvariantOnUnevenSplits) {
  const auto make = [](const dist::ProcessorGrid& grid) {
    return hcci_like<double>(grid, 61, 131, 3, 41, 5);
  };
  expect_grid_invariant<double>(
      on_one_rank<double>(4, make),
      {{4, 1, 1, 1}, {3, 1, 1, 1}, {1, 4, 1, 1}, {1, 1, 4, 1},
       {2, 1, 1, 2}, {3, 1, 1, 2}},
      make);
}

TEST(ScienceData, SpGridInvariantOnUnevenSplits) {
  const auto make = [](const dist::ProcessorGrid& grid) {
    return sp_like<float>(grid, 13, 11, 7, 3, 9, 6);
  };
  expect_grid_invariant<float>(
      on_one_rank<float>(5, make),
      {{3, 1, 1, 1, 1}, {1, 2, 1, 1, 2}, {1, 1, 1, 4, 1}, {2, 2, 1, 1, 1},
       {1, 1, 3, 1, 2}},
      make);
}

TEST(ScienceData, RejectsMoreThan64Variables) {
  comm::Runtime::run(1, [](comm::Comm& world) {
    dist::ProcessorGrid g4(world, {1, 1, 1, 1});
    dist::ProcessorGrid g5(world, {1, 1, 1, 1, 1});
    EXPECT_THROW(hcci_like<double>(g4, 4, 4, 65, 4), precondition_error);
    EXPECT_THROW(hcci_like<double>(g4, 4, 4, 0, 4), precondition_error);
    EXPECT_THROW(sp_like<float>(g5, 3, 3, 3, 65, 2), precondition_error);
    EXPECT_NO_THROW(hcci_like<double>(g4, 2, 2, 64, 2));
  });
}

TEST(MakeDataset, DispatchesByNameAndChecksOrder) {
  comm::Runtime::run(2, [](comm::Comm& world) {
    dist::ProcessorGrid g4(world, {2, 1, 1, 1});
    const auto direct = hcci_like<double>(g4, 6, 5, 3, 4, 3);
    const auto via = make_dataset<double>("hcci", g4, {6, 5, 3, 4}, {}, 0.0, 3);
    ASSERT_EQ(via.local().size(), direct.local().size());
    for (idx_t i = 0; i < via.local().size(); ++i) {
      EXPECT_EQ(via.local()[i], direct.local()[i]);
    }
    EXPECT_THROW(make_dataset<double>("miranda", g4, {6, 5, 3, 4}, {}, 0.0, 3),
                 precondition_error);
    EXPECT_THROW(make_dataset<double>("bogus", g4, {6, 5, 3, 4}, {}, 0.0, 3),
                 precondition_error);
  });
}

}  // namespace
}  // namespace rahooi::data
