// Seeded randomized cross-checks ("fuzz" property tests): random tensor
// shapes, ranks, and processor grids, with every distributed kernel checked
// against its serial reference. Deterministic (counter-based RNG drives all
// choices), so failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "comm/runtime.hpp"
#include "core/hooi.hpp"
#include "core/sthosvd.hpp"
#include "dist/dist_ops.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi {
namespace {

using la::idx_t;

struct FuzzCase {
  std::vector<idx_t> dims;
  std::vector<int> grid;
  int p = 1;
};

// Random order-d shape with dims in [3, 9] and a random grid whose total
// rank count is <= 8 (threads on one core).
FuzzCase make_case(std::uint64_t seed) {
  CounterRng rng(seed);
  FuzzCase c;
  const int d = 3 + static_cast<int>(rng.uniform(0) * 2.999);  // 3..5
  c.dims.resize(d);
  c.grid.assign(d, 1);
  for (int j = 0; j < d; ++j) {
    c.dims[j] = 3 + static_cast<idx_t>(rng.uniform(10 + j) * 6.999);
  }
  int budget = 8;
  for (int j = 0; j < d && budget > 1; ++j) {
    const int f = 1 + static_cast<int>(rng.uniform(100 + j) * 1.999);
    if (budget % f == 0 && c.dims[j] >= f) {
      c.grid[j] = f;
      budget /= f;
    }
  }
  c.p = 1;
  for (const int g : c.grid) c.p *= g;
  return c;
}

template <typename T>
tensor::Tensor<T> serial_of(const FuzzCase& c, std::uint64_t seed) {
  return testutil::random_tensor<T>(c.dims, seed);
}

template <typename T>
dist::DistTensor<T> dist_of(const dist::ProcessorGrid& grid,
                            const tensor::Tensor<T>& serial) {
  return dist::DistTensor<T>::generate(
      grid, serial.dims(),
      [&serial](const std::vector<idx_t>& g) { return serial.at(g); });
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Every assertion names the seed that reproduces the failing case:
  // rerun with RAHOOI_FUZZ_SEED=<seed> to fuzz only that case.
  void SetUp() override {
    trace_ = std::make_unique<::testing::ScopedTrace>(
        __FILE__, __LINE__,
        "RAHOOI_FUZZ_SEED=" + std::to_string(GetParam()) +
            " reproduces this case");
  }
  void TearDown() override { trace_.reset(); }

 private:
  std::unique_ptr<::testing::ScopedTrace> trace_;
};

// Default seed sweep, overridable with RAHOOI_FUZZ_SEED=<n> to reproduce a
// reported failure in isolation.
std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("RAHOOI_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {11u, 22u, 33u, 44u, 55u, 66u};
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::ValuesIn(fuzz_seeds()));

TEST_P(FuzzSweep, DistTtmMatchesSerialOnRandomShapeAndGrid) {
  const FuzzCase c = make_case(GetParam());
  const auto serial = serial_of<double>(c, GetParam() + 1);
  comm::Runtime::run(c.p, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, c.grid);
    auto x = dist_of(grid, serial);
    CounterRng rng(GetParam() + 2);
    for (int mode = 0; mode < x.ndims(); ++mode) {
      const idx_t r =
          1 + static_cast<idx_t>(rng.uniform(mode) *
                                 static_cast<double>(c.dims[mode] - 1));
      auto u = testutil::random_matrix<double>(c.dims[mode], r,
                                               GetParam() + 3 + mode);
      auto got = dist_ttm(x, mode, u.cref()).allgather_full();
      auto expect = tensor::ttm(serial, mode, u.cref(), la::Op::transpose);
      ASSERT_EQ(got.dims(), expect.dims());
      for (idx_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expect[i], 1e-10) << "seed " << GetParam()
                                              << " mode " << mode;
      }
    }
  });
}

TEST_P(FuzzSweep, DistGramAndTsqrMatchSerial) {
  const FuzzCase c = make_case(GetParam());
  const auto serial = serial_of<double>(c, GetParam() + 7);
  comm::Runtime::run(c.p, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, c.grid);
    auto x = dist_of(grid, serial);
    for (int mode = 0; mode < x.ndims(); ++mode) {
      auto expect = tensor::mode_gram(serial, mode);
      auto gram = dist_mode_gram(x, mode);
      ASSERT_LT(la::max_abs_diff<double>(gram, expect), 1e-9);
      auto r = dist_mode_tsqr_r(x, mode);
      auto rtr = la::matmul<double>(la::Op::transpose, la::Op::none, r, r);
      ASSERT_LT(la::max_abs_diff<double>(rtr, expect), 1e-9);
    }
  });
}

TEST_P(FuzzSweep, SthosvdErrorIdentityHolds) {
  const FuzzCase c = make_case(GetParam());
  const auto serial = serial_of<double>(c, GetParam() + 13);
  comm::Runtime::run(c.p, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, c.grid);
    auto x = dist_of(grid, serial);
    auto res = core::sthosvd(x, 0.3);
    EXPECT_LE(res.relative_error(), 0.3);
    if (world.rank() == 0) {
      auto tucker = res.replicated();
      // 1e-6 slack: for near-exact decompositions the identity
      // ||X||^2 - ||G||^2 cancels catastrophically, flooring around
      // sqrt(machine epsilon).
      EXPECT_NEAR(tensor::relative_error(serial, tucker),
                  res.relative_error(), 1e-6);
    } else {
      (void)res.replicated();  // collective: every rank participates
    }
  });
}

TEST_P(FuzzSweep, HooiSweepKeepsFactorsOrthonormal) {
  const FuzzCase c = make_case(GetParam());
  const auto serial = serial_of<double>(c, GetParam() + 17);
  std::vector<idx_t> ranks(c.dims.size());
  for (std::size_t j = 0; j < ranks.size(); ++j) {
    ranks[j] = std::max<idx_t>(1, c.dims[j] / 2);
  }
  comm::Runtime::run(c.p, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, c.grid);
    auto x = dist_of(grid, serial);
    for (const auto svd : {core::SvdMethod::gram_evd,
                           core::SvdMethod::subspace_iteration}) {
      core::HooiOptions o;
      o.svd_method = svd;
      o.use_dimension_tree = (GetParam() % 2) == 0;
      auto factors = core::random_factors<double>(c.dims, ranks, 3);
      auto core_t = core::hooi_sweep(x, factors, ranks, o);
      for (std::size_t j = 0; j < factors.size(); ++j) {
        EXPECT_LT(la::orthogonality_error<double>(factors[j]), 1e-9);
        EXPECT_EQ(factors[j].cols(), ranks[j]);
      }
      // Core norm never exceeds the tensor norm (orthonormal projections).
      EXPECT_LE(core_t.norm_squared(), x.norm_squared() * (1 + 1e-9));
    }
  });
}

TEST_P(FuzzSweep, AllgatherFullIsConsistentAcrossRanks) {
  const FuzzCase c = make_case(GetParam());
  const auto serial = serial_of<float>(c, GetParam() + 23);
  comm::Runtime::run(c.p, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, c.grid);
    auto x = dist_of(grid, serial);
    auto full = x.allgather_full();
    ASSERT_EQ(full.dims(), serial.dims());
    for (idx_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(full[i], serial[i]);
    }
  });
}

}  // namespace
}  // namespace rahooi
