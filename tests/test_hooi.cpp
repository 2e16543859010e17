#include "core/hooi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "comm/runtime.hpp"
#include "la/qr.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::core {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
dist::DistTensor<T> distribute(const dist::ProcessorGrid& grid,
                               const tensor::Tensor<T>& serial) {
  return dist::DistTensor<T>::generate(
      grid, serial.dims(),
      [&serial](const std::vector<la::idx_t>& g) { return serial.at(g); });
}

template <typename T>
tensor::Tensor<T> lowrank_plus_noise(const std::vector<la::idx_t>& dims,
                                     const std::vector<la::idx_t>& ranks,
                                     double noise, std::uint64_t seed) {
  tensor::Tensor<T> x = random_tensor<T>(ranks, seed);
  for (std::size_t j = 0; j < dims.size(); ++j) {
    auto u = la::orthonormalize<T>(
        random_matrix<T>(dims[j], ranks[j], seed + 100 + j));
    x = tensor::ttm(x, static_cast<int>(j), u.cref(), la::Op::none);
  }
  if (noise > 0.0) {
    CounterRng rng(seed + 999);
    const double scale = noise * x.norm() / std::sqrt(double(x.size()));
    for (la::idx_t i = 0; i < x.size(); ++i) {
      x[i] += static_cast<T>(scale * rng.normal(i));
    }
  }
  return x;
}

HooiOptions variant(SvdMethod svd, bool tree, int iters = 2) {
  HooiOptions o;
  o.svd_method = svd;
  o.use_dimension_tree = tree;
  o.max_iters = iters;
  return o;
}

TEST(RandomFactors, OrthonormalAndDeterministic) {
  auto a = random_factors<double>({10, 8, 6}, {3, 2, 4}, 7);
  auto b = random_factors<double>({10, 8, 6}, {3, 2, 4}, 7);
  ASSERT_EQ(a.size(), 3u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_LT(la::orthogonality_error<double>(a[j]), 1e-12);
    EXPECT_LT(la::max_abs_diff<double>(a[j], b[j]), 0.0 + 1e-15);
  }
  auto c = random_factors<double>({10, 8, 6}, {3, 2, 4}, 8);
  EXPECT_GT(la::max_abs_diff<double>(a[0], c[0]), 1e-3);
}

TEST(RandomFactors, RejectsBadRanks) {
  EXPECT_THROW(random_factors<double>({4}, {5}, 1), precondition_error);
  EXPECT_THROW(random_factors<double>({4}, {0}, 1), precondition_error);
  EXPECT_THROW(random_factors<double>({4, 4}, {2}, 1), precondition_error);
}

class HooiVariants
    : public ::testing::TestWithParam<std::pair<SvdMethod, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    AllFour, HooiVariants,
    ::testing::Values(std::make_pair(SvdMethod::gram_evd, false),
                      std::make_pair(SvdMethod::gram_evd, true),
                      std::make_pair(SvdMethod::subspace_iteration, false),
                      std::make_pair(SvdMethod::subspace_iteration, true)));

TEST_P(HooiVariants, RecoversLowRankTensor) {
  const auto [svd, tree] = GetParam();
  auto x = lowrank_plus_noise<double>({12, 10, 8}, {3, 3, 3}, 0.0, 60);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid, x);
    auto res = hooi(xd, {3, 3, 3}, variant(svd, tree, 2));
    EXPECT_LT(res.decomposition.relative_error(), 1e-6)
        << variant_name(variant(svd, tree));
  });
}

TEST_P(HooiVariants, ErrorIdentityMatchesDenseReconstruction) {
  const auto [svd, tree] = GetParam();
  auto x = lowrank_plus_noise<double>({9, 8, 7}, {2, 2, 2}, 0.05, 61);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    auto res = hooi(xd, {2, 2, 2}, variant(svd, tree, 2));
    auto tucker = res.decomposition.replicated();
    EXPECT_NEAR(tensor::relative_error(x, tucker),
                res.decomposition.relative_error(), 1e-8);
  });
}

TEST_P(HooiVariants, ErrorIsMonotoneOverSweeps) {
  const auto [svd, tree] = GetParam();
  auto x = lowrank_plus_noise<double>({10, 9, 8}, {3, 3, 3}, 0.2, 62);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto res = hooi(xd, {3, 3, 3}, variant(svd, tree, 4));
    ASSERT_EQ(res.error_history.size(), 4u);
    for (std::size_t i = 1; i < res.error_history.size(); ++i) {
      // HOOI (block coordinate descent) is monotone; subspace iteration is
      // inexact so allow a tiny tolerance.
      EXPECT_LE(res.error_history[i], res.error_history[i - 1] + 1e-8);
    }
  });
}

TEST_P(HooiVariants, GridInvariance) {
  const auto [svd, tree] = GetParam();
  auto x = lowrank_plus_noise<double>({8, 8, 8}, {2, 2, 2}, 0.1, 63);
  double reference = -1;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    reference = hooi(xd, {2, 2, 2}, variant(svd, tree, 2))
                    .decomposition.relative_error();
  });
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2});
    auto xd = distribute(grid, x);
    const double err = hooi(xd, {2, 2, 2}, variant(svd, tree, 2))
                           .decomposition.relative_error();
    EXPECT_NEAR(err, reference, 1e-8);
  });
}

TEST(Hooi, DimensionTreeMatchesDirectSweep) {
  // Same BCD update order => identical iterates up to roundoff.
  auto x = lowrank_plus_noise<double>({9, 8, 7}, {3, 2, 2}, 0.15, 64);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    auto direct = hooi(xd, {3, 2, 2}, variant(SvdMethod::gram_evd, false, 2));
    auto treed = hooi(xd, {3, 2, 2}, variant(SvdMethod::gram_evd, true, 2));
    ASSERT_EQ(direct.error_history.size(), treed.error_history.size());
    for (std::size_t i = 0; i < direct.error_history.size(); ++i) {
      EXPECT_NEAR(direct.error_history[i], treed.error_history[i], 1e-9);
    }
  });
}

TEST(Hooi, SubspaceIterationMatchesGramEvdError) {
  // §3.4: one subspace iteration per subiteration reaches the same error as
  // the exact Gram+EVD LLSV across the full HOOI iteration.
  auto x = lowrank_plus_noise<double>({12, 11, 10}, {3, 3, 3}, 0.1, 65);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    auto evd = hooi(xd, {3, 3, 3}, variant(SvdMethod::gram_evd, false, 2));
    auto si = hooi(xd, {3, 3, 3},
                   variant(SvdMethod::subspace_iteration, true, 2));
    EXPECT_NEAR(si.decomposition.relative_error(),
                evd.decomposition.relative_error(), 1e-3);
  });
}

TEST(Hooi, TreeVariantDoesFewerTtmFlops) {
  // §3.3: dimension trees reduce multi-TTM flops (by ~d/2 at leading
  // order). Compare measured TTM flop counters.
  auto x = random_tensor<double>({10, 10, 10, 10}, 66);
  double direct_flops = 0, tree_flops = 0;
  std::vector<Stats> per_rank;
  comm::Runtime::run(
      1,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {1, 1, 1, 1});
        auto xd = distribute(grid, x);
        (void)hooi(xd, {2, 2, 2, 2}, variant(SvdMethod::gram_evd, false, 1));
      },
      &per_rank);
  direct_flops = per_rank[0].flops[static_cast<int>(Phase::ttm)];
  comm::Runtime::run(
      1,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {1, 1, 1, 1});
        auto xd = distribute(grid, x);
        (void)hooi(xd, {2, 2, 2, 2}, variant(SvdMethod::gram_evd, true, 1));
      },
      &per_rank);
  tree_flops = per_rank[0].flops[static_cast<int>(Phase::ttm)];
  EXPECT_LT(tree_flops, 0.8 * direct_flops);
}

TEST(Hooi, ConvergenceTolStopsEarly) {
  auto x = lowrank_plus_noise<double>({10, 9, 8}, {2, 2, 2}, 0.0, 67);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    HooiOptions o = variant(SvdMethod::gram_evd, false, 10);
    o.convergence_tol = 1e-10;
    auto res = hooi(xd, {2, 2, 2}, o);
    EXPECT_LT(res.iterations, 10);  // exact recovery converges immediately
    EXPECT_LT(res.decomposition.relative_error(), 1e-7);
  });
}

TEST(Hooi, FourWayWithTree) {
  auto x = lowrank_plus_noise<double>({7, 6, 5, 4}, {2, 2, 2, 2}, 0.05, 68);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2, 1});
    auto xd = distribute(grid, x);
    auto res = hooi(xd, {2, 2, 2, 2},
                    variant(SvdMethod::subspace_iteration, true, 2));
    auto tucker = res.decomposition.replicated();
    EXPECT_NEAR(tensor::relative_error(x, tucker),
                res.decomposition.relative_error(), 1e-8);
    EXPECT_LT(res.decomposition.relative_error(), 0.08);
  });
}

TEST(Hooi, FiveWayTreeLeafOrderProducesCore) {
  auto x = lowrank_plus_noise<double>({5, 4, 6, 3, 4}, {2, 2, 2, 2, 2}, 0.0,
                                      69);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 2, 1, 1});
    auto xd = distribute(grid, x);
    auto res = hooi(xd, {2, 2, 2, 2, 2},
                    variant(SvdMethod::gram_evd, true, 2));
    EXPECT_EQ(res.decomposition.core.global_dims(),
              (std::vector<la::idx_t>{2, 2, 2, 2, 2}));
    EXPECT_LT(res.decomposition.relative_error(), 1e-6);
  });
}

TEST(Hooi, WarmStartBeatsColdStartPerSweep) {
  // The paper's §3.4 rationale for a single subspace iteration: the warm
  // start from the previous HOOI iterate is accurate. A cold start — fresh
  // random factors before every sweep, so each one-step subspace iteration
  // starts from noise — should be no better per sweep (and on a noisy
  // tensor with a modest gap, measurably worse).
  auto x = lowrank_plus_noise<double>({14, 12, 10}, {3, 3, 3}, 0.5, 76);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    const HooiOptions o = variant(SvdMethod::subspace_iteration, true, 3);
    const std::vector<la::idx_t> ranks{3, 3, 3};
    const double x_sq = xd.norm_squared();
    const auto rel_error = [&](const dist::DistTensor<double>& core) {
      return std::sqrt(std::max(0.0, x_sq - core.norm_squared()) / x_sq);
    };
    auto warm = random_factors<double>(xd.global_dims(), ranks, o.seed);
    double warm_err = 1.0;
    double cold_err = 1.0;
    for (int sweep = 1; sweep <= o.max_iters; ++sweep) {
      warm_err = rel_error(hooi_sweep(xd, warm, ranks, o, sweep));
      auto cold = random_factors<double>(xd.global_dims(), ranks,
                                         o.seed + static_cast<unsigned>(sweep));
      cold_err = rel_error(hooi_sweep(xd, cold, ranks, o, sweep));
    }
    // After three sweeps the warm-start variant must be at least as good.
    EXPECT_LE(warm_err, cold_err + 1e-6);
  });
}

TEST(Hooi, MatchesSthosvdAccuracyInTwoIterations) {
  // The paper's premise: randomly-initialized HOOI reaches STHOSVD-level
  // error within ~2 iterations.
  auto x = lowrank_plus_noise<double>({12, 12, 12}, {3, 3, 3}, 0.3, 70);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 2});
    auto xd = distribute(grid, x);
    auto st = sthosvd_fixed_rank(xd, {3, 3, 3});
    auto ho = hooi(xd, {3, 3, 3},
                   variant(SvdMethod::subspace_iteration, true, 2));
    EXPECT_NEAR(ho.decomposition.relative_error(), st.relative_error(),
                0.01);
  });
}

TEST(Hooi, RejectsBadArguments) {
  auto x = random_tensor<double>({4, 4}, 71);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1});
    auto xd = distribute(grid, x);
    HooiOptions bad;
    bad.max_iters = 0;
    EXPECT_THROW(hooi(xd, {2, 2}, bad), precondition_error);
    EXPECT_THROW(hooi(xd, {2}, HooiOptions{}), precondition_error);
  });
}

}  // namespace
}  // namespace rahooi::core
