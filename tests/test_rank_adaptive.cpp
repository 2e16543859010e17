#include "core/rank_adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/runtime.hpp"
#include "core/sthosvd.hpp"
#include "data/science.hpp"
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

TEST(GrowFactor, PreservesLeadingColumnsExactly) {
  auto u = la::orthonormalize<double>(random_matrix<double>(12, 3, 900));
  auto g = grow_factor(u, 6, 901);
  EXPECT_EQ(g.cols(), 6);
  for (la::idx_t j = 0; j < 3; ++j) {
    for (la::idx_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(g(i, j), u(i, j), 1e-12);
    }
  }
  EXPECT_LT(la::orthogonality_error<double>(g), 1e-10);
}

TEST(GrowFactor, NoOpWhenRankUnchanged) {
  auto u = la::orthonormalize<double>(random_matrix<double>(8, 4, 902));
  auto g = grow_factor(u, 4, 903);
  EXPECT_LT(la::max_abs_diff<double>(g, u), 1e-15);
}

TEST(GrowFactor, RejectsShrinkOrOverflow) {
  auto u = la::orthonormalize<double>(random_matrix<double>(6, 3, 904));
  EXPECT_THROW(grow_factor(u, 2, 905), precondition_error);
  EXPECT_THROW(grow_factor(u, 7, 905), precondition_error);
}

TEST(RankAdaptive, MeetsToleranceFromPerfectRanks) {
  auto x = lowrank_plus_noise<double>({14, 12, 10}, {3, 3, 3}, 0.05, 910);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    auto res = rank_adaptive_hooi(xd, {3, 3, 3}, opt);
    EXPECT_TRUE(res.satisfied);
    EXPECT_LE(res.rel_error, 0.1 + 1e-10);
    // The reported error matches a dense reconstruction check.
    EXPECT_NEAR(tensor::relative_error(x, res.tucker), res.rel_error, 1e-6);
  });
}

TEST(RankAdaptive, OvershootTruncatesInFirstIteration) {
  auto x = lowrank_plus_noise<double>({14, 12, 10}, {2, 2, 2}, 0.03, 911);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    opt.max_iters = 3;
    auto res = rank_adaptive_hooi(xd, {5, 5, 5}, opt);  // overshoot
    ASSERT_FALSE(res.iterations.empty());
    EXPECT_TRUE(res.iterations[0].satisfied);
    // Core analysis shrinks the overestimate.
    for (int j = 0; j < 3; ++j) {
      EXPECT_LT(res.iterations[0].ranks_after[j], 5);
    }
  });
}

TEST(RankAdaptive, UndershootGrowsRanksByAlpha) {
  auto x = lowrank_plus_noise<double>({16, 14, 12}, {4, 4, 4}, 0.01, 912);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.02;
    opt.growth_factor = 2.0;
    opt.max_iters = 4;
    auto res = rank_adaptive_hooi(xd, {2, 2, 2}, opt);  // undershoot
    ASSERT_GE(res.iterations.size(), 2u);
    EXPECT_FALSE(res.iterations[0].satisfied);
    EXPECT_EQ(res.iterations[0].ranks_after,
              (std::vector<la::idx_t>{4, 4, 4}));  // 2 * alpha
    EXPECT_TRUE(res.satisfied);
  });
}

TEST(RankAdaptive, GrowthClampsAtModeDimension) {
  auto x = random_tensor<double>({4, 4, 4}, 913);  // full-rank noise
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.01;
    opt.growth_factor = 3.0;
    opt.max_iters = 3;
    auto res = rank_adaptive_hooi(xd, {2, 2, 2}, opt);
    for (const auto& it : res.iterations) {
      for (int j = 0; j < 3; ++j) {
        EXPECT_LE(it.ranks_after[j], 4);
      }
    }
    // Full ranks represent the tensor exactly, so it must satisfy.
    EXPECT_TRUE(res.satisfied);
  });
}

TEST(RankAdaptive, CompressionAtLeastMatchesSthosvdShape) {
  // High-compression regime: RA-HOSI-DT should find a decomposition no
  // larger than ~25% above STHOSVD's (the paper often finds smaller).
  auto x = lowrank_plus_noise<double>({16, 16, 16}, {3, 3, 3}, 0.05, 914);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 2});
    auto xd = distribute(grid, x);
    auto st = sthosvd(xd, 0.1);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    auto ra = rank_adaptive_hooi(xd, st.ranks(), opt);
    EXPECT_TRUE(ra.satisfied);
    EXPECT_LE(ra.compressed_size,
              static_cast<la::idx_t>(
                  1.25 * static_cast<double>(st.compressed_size())));
  });
}

TEST(RankAdaptive, IterationRecordsAreConsistent) {
  auto x = lowrank_plus_noise<double>({12, 10, 8}, {3, 3, 3}, 0.05, 915);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    opt.max_iters = 3;
    auto res = rank_adaptive_hooi(xd, {3, 3, 3}, opt);
    int expected_index = 1;
    for (const auto& it : res.iterations) {
      EXPECT_EQ(it.index, expected_index++);
      EXPECT_GT(it.seconds, 0.0);
      EXPECT_GE(it.rel_error, 0.0);
      EXPECT_EQ(it.ranks_after.size(), 3u);
      EXPECT_GT(it.compressed_size, 0);
      if (it.satisfied) {
        EXPECT_LE(it.rel_error_after, opt.tolerance + 1e-9);
        EXPECT_GT(it.core_analysis_seconds, 0.0);
      }
    }
  });
}

TEST(RankAdaptive, GridInvariantDecision) {
  auto x = lowrank_plus_noise<double>({10, 10, 10}, {2, 2, 2}, 0.04, 916);
  std::vector<la::idx_t> ref_ranks;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    ref_ranks = rank_adaptive_hooi(xd, {3, 3, 3}, opt).tucker.ranks();
  });
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 2});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    EXPECT_EQ(rank_adaptive_hooi(xd, {3, 3, 3}, opt).tucker.ranks(),
              ref_ranks);
  });
}

TEST(RankAdaptive, UnsatisfiedWithinCapReportsBestEffort) {
  auto x = random_tensor<double>({8, 8, 8}, 917);  // white noise: incompressible
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.01;
    opt.max_iters = 1;  // cannot possibly reach from rank 2
    opt.growth_factor = 1.5;
    auto res = rank_adaptive_hooi(xd, {2, 2, 2}, opt);
    EXPECT_FALSE(res.satisfied);
    EXPECT_FALSE(res.iterations.empty());
    EXPECT_GT(res.rel_error, 0.01);
    EXPECT_EQ(res.tucker.factors.size(), 3u);
  });
}

TEST(RankAdaptive, FourWayDoublePrecision) {
  auto x = lowrank_plus_noise<double>({8, 7, 6, 5}, {2, 2, 2, 2}, 0.05, 918);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.1;
    auto res = rank_adaptive_hooi(xd, {3, 3, 3, 3}, opt);
    EXPECT_TRUE(res.satisfied);
    EXPECT_NEAR(tensor::relative_error(x, res.tucker), res.rel_error, 1e-6);
  });
}

TEST(RankAdaptive, ModewiseGrowsOnlyTheDeficientMode) {
  // Anisotropic true ranks (2, 6, 2): starting at (2, 2, 2), the modewise
  // strategy should concentrate growth in mode 1 instead of inflating all
  // modes like the global alpha rule.
  auto x = lowrank_plus_noise<double>({16, 18, 16}, {2, 6, 2}, 0.005, 930);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.02;
    opt.max_iters = 6;
    opt.strategy = AdaptStrategy::modewise;
    auto res = rank_adaptive_hooi(xd, {2, 2, 2}, opt);
    EXPECT_TRUE(res.satisfied);
    const auto final_ranks = res.tucker.ranks();
    // Growth concentrates in the deficient mode (the tolerance can be met
    // slightly below the construction rank, so compare across modes).
    EXPECT_GE(final_ranks[1], 4);
    EXPECT_GT(final_ranks[1], final_ranks[0]);
    EXPECT_GT(final_ranks[1], final_ranks[2]);
    EXPECT_LE(final_ranks[0], 3);
    EXPECT_LE(final_ranks[2], 3);
  });
}

TEST(RankAdaptive, ModewiseNoLargerThanGlobalOnAnisotropicProblem) {
  auto x = lowrank_plus_noise<double>({14, 16, 14}, {2, 5, 2}, 0.01, 931);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions global;
    global.tolerance = 0.05;
    global.max_iters = 6;
    RankAdaptiveOptions modewise = global;
    modewise.strategy = AdaptStrategy::modewise;
    auto g = rank_adaptive_hooi(xd, {2, 2, 2}, global);
    auto m = rank_adaptive_hooi(xd, {2, 2, 2}, modewise);
    ASSERT_TRUE(g.satisfied);
    ASSERT_TRUE(m.satisfied);
    // Both truncate through the same core analysis, so sizes match or the
    // modewise path (which never overshot as far) is no worse.
    EXPECT_LE(m.compressed_size, g.compressed_size + 8);
  });
}

TEST(RankAdaptive, ModewiseContractsPaddedModes) {
  // Start with a heavy overestimate in mode 0 only; since the iterate is
  // unsatisfied at first (tight tolerance) the modewise rule should shed
  // the worthless mode-0 slices rather than grow everything.
  auto x = lowrank_plus_noise<double>({18, 14, 12}, {2, 4, 3}, 0.005, 932);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.02;
    opt.max_iters = 6;
    opt.strategy = AdaptStrategy::modewise;
    auto res = rank_adaptive_hooi(xd, {10, 2, 2}, opt);
    EXPECT_TRUE(res.satisfied);
    EXPECT_LE(res.tucker.ranks()[0], 4);
  });
}

TEST(RankAdaptive, ModewiseProgressGuarantee) {
  // Pure noise with a flat spectrum: the progress rule must still grow some
  // mode each iteration until full rank, then satisfy.
  auto x = random_tensor<double>({6, 6, 6}, 933);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.05;
    opt.max_iters = 20;
    opt.strategy = AdaptStrategy::modewise;
    auto res = rank_adaptive_hooi(xd, {1, 1, 1}, opt);
    EXPECT_TRUE(res.satisfied);  // full ranks always satisfy
  });
}

TEST(RankAdaptive, RejectsBadOptions) {
  auto x = random_tensor<double>({4, 4}, 919);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1});
    auto xd = distribute(grid, x);
    RankAdaptiveOptions opt;
    opt.tolerance = 0.0;
    EXPECT_THROW(rank_adaptive_hooi(xd, {2, 2}, opt), precondition_error);
    opt.tolerance = 0.1;
    opt.growth_factor = 1.0;
    EXPECT_THROW(rank_adaptive_hooi(xd, {2, 2}, opt), precondition_error);
  });
}

TEST(RankAdaptive, SolveReturnsPackBufferGaugeToPreSolveValue) {
  // dist_ttm's send buffers are per-call scratch: a P=4 RA-HOSI-DT solve
  // with reduce-scatters in two modes must hand every byte back. The packed
  // kernels' fixed per-thread panels are allocated by a warm-up product
  // first; they live with the thread by design and are not solve workspace.
  constexpr int p = 4;
  std::vector<metrics::Registry> regs;
  comm::RunOptions opts;
  opts.rank_metrics = &regs;
  std::vector<double> before(p), after(p), solve_peak(p);
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, {2, 2, 1, 1});
        auto x = data::hcci_like<double>(grid, 40, 40, 8, 40);
        const auto a = random_matrix<double>(8, 8, 71);
        (void)la::matmul(la::Op::none, la::Op::none, a.cref(), a.cref());
        const metrics::Gauge& pack =
            metrics::registry()->gauge(metrics::MemScope::pack_buffer);
        const double peak_before = pack.peak;
        before[world.rank()] = pack.live;
        RankAdaptiveOptions o;
        o.tolerance = 0.01;
        o.growth_factor = 1.5;
        o.max_iters = 3;
        (void)rank_adaptive_hooi(x, {12, 12, 6, 12}, o);
        after[world.rank()] = pack.live;
        solve_peak[world.rank()] = pack.peak - peak_before;
      },
      nullptr, nullptr, opts);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(after[r], before[r]) << "rank " << r;
    EXPECT_GT(solve_peak[r], 0.0) << "rank " << r << " charged no scratch";
  }
}

}  // namespace
}  // namespace rahooi::core
