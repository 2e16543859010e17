#include "core/core_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "prof/trace.hpp"
#include "test_util.hpp"

namespace rahooi::core {
namespace {

using testutil::random_tensor;

// Brute-force reference: evaluate every leading subtensor by direct
// summation.
CoreAnalysis brute_force(const tensor::Tensor<double>& core,
                         const std::vector<idx_t>& full_dims,
                         double target_sq) {
  const int d = core.ndims();
  CoreAnalysis best;
  best.ranks = core.dims();
  std::vector<idx_t> r(d, 1);
  auto kept = [&](const std::vector<idx_t>& rr) {
    double sum = 0;
    std::vector<idx_t> idx(d, 0);
    for (idx_t lin = 0; lin < core.size(); ++lin) {
      bool inside = true;
      for (int j = 0; j < d; ++j) inside = inside && idx[j] < rr[j];
      if (inside) sum += core[lin] * core[lin];
      for (int j = 0; j < d; ++j) {
        if (++idx[j] < core.dim(j)) break;
        idx[j] = 0;
      }
    }
    return sum;
  };
  auto size_of = [&](const std::vector<idx_t>& rr) {
    idx_t sz = 1;
    for (int j = 0; j < d; ++j) sz *= rr[j];
    for (int j = 0; j < d; ++j) sz += full_dims[j] * rr[j];
    return sz;
  };
  best.compressed_size = size_of(best.ranks);
  best.kept_norm_sq = kept(best.ranks);
  // Odometer over all rank tuples.
  for (;;) {
    const double k = kept(r);
    if (k >= target_sq) {
      const idx_t sz = size_of(r);
      if (!best.feasible || sz < best.compressed_size) {
        best.feasible = true;
        best.compressed_size = sz;
        best.ranks = r;
        best.kept_norm_sq = k;
      }
    }
    int j = 0;
    for (; j < d; ++j) {
      if (++r[j] <= core.dim(j)) break;
      r[j] = 1;
    }
    if (j == d) break;
  }
  return best;
}

TEST(SquaredPrefixSums, MatchesManualSums) {
  auto core = random_tensor<double>({3, 4, 2}, 800);
  auto prefix = squared_prefix_sums(core);
  ASSERT_EQ(prefix.dims(), core.dims());
  for (idx_t k = 0; k < 2; ++k) {
    for (idx_t j = 0; j < 4; ++j) {
      for (idx_t i = 0; i < 3; ++i) {
        double expect = 0;
        for (idx_t kk = 0; kk <= k; ++kk) {
          for (idx_t jj = 0; jj <= j; ++jj) {
            for (idx_t ii = 0; ii <= i; ++ii) {
              const double v = core.at({ii, jj, kk});
              expect += v * v;
            }
          }
        }
        EXPECT_NEAR(prefix.at({i, j, k}), expect, 1e-10);
      }
    }
  }
}

TEST(SquaredPrefixSums, LastEntryIsTotalNormSquared) {
  auto core = random_tensor<double>({4, 3, 3, 2}, 801);
  auto prefix = squared_prefix_sums(core);
  EXPECT_NEAR(prefix[prefix.size() - 1], core.sum_squares(), 1e-10);
}

TEST(AnalyzeCore, MatchesBruteForceOnRandomCores) {
  for (std::uint64_t seed : {810u, 811u, 812u, 813u}) {
    auto core = random_tensor<double>({4, 3, 5}, seed);
    const std::vector<idx_t> full = {20, 15, 25};
    const double total = core.sum_squares();
    for (double keep_frac : {0.5, 0.9, 0.99}) {
      auto fast = analyze_core(core, full, keep_frac * total);
      auto ref = brute_force(core, full, keep_frac * total);
      EXPECT_EQ(fast.feasible, ref.feasible);
      EXPECT_EQ(fast.compressed_size, ref.compressed_size)
          << "seed=" << seed << " frac=" << keep_frac;
      EXPECT_NEAR(fast.kept_norm_sq, ref.kept_norm_sq,
                  1e-9 * std::max(1.0, total));
    }
  }
}

TEST(AnalyzeCore, ConcentratedCoreTruncatesAggressively) {
  // All mass in the (0,0,0) entry: rank (1,1,1) suffices.
  tensor::Tensor<double> core({4, 4, 4});
  core[0] = 10.0;
  core.at({3, 3, 3}) = 1e-8;
  auto res = analyze_core(core, {50, 50, 50}, 99.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.ranks, (std::vector<idx_t>{1, 1, 1}));
  EXPECT_EQ(res.compressed_size, 1 + 3 * 50);
}

TEST(AnalyzeCore, InfeasibleTargetReturnsFullRanks) {
  auto core = random_tensor<double>({3, 3}, 820);
  auto res = analyze_core(core, {9, 9}, 2.0 * core.sum_squares());
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(res.ranks, core.dims());
}

TEST(AnalyzeCore, ZeroTargetPicksMinimalRanks) {
  auto core = random_tensor<double>({4, 4}, 821);
  auto res = analyze_core(core, {8, 8}, 0.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.ranks, (std::vector<idx_t>{1, 1}));
}

TEST(AnalyzeCore, AsymmetricModeDimensionsShiftRanks) {
  // When one mode's factor storage is much more expensive, the optimizer
  // prefers spending rank in the cheap mode: construct a core where either
  // (2,1) or (1,2) meets the target, with n = (1000, 10).
  tensor::Tensor<double> core({2, 2});
  core.at({0, 0}) = 3.0;
  core.at({1, 0}) = 1.0;  // row rank 2 covers {9 + 1} = 10
  core.at({0, 1}) = 1.0;  // col rank 2 covers {9 + 1} = 10
  // target 10 requires ranks (2,1) or (1,2); sizes: (2,1): 2 + 2000 + 10;
  // (1,2): 2 + 1000 + 20 -> (1,2) is cheaper.
  auto res = analyze_core(core, {1000, 10}, 10.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.ranks, (std::vector<idx_t>{1, 2}));
}

TEST(AnalyzeCore, RecordsCoreAnalysisFlops) {
  Stats s;
  {
    ScopedStats scoped(s);
    prof::TraceSpan p("core_analysis", Phase::core_analysis);
    auto core = random_tensor<double>({5, 5, 5}, 822);
    (void)analyze_core(core, {10, 10, 10}, 0.5 * core.sum_squares());
  }
  EXPECT_GT(s.flops[static_cast<int>(Phase::core_analysis)], 0.0);
}

TEST(AnalyzeCore, RejectsBadFullDims) {
  auto core = random_tensor<double>({3, 3}, 823);
  EXPECT_THROW(analyze_core(core, {2, 9}, 1.0), precondition_error);
  EXPECT_THROW(analyze_core(core, {9}, 1.0), precondition_error);
}

TEST(AnalyzeCore, FourWayCore) {
  auto core = random_tensor<double>({3, 3, 3, 3}, 824);
  const std::vector<idx_t> full = {12, 12, 12, 12};
  auto fast = analyze_core(core, full, 0.8 * core.sum_squares());
  auto ref = brute_force(core, full, 0.8 * core.sum_squares());
  EXPECT_EQ(fast.compressed_size, ref.compressed_size);
  EXPECT_TRUE(fast.feasible);
}

}  // namespace
}  // namespace rahooi::core
