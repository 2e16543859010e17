#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace rahooi {
namespace {

TEST(CounterRng, IsDeterministic) {
  CounterRng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.bits(i), b.bits(i));
    EXPECT_EQ(a.uniform(i), b.uniform(i));
    EXPECT_EQ(a.normal(i), b.normal(i));
  }
}

TEST(CounterRng, SeedsProduceDistinctStreams) {
  CounterRng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.bits(i) != b.bits(i)) ++differing;
  }
  EXPECT_EQ(differing, 64);
}

TEST(CounterRng, UniformInUnitInterval) {
  CounterRng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, UniformRangeRespected) {
  CounterRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(i, -3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(CounterRng, UniformMeanAndVariance) {
  CounterRng rng(123);
  const int n = 100000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform(i);
    sum += u;
    sumsq += u * u;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(CounterRng, NormalMomentsMatchStandardGaussian) {
  CounterRng rng(321);
  const int n = 100000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal(i);
    sum += z;
    sumsq += z * z;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(CounterRng, NormalCountersDoNotAlias) {
  // normal(i) uses uniforms 2i and 2i+1; consecutive normals must differ.
  CounterRng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(rng.normal(i), rng.normal(i + 1));
  }
}

TEST(CounterRng, StreamsAreIndependent) {
  CounterRng base(99);
  CounterRng s1 = base.stream(1);
  CounterRng s2 = base.stream(2);
  EXPECT_NE(s1.seed(), s2.seed());
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.bits(i) != s2.bits(i)) ++differing;
  }
  EXPECT_EQ(differing, 64);
}

TEST(CounterRng, StreamDerivationIsDeterministic) {
  CounterRng a(99), b(99);
  EXPECT_EQ(a.stream(7).seed(), b.stream(7).seed());
}

TEST(CounterRng, Normal2MatchesStreamedNormal) {
  // normal2(i, j) is defined as stream(j).normal(i) — the two spellings
  // must agree bitwise.
  CounterRng rng(31);
  for (std::uint64_t j = 0; j < 4; ++j) {
    const CounterRng sj = rng.stream(j);
    for (std::uint64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(rng.normal2(i, j), sj.normal(i));
    }
  }
}

TEST(CounterRng, NormalIsBoundedByBoxMullerClamp) {
  // |normal| <= sqrt(-2 ln 2^-53) < 8.58 — the analytic bound of the
  // Box-Muller clamp.
  CounterRng rng(32);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    EXPECT_LT(std::abs(rng.normal(i)), 8.58);
  }
}

TEST(CounterRng, BitsAreWellMixed) {
  // Adjacent counters should produce values with ~32 differing bits.
  CounterRng rng(11);
  double total = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    total += std::popcount(rng.bits(i) ^ rng.bits(i + 1));
  }
  EXPECT_NEAR(total / n, 32.0, 2.0);
}

TEST(CounterRng, NoShortCycleInLowBits) {
  CounterRng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) seen.insert(rng.bits(i));
  EXPECT_EQ(seen.size(), 4096u);
}

}  // namespace
}  // namespace rahooi
