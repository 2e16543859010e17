#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/stats.hpp"
#include "test_util.hpp"

namespace rahooi::la {
namespace {

using testutil::naive_matmul;
using testutil::random_matrix;

template <typename T>
class BlasTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BlasTyped, Scalars);

TYPED_TEST(BlasTyped, GemmMatchesNaiveNN) {
  using T = TypeParam;
  auto a = random_matrix<T>(7, 5, 1);
  auto b = random_matrix<T>(5, 9, 2);
  auto c = matmul<T>(Op::none, Op::none, a, b);
  auto ref = naive_matmul<T>(Op::none, Op::none, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmMatchesNaiveTN) {
  using T = TypeParam;
  auto a = random_matrix<T>(6, 4, 3);
  auto b = random_matrix<T>(6, 8, 4);
  auto c = matmul<T>(Op::transpose, Op::none, a, b);
  auto ref = naive_matmul<T>(Op::transpose, Op::none, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmMatchesNaiveNT) {
  using T = TypeParam;
  auto a = random_matrix<T>(6, 4, 5);
  auto b = random_matrix<T>(8, 4, 6);
  auto c = matmul<T>(Op::none, Op::transpose, a, b);
  auto ref = naive_matmul<T>(Op::none, Op::transpose, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmMatchesNaiveTT) {
  using T = TypeParam;
  auto a = random_matrix<T>(5, 7, 7);
  auto b = random_matrix<T>(9, 5, 8);
  auto c = matmul<T>(Op::transpose, Op::transpose, a, b);
  auto ref = naive_matmul<T>(Op::transpose, Op::transpose, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmAlphaBetaAccumulate) {
  using T = TypeParam;
  auto a = random_matrix<T>(4, 3, 9);
  auto b = random_matrix<T>(3, 4, 10);
  auto c = random_matrix<T>(4, 4, 11);
  Matrix<T> expect(4, 4);
  auto ab = naive_matmul<T>(Op::none, Op::none, a, b);
  for (idx_t j = 0; j < 4; ++j) {
    for (idx_t i = 0; i < 4; ++i) {
      expect(i, j) = static_cast<T>(2.0 * ab(i, j) + 0.5 * c(i, j));
    }
  }
  gemm<T>(Op::none, Op::none, T{2}, a, b, T{0.5}, c.ref());
  EXPECT_LT(max_abs_diff<T>(c, expect), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmBetaZeroOverwritesGarbage) {
  using T = TypeParam;
  auto a = random_matrix<T>(3, 2, 12);
  auto b = random_matrix<T>(2, 3, 13);
  Matrix<T> c(3, 3);
  for (idx_t i = 0; i < c.size(); ++i) {
    c.data()[i] = std::numeric_limits<T>::quiet_NaN();
  }
  gemm<T>(Op::none, Op::none, T{1}, a, b, T{0}, c.ref());
  auto ref = naive_matmul<T>(Op::none, Op::none, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, GemmLargeBlockedMatchesNaive) {
  using T = TypeParam;
  // Exceed the kBlockK/kBlockJ tiles so blocking boundaries are exercised.
  auto a = random_matrix<T>(65, 300, 14);
  auto b = random_matrix<T>(300, 70, 15);
  auto c = matmul<T>(Op::none, Op::none, a, b);
  auto ref = naive_matmul<T>(Op::none, Op::none, a, b);
  EXPECT_LT(max_abs_diff<T>(c, ref), 50 * testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, SyrkMatchesGemmNT) {
  using T = TypeParam;
  auto a = random_matrix<T>(6, 20, 16);
  Matrix<T> c(6, 6);
  syrk<T>(T{1}, a, T{0}, c.ref());
  auto ref = naive_matmul<T>(Op::none, Op::transpose, a, a);
  EXPECT_LT(max_abs_diff<T>(c, ref), 20 * testutil::type_tol<T>());
}

TYPED_TEST(BlasTyped, SyrkProducesSymmetricMatrix) {
  using T = TypeParam;
  auto a = random_matrix<T>(9, 30, 17);
  Matrix<T> c(9, 9);
  syrk<T>(T{1}, a, T{0}, c.ref());
  for (idx_t j = 0; j < 9; ++j) {
    for (idx_t i = 0; i < 9; ++i) EXPECT_EQ(c(i, j), c(j, i));
  }
}

TYPED_TEST(BlasTyped, SyrkAccumulates) {
  using T = TypeParam;
  auto a = random_matrix<T>(5, 8, 18);
  auto b = random_matrix<T>(5, 12, 19);
  Matrix<T> c(5, 5);
  syrk<T>(T{1}, a, T{0}, c.ref());
  syrk<T>(T{1}, b, T{1}, c.ref());
  auto ref = naive_matmul<T>(Op::none, Op::transpose, a, a);
  auto ref2 = naive_matmul<T>(Op::none, Op::transpose, b, b);
  for (idx_t j = 0; j < 5; ++j) {
    for (idx_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(c(i, j), ref(i, j) + ref2(i, j),
                  30 * testutil::type_tol<T>());
    }
  }
}

TYPED_TEST(BlasTyped, GemvBothOps) {
  using T = TypeParam;
  auto a = random_matrix<T>(5, 3, 20);
  std::vector<T> x = {T(1), T(-2), T(0.5)};
  std::vector<T> y(5, T{0});
  gemv<T>(Op::none, T{1}, a, x.data(), T{0}, y.data());
  for (idx_t i = 0; i < 5; ++i) {
    double acc = 0;
    for (idx_t j = 0; j < 3; ++j) acc += static_cast<double>(a(i, j)) * x[j];
    EXPECT_NEAR(y[i], acc, testutil::type_tol<T>());
  }
  std::vector<T> xt = {T(1), T(2), T(3), T(4), T(5)};
  std::vector<T> yt(3, T{0});
  gemv<T>(Op::transpose, T{1}, a, xt.data(), T{0}, yt.data());
  for (idx_t j = 0; j < 3; ++j) {
    double acc = 0;
    for (idx_t i = 0; i < 5; ++i) acc += static_cast<double>(a(i, j)) * xt[i];
    EXPECT_NEAR(yt[j], acc, 10 * testutil::type_tol<T>());
  }
}

TEST(Blas, GemmShapeMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(
      gemm<double>(Op::none, Op::none, 1.0, a, b, 0.0, c.ref()),
      precondition_error);
}

TEST(Blas, GemmWrongOutputShapeThrows) {
  Matrix<double> a(3, 4), b(4, 2), c(2, 2);
  EXPECT_THROW(
      gemm<double>(Op::none, Op::none, 1.0, a, b, 0.0, c.ref()),
      precondition_error);
}

TEST(Blas, DotAxpyScal) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot<double>(3, x.data(), y.data()), 32.0);
  axpy<double>(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  scal<double>(3, -1.0, y.data());
  EXPECT_DOUBLE_EQ(y[1], -9.0);
}

TEST(Blas, SumSquaresAccumulatesInDouble) {
  std::vector<float> x(1000, 1e-4f);
  EXPECT_NEAR(sum_squares<float>(1000, x.data()), 1000 * 1e-8, 1e-12);
}

TEST(Blas, FrobeniusNorm) {
  Matrix<double> m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(frobenius_norm<double>(m.cref()), 5.0);
}

TEST(Blas, GemmRecordsFlops) {
  Stats s;
  ScopedStats scoped(s);
  Matrix<double> a(10, 20), b(20, 30), c(10, 30);
  gemm<double>(Op::none, Op::none, 1.0, a, b, 0.0, c.ref());
  EXPECT_DOUBLE_EQ(s.total_flops(), 2.0 * 10 * 30 * 20);
}

TEST(Blas, SyrkRecordsHalfFlops) {
  Stats s;
  ScopedStats scoped(s);
  Matrix<double> a(10, 50);
  Matrix<double> c(10, 10);
  syrk<double>(1.0, a, 0.0, c.ref());
  EXPECT_DOUBLE_EQ(s.total_flops(), 10.0 * 11 * 50);
}

TEST(Blas, EmptyGemmIsFine) {
  Matrix<double> a(0, 0), b(0, 0), c(0, 0);
  gemm<double>(Op::none, Op::none, 1.0, a, b, 0.0, c.ref());
  Matrix<double> a2(3, 0), b2(0, 2), c2(3, 2);
  c2(1, 1) = 5.0;
  gemm<double>(Op::none, Op::none, 1.0, a2, b2, 0.0, c2.ref());
  EXPECT_EQ(c2(1, 1), 0.0);  // beta = 0 clears even with empty product
}

}  // namespace
}  // namespace rahooi::la
