#include "la/eig.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "test_util.hpp"

namespace rahooi::la {
namespace {

using testutil::random_matrix;

template <typename T>
Matrix<T> random_symmetric(idx_t n, std::uint64_t seed) {
  auto a = random_matrix<T>(n, n, seed);
  Matrix<T> s(n, n);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < n; ++i) {
      s(i, j) = static_cast<T>(0.5 * (a(i, j) + a(j, i)));
    }
  }
  return s;
}

template <typename T>
class EigTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(EigTyped, Scalars);

TYPED_TEST(EigTyped, ReconstructsSymmetricMatrix) {
  using T = TypeParam;
  auto a = random_symmetric<T>(12, 200);
  auto evd = sym_evd<T>(a.cref());
  // A = V diag(d) V^T
  Matrix<T> vd(12, 12);
  for (idx_t j = 0; j < 12; ++j) {
    for (idx_t i = 0; i < 12; ++i) {
      vd(i, j) = static_cast<T>(evd.vectors(i, j) * evd.eigenvalues[j]);
    }
  }
  auto rec = matmul<T>(Op::none, Op::transpose, vd, evd.vectors);
  EXPECT_LT(max_abs_diff<T>(rec, a), 100 * testutil::type_tol<T>());
}

TYPED_TEST(EigTyped, EigenvectorsAreOrthonormal) {
  using T = TypeParam;
  auto a = random_symmetric<T>(20, 201);
  auto evd = sym_evd<T>(a.cref());
  EXPECT_LT(orthogonality_error<T>(evd.vectors),
            100 * testutil::type_tol<T>());
}

TYPED_TEST(EigTyped, EigenvaluesDescending) {
  using T = TypeParam;
  auto a = random_symmetric<T>(15, 202);
  auto evd = sym_evd<T>(a.cref());
  for (std::size_t i = 0; i + 1 < evd.eigenvalues.size(); ++i) {
    EXPECT_GE(evd.eigenvalues[i], evd.eigenvalues[i + 1]);
  }
}

TYPED_TEST(EigTyped, DiagonalMatrixEigenvaluesExact) {
  using T = TypeParam;
  Matrix<T> a(4, 4);
  a(0, 0) = 3;
  a(1, 1) = -1;
  a(2, 2) = 7;
  a(3, 3) = 0;
  auto evd = sym_evd<T>(a.cref());
  EXPECT_NEAR(evd.eigenvalues[0], 7.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[1], 3.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[2], 0.0, 1e-6);
  EXPECT_NEAR(evd.eigenvalues[3], -1.0, 1e-6);
}

TYPED_TEST(EigTyped, GramMatrixEigenvaluesAreSquaredSingularValues) {
  using T = TypeParam;
  // Known construction: A = U diag(s) V^T with orthonormal U, V.
  auto u = orthonormalize<T>(random_matrix<T>(10, 4, 203));
  auto v = orthonormalize<T>(random_matrix<T>(8, 4, 204));
  const double sv[4] = {5.0, 2.0, 1.0, 0.25};
  Matrix<T> us(10, 4);
  for (idx_t j = 0; j < 4; ++j) {
    for (idx_t i = 0; i < 10; ++i) {
      us(i, j) = static_cast<T>(u(i, j) * sv[j]);
    }
  }
  auto a = matmul<T>(Op::none, Op::transpose, us, v);  // 10 x 8
  Matrix<T> gram(10, 10);
  syrk<T>(T{1}, a.cref(), T{0}, gram.ref());
  auto evd = sym_evd<T>(gram.cref());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(evd.eigenvalues[i], sv[i] * sv[i],
                2e3 * testutil::type_tol<T>());
  }
  for (std::size_t i = 4; i < 10; ++i) {
    EXPECT_NEAR(evd.eigenvalues[i], 0.0, 2e3 * testutil::type_tol<T>());
  }
}

// Differential oracle: sym_evd against the retained EISPACK reference
// (sym_evd_ref) over one table of sizes and spectra. Eigenvalues must agree
// to 1e-12 ||A|| (both reduce the same input in double); eigenvectors are
// checked by residual and orthogonality, and against the reference through
// spectral projectors, not columns: for every cluster of eigenvalues closer
// than 1e-6 ||A||, the reference basis must lie in the span of sym_evd's,
// within first-order perturbation theory's eps ||A|| / gap.
enum class Spectrum { random, graded, repeated, rank_deficient_gram, diagonal };

Matrix<double> oracle_input(Spectrum kind, idx_t n, std::uint64_t seed) {
  auto with_eigenvalues = [&](auto lambda) {
    const auto q = orthonormalize<double>(random_matrix<double>(n, n, seed));
    Matrix<double> ql(n, n);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t i = 0; i < n; ++i) ql(i, j) = q(i, j) * lambda(j);
    }
    auto a = matmul<double>(Op::none, Op::transpose, ql, q);
    for (idx_t j = 0; j < n; ++j) {  // exactly symmetric
      for (idx_t i = 0; i < j; ++i) a(i, j) = a(j, i);
    }
    return a;
  };
  switch (kind) {
    case Spectrum::random:
      return random_symmetric<double>(n, seed);
    case Spectrum::graded:
      return with_eigenvalues([n](idx_t j) {
        return n == 1 ? 1.0 : std::pow(10.0, -14.0 * j / (n - 1));
      });
    case Spectrum::repeated:
      return with_eigenvalues([n](idx_t j) {
        return 3 * j < n ? 3.0 : (3 * j < 2 * n ? 1.0 : -2.0);
      });
    case Spectrum::rank_deficient_gram: {
      const auto b = random_matrix<double>(n, std::max<idx_t>(1, n / 4), seed);
      Matrix<double> a(n, n);
      syrk<double>(1.0, b.cref(), 0.0, a.ref());
      return a;
    }
    case Spectrum::diagonal: {
      Matrix<double> a(n, n);
      for (idx_t i = 0; i < n; ++i) {
        a(i, i) = static_cast<double>((i * 37) % n) - n / 3.0;
      }
      return a;
    }
  }
  return {};
}

TYPED_TEST(EigTyped, MatchesEispackReferenceAcrossSpectra) {
  using T = TypeParam;
  const double out_eps = sizeof(T) == 4 ? 1e-5 : 1e-12;
  const Spectrum kinds[] = {Spectrum::random, Spectrum::graded,
                            Spectrum::repeated, Spectrum::rank_deficient_gram,
                            Spectrum::diagonal};
  std::uint64_t seed = 300;
  for (const idx_t n : {1, 2, 3, 31, 64, 65, 257, 512}) {
    for (const Spectrum kind : kinds) {
      const auto a64 = oracle_input(kind, n, seed++);
      Matrix<T> a(n, n);
      for (idx_t i = 0; i < a.size(); ++i) {
        a.data()[i] = static_cast<T>(a64.data()[i]);
      }
      const auto evd = sym_evd<T>(a.cref());
      const auto ref = sym_evd_ref<T>(a.cref());
      const std::string where = "n=" + std::to_string(n) + " spectrum " +
                                std::to_string(static_cast<int>(kind));
      double norm = 0.0;
      for (double l : ref.eigenvalues) norm = std::max(norm, std::abs(l));
      norm = std::max(norm, 1e-300);
      for (idx_t i = 0; i < n; ++i) {
        ASSERT_LE(std::abs(evd.eigenvalues[i] - ref.eigenvalues[i]),
                  1e-12 * norm)
            << where << " eigenvalue " << i;
      }

      // Residual A V - V diag(lambda), evaluated in double.
      Matrix<double> ad(n, n), v(n, n), vr(n, n);
      for (idx_t i = 0; i < a.size(); ++i) {
        ad.data()[i] = a.data()[i];
        v.data()[i] = evd.vectors.data()[i];
        vr.data()[i] = ref.vectors.data()[i];
      }
      const auto av = matmul<double>(Op::none, Op::none, ad, v);
      double residual = 0.0;
      for (idx_t j = 0; j < n; ++j) {
        for (idx_t i = 0; i < n; ++i) {
          residual = std::max(
              residual, std::abs(av(i, j) - v(i, j) * evd.eigenvalues[j]));
        }
      }
      EXPECT_LE(residual, out_eps * norm) << where;
      EXPECT_LE(orthogonality_error<double>(v), out_eps) << where;

      // Spectral projectors, one eigenvalue cluster at a time.
      const double delta = 1e-6 * norm;
      for (idx_t c0 = 0; c0 < n;) {
        idx_t c1 = c0 + 1;
        while (c1 < n &&
               ref.eigenvalues[c1 - 1] - ref.eigenvalues[c1] < delta) {
          ++c1;
        }
        double gap = INFINITY;
        if (c0 > 0) gap = ref.eigenvalues[c0 - 1] - ref.eigenvalues[c0];
        if (c1 < n) {
          gap = std::min(gap, ref.eigenvalues[c1 - 1] - ref.eigenvalues[c1]);
        }
        const double tol = 100.0 * n * 2.3e-16 * norm / gap + out_eps;
        const auto vc = v.cref().block(0, c0, n, c1 - c0);
        const auto rc = vr.cref().block(0, c0, n, c1 - c0);
        // (I - V_c V_c^T) R_c: the part of the reference cluster basis
        // outside sym_evd's.
        const auto coef = matmul<double>(Op::transpose, Op::none, vc, rc);
        auto outside = matmul<double>(Op::none, Op::none, vc, coef.cref());
        double dist = 0.0;
        for (idx_t j = 0; j < c1 - c0; ++j) {
          for (idx_t i = 0; i < n; ++i) {
            dist = std::max(dist, std::abs(rc(i, j) - outside(i, j)));
          }
        }
        EXPECT_LE(dist, tol) << where << " cluster [" << c0 << ", " << c1
                             << ")";
        c0 = c1;
      }
    }
  }
}

TEST(Eig, OneByOne) {
  Matrix<double> a(1, 1);
  a(0, 0) = -2.5;
  auto evd = sym_evd<double>(a.cref());
  EXPECT_DOUBLE_EQ(evd.eigenvalues[0], -2.5);
  EXPECT_DOUBLE_EQ(evd.vectors(0, 0), 1.0);
}

TEST(Eig, TwoByTwoKnownEigenvalues) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix<double> a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto evd = sym_evd<double>(a.cref());
  EXPECT_NEAR(evd.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(evd.eigenvalues[1], 1.0, 1e-12);
}

TEST(Eig, RejectsNonSquare) {
  Matrix<double> a(3, 4);
  EXPECT_THROW(sym_evd<double>(a.cref()), precondition_error);
}

TEST(Eig, LargeMatrixStillAccurate) {
  auto a = random_symmetric<double>(100, 205);
  auto evd = sym_evd<double>(a.cref());
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-9);
  // Trace is preserved.
  double trace = 0, sum = 0;
  for (idx_t i = 0; i < 100; ++i) {
    trace += a(i, i);
    sum += evd.eigenvalues[i];
  }
  EXPECT_NEAR(trace, sum, 1e-8);
}

TEST(Eig, RepeatedEigenvaluesHandled) {
  // Identity: all eigenvalues 1, any orthonormal basis acceptable.
  auto a = Matrix<double>::identity(8);
  auto evd = sym_evd<double>(a.cref());
  for (double ev : evd.eigenvalues) EXPECT_NEAR(ev, 1.0, 1e-12);
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-12);
}

TEST(Eig, ZeroMatrix) {
  Matrix<double> a(5, 5);
  auto evd = sym_evd<double>(a.cref());
  for (double ev : evd.eigenvalues) EXPECT_EQ(ev, 0.0);
  EXPECT_LT(orthogonality_error<double>(evd.vectors), 1e-12);
}

}  // namespace
}  // namespace rahooi::la
