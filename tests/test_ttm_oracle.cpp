// Differential oracle for the truncating TTM dispatch. tensor::ttm picks the
// unpacked skinny kernel or the packed kernels by shape; direct la::gemm and
// la::gemm_strided_batch calls on the same operands always take the packed
// path. The two must agree bitwise on every shape, and both must match the
// naive gemm_ref within the usual tolerances. ttm_parts must be ttm's
// result, bit for bit, split into its parts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "la/blas.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::tensor {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

template <typename T>
class TtmOracleTyped : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TtmOracleTyped, Scalars);

// Result widths around the vector lengths and the 32-column dispatch limit,
// contraction lengths around the 256-deep cache block, and slab heights from
// the mode-0 unfolding (1) through the 64-row dispatch limit.
constexpr idx_t kResults[] = {1, 7, 8, 12, 16, 17, 27, 32, 33};
constexpr idx_t kContractions[] = {1, 80, 256, 257};
constexpr idx_t kLefts[] = {1, 15, 16, 64, 300};
constexpr idx_t kRights[] = {1, 3};

struct Shape {
  idx_t left, n, right, r;
};

std::string describe(const Shape& s) {
  return "left " + std::to_string(s.left) + " n " + std::to_string(s.n) +
         " right " + std::to_string(s.right) + " r " + std::to_string(s.r);
}

/// A tensor whose TTM mode has the given left and right sizes: mode 0 of
/// (n x right) when left == 1, else mode 1 of (left x n x right).
template <typename T>
Tensor<T> tensor_for(const Shape& s, int* mode, std::uint64_t seed) {
  if (s.left == 1) {
    *mode = 0;
    return random_tensor<T>({s.n, s.right}, seed);
  }
  *mode = 1;
  return random_tensor<T>({s.left, s.n, s.right}, seed);
}

/// Y = X x_mode U^T through the packed kernels, called directly.
template <typename T>
std::vector<T> packed_ttm(const Tensor<T>& x, const la::Matrix<T>& u,
                          const Shape& s) {
  std::vector<T> y(static_cast<std::size_t>(s.left * s.r * s.right));
  if (s.left == 1) {
    la::gemm(la::Op::transpose, la::Op::none, T{1}, u.cref(),
             la::ConstMatrixRef<T>(x.data(), s.n, s.right, std::max<idx_t>(
                                                               s.n, 1)),
             T{0}, la::MatrixRef<T>{y.data(), s.r, s.right,
                                    std::max<idx_t>(s.r, 1)});
  } else {
    la::gemm_strided_batch(la::Op::none, s.right, T{1}, x.data(), s.left,
                           s.n, s.left * s.n, u.cref(), T{0}, y.data(), s.r,
                           s.left * s.r);
  }
  return y;
}

/// Y = X x_mode U^T slab by slab through the naive reference.
template <typename T>
std::vector<T> reference_ttm(const Tensor<T>& x, const la::Matrix<T>& u,
                             const Shape& s) {
  std::vector<T> y(static_cast<std::size_t>(s.left * s.r * s.right));
  const idx_t ldx = std::max<idx_t>(s.left, 1);
  for (idx_t k = 0; k < s.right; ++k) {
    la::gemm_ref(la::Op::none, la::Op::none, T{1},
                 la::ConstMatrixRef<T>(x.data() + k * s.left * s.n, s.left,
                                       s.n, ldx),
                 u.cref(), T{0},
                 la::MatrixRef<T>{y.data() + k * s.left * s.r, s.left, s.r,
                                  ldx});
  }
  return y;
}

template <typename T>
void check_shape(const Shape& s, std::uint64_t seed) {
  int mode = 0;
  const Tensor<T> x = tensor_for<T>(s, &mode, seed);
  const la::Matrix<T> u = random_matrix<T>(s.n, s.r, seed + 1);
  const Tensor<T> got = ttm(x, mode, u.cref(), la::Op::transpose);
  ASSERT_EQ(got.dim(mode), s.r) << describe(s);
  ASSERT_EQ(got.size(), s.left * s.r * s.right) << describe(s);

  const std::vector<T> packed = packed_ttm(x, u, s);
  EXPECT_EQ(std::memcmp(got.data(), packed.data(), packed.size() * sizeof(T)),
            0)
      << "not bitwise equal to the packed path: " << describe(s);

  const std::vector<T> ref = reference_ttm(x, u, s);
  double scale = 1.0, err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(ref[i])));
    err = std::max(err, std::abs(static_cast<double>(got[static_cast<idx_t>(
                                     i)]) -
                                 static_cast<double>(ref[i])));
  }
  EXPECT_LT(err / scale, 10 * testutil::type_tol<T>()) << describe(s);
}

TYPED_TEST(TtmOracleTyped, TtmBitwiseEqualsPackedGemmAcrossShapeTable) {
  using T = TypeParam;
  std::uint64_t seed = 9000;
  for (const idx_t r : kResults) {
    for (const idx_t n : kContractions) {
      for (const idx_t left : kLefts) {
        for (const idx_t right : kRights) {
          check_shape<T>({left, n, right, r}, seed += 2);
        }
      }
    }
  }
}

TYPED_TEST(TtmOracleTyped, TtmBitwiseEqualsPackedGemmOnEmptyExtents) {
  using T = TypeParam;
  const Shape empty[] = {
      {1, 80, 0, 12},  {300, 80, 0, 12}, {0, 80, 3, 12}, {1, 0, 3, 12},
      {300, 0, 3, 12}, {1, 80, 3, 0},    {300, 80, 3, 0}, {64, 0, 1, 27},
  };
  std::uint64_t seed = 9900;
  for (const Shape& s : empty) check_shape<T>(s, seed += 2);
}

TYPED_TEST(TtmOracleTyped, TtmPartsIsTtmSplitIntoParts) {
  using T = TypeParam;
  // Inside the skinny rule (12, 27) and outside it (r = 40, or left = 5 in
  // the middle mode), in the first, a middle and the last mode.
  auto x = random_tensor<T>({66, 5, 7, 4}, 9950);
  for (int mode = 0; mode < 4; ++mode) {
    for (const idx_t r : {idx_t{12}, idx_t{27}, idx_t{40}}) {
      const auto u = random_matrix<T>(x.dim(mode), r, 9960 + r + mode);
      const Tensor<T> y = ttm(x, mode, u.cref(), la::Op::transpose);
      const std::vector<idx_t> parts = {r / 3, 0, r - r / 3 - r / 3, r / 3};
      std::vector<T> out(static_cast<std::size_t>(y.size()));
      ttm_parts(x, mode, u.cref(), parts, out.data());

      const idx_t left = y.left_size(mode), right = y.right_size(mode);
      std::vector<T> want;
      idx_t off = 0;
      for (const idx_t len : parts) {
        for (idx_t s = 0; s < right; ++s) {
          const T* src = y.data() + (s * r + off) * left;
          want.insert(want.end(), src, src + len * left);
        }
        off += len;
      }
      ASSERT_EQ(want.size(), out.size());
      EXPECT_EQ(std::memcmp(out.data(), want.data(), out.size() * sizeof(T)),
                0)
          << "mode " << mode << " r " << r;
    }
  }
}

TEST(TtmOracle, TtmPartsRejectsPartsThatMissTheResult) {
  auto x = random_tensor<double>({4, 5}, 9990);
  auto u = random_matrix<double>(4, 6, 9991);
  std::vector<double> out(30);
  EXPECT_THROW(ttm_parts(x, 0, u.cref(), {2, 3}, out.data()),
               precondition_error);
}

}  // namespace
}  // namespace rahooi::tensor
