#pragma once
// Shared helpers for the rahooi test suite: deterministic random data and
// deliberately-naive reference implementations to check the optimized
// kernels against.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "tensor/tensor.hpp"

namespace rahooi::testutil {

using la::idx_t;

/// A temp file path unique to this process. Every test is built into both
/// rahooi_tests and the sanitize-smoke binary, and a parallel ctest runs
/// both copies at once, so a fixed name would race.
inline std::string unique_tmp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

template <typename T>
la::Matrix<T> random_matrix(idx_t rows, idx_t cols, std::uint64_t seed) {
  CounterRng rng(seed);
  la::Matrix<T> m(rows, cols);
  for (idx_t j = 0; j < cols; ++j) {
    for (idx_t i = 0; i < rows; ++i) {
      m(i, j) = static_cast<T>(rng.normal(i + j * rows));
    }
  }
  return m;
}

template <typename T>
tensor::Tensor<T> random_tensor(const std::vector<idx_t>& dims,
                                std::uint64_t seed) {
  CounterRng rng(seed);
  tensor::Tensor<T> x(dims);
  for (idx_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(rng.normal(i));
  }
  return x;
}

/// Naive triple-loop reference GEMM: C = op(A) * op(B).
template <typename T>
la::Matrix<T> naive_matmul(la::Op op_a, la::Op op_b, const la::Matrix<T>& a,
                           const la::Matrix<T>& b) {
  const idx_t m = (op_a == la::Op::none) ? a.rows() : a.cols();
  const idx_t k = (op_a == la::Op::none) ? a.cols() : a.rows();
  const idx_t n = (op_b == la::Op::none) ? b.cols() : b.rows();
  la::Matrix<T> c(m, n);
  for (idx_t i = 0; i < m; ++i) {
    for (idx_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (idx_t l = 0; l < k; ++l) {
        const double av = (op_a == la::Op::none) ? a(i, l) : a(l, i);
        const double bv = (op_b == la::Op::none) ? b(l, j) : b(j, l);
        acc += av * bv;
      }
      c(i, j) = static_cast<T>(acc);
    }
  }
  return c;
}

/// Naive TTM by explicit index arithmetic: Y = X x_mode U^T
/// (u: dim(mode) x r) or Y = X x_mode U (u: m x dim(mode)) for op = none.
template <typename T>
tensor::Tensor<T> naive_ttm(const tensor::Tensor<T>& x, int mode,
                            const la::Matrix<T>& u, la::Op op) {
  const idx_t result = (op == la::Op::transpose) ? u.cols() : u.rows();
  std::vector<idx_t> out_dims = x.dims();
  out_dims[mode] = result;
  tensor::Tensor<T> y(out_dims);
  std::vector<idx_t> idx(x.ndims(), 0);
  for (idx_t lin = 0; lin < x.size(); ++lin) {
    std::vector<idx_t> oidx = idx;
    const idx_t in_mode = idx[mode];
    for (idx_t a = 0; a < result; ++a) {
      oidx[mode] = a;
      const double uv =
          (op == la::Op::transpose) ? u(in_mode, a) : u(a, in_mode);
      y.at(oidx) += static_cast<T>(uv * x[lin]);
    }
    for (int j = 0; j < x.ndims(); ++j) {
      if (++idx[j] < x.dim(j)) break;
      idx[j] = 0;
    }
  }
  return y;
}

inline double tolerance_for(bool is_float) { return is_float ? 2e-4 : 1e-10; }

template <typename T>
constexpr double type_tol() {
  return std::is_same_v<T, float> ? 2e-4 : 1e-10;
}

}  // namespace rahooi::testutil
