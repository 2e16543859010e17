#include "tensor/ttm.hpp"

#include <algorithm>
#include <utility>

namespace rahooi::tensor {

namespace detail {
bool g_force_ttm_slab_fallback = false;
}  // namespace detail

namespace {

/// Dispatch rule of the unpacked skinny kernel (la::gemm_skinny_batch),
/// which applies to truncating TTMs only. It needs a result of at most
/// kSkinnyMaxCols and a contraction inside one depth block, and runs either
/// a mode-0 unfolding (left == 1) or tall slabs it can stream row-wise.
bool skinny_ttm(idx_t left, idx_t n, idx_t result) {
  return result <= la::kSkinnyMaxCols && n <= la::kGemmDepthBlock &&
         (left == 1 || left >= 64);
}

/// y = X x_mode op(U) into the tensor-layout buffer y (no initialization
/// needed: the packed kernels zero it through beta = 0, the skinny one only
/// stores).
template <typename T>
void ttm_into(const Tensor<T>& x, int mode, la::ConstMatrixRef<T> u,
              la::Op op, T* y) {
  const idx_t n = x.dim(mode);
  const idx_t result = (op == la::Op::transpose) ? u.cols : u.rows;
  const idx_t left = x.left_size(mode);
  const idx_t right = x.right_size(mode);

  // Slab transpose ops of the general mode: out = in * U (truncation) or
  // out = in * U^T (expansion).
  const la::Op op_b =
      (op == la::Op::transpose) ? la::Op::none : la::Op::transpose;
  if (mode > 0 && detail::g_force_ttm_slab_fallback) {
    for (idx_t s = 0; s < right; ++s) {
      la::gemm(la::Op::none, op_b, T{1}, x.slab(mode, s), u, T{0},
               la::MatrixRef<T>{y + s * left * result, left, result, left});
    }
    return;
  }

  if (op == la::Op::transpose && skinny_ttm(left, n, result)) {
    la::gemm_skinny_batch(right, x.data(), left, n, u, {result}, y);
    return;
  }

  if (mode == 0) {
    // Mode-1 unfolding is column-major in place: one large GEMM.
    // Y_(1) = op(U)^T_{applied from left}: with op=transpose,
    // Y_(1) (r x right) = U^T X_(1); with op=none, Y_(1) = U X_(1).
    la::ConstMatrixRef<T> xm(x.data(), n, right, n);
    la::MatrixRef<T> ym{y, result, right, result};
    const la::Op opa =
        (op == la::Op::transpose) ? la::Op::transpose : la::Op::none;
    la::gemm(opa, la::Op::none, T{1}, u, xm, T{0}, ym);
    return;
  }

  // General mode: each input slab (left x n) maps to an output slab
  // (left x result). Slabs are contiguous at stride left*n (input) and
  // left*result (output), so the whole unfolding is one strided-batch GEMM:
  // U is packed once and cache blocking spans slab boundaries.
  la::gemm_strided_batch(op_b, right, T{1}, x.data(), left, n, left * n, u,
                         T{0}, y, result, left * result);
}

}  // namespace

template <typename T>
Tensor<T> ttm(const Tensor<T>& x, int mode, la::ConstMatrixRef<T> u,
              la::Op op) {
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "ttm: bad mode");
  const idx_t contract = (op == la::Op::transpose) ? u.rows : u.cols;
  const idx_t result = (op == la::Op::transpose) ? u.cols : u.rows;
  RAHOOI_REQUIRE(contract == x.dim(mode),
                 "ttm: factor does not match mode dimension");

  std::vector<idx_t> out_dims = x.dims();
  out_dims[mode] = result;
  Tensor<T> y(out_dims);
  ttm_into(x, mode, u, op, y.data());
  return y;
}

template <typename T>
void ttm_parts(const Tensor<T>& x, int mode, la::ConstMatrixRef<T> u,
               const std::vector<idx_t>& part_rows, T* out) {
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "ttm_parts: bad mode");
  const idx_t n = x.dim(mode);
  RAHOOI_REQUIRE(u.rows == n,
                 "ttm_parts: factor does not match mode dimension");
  idx_t covered = 0;
  for (const idx_t len : part_rows) covered += len;
  RAHOOI_REQUIRE(covered == u.cols,
                 "ttm_parts: parts must cover the result extent");
  const idx_t left = x.left_size(mode);
  const idx_t right = x.right_size(mode);

  if (skinny_ttm(left, n, u.cols)) {
    la::gemm_skinny_batch(right, x.data(), left, n, u, part_rows, out);
    return;
  }
  // With one slab the parts are consecutive column blocks of it, so the
  // tensor layout already is the parts layout.
  if (part_rows.size() <= 1 || right == 1) {
    ttm_into(x, mode, u, la::Op::transpose, out);
    return;
  }
  // Packed product in tensor layout, then one contiguous run per slab and
  // part: part q of slab s is that slab's columns [off_q, off_q + len_q).
  const Tensor<T> y = ttm(x, mode, u, la::Op::transpose);
  idx_t off = 0;
  for (const idx_t len : part_rows) {
    T* part = out + off * left * right;
    for (idx_t s = 0; s < right; ++s) {
      const T* src = y.data() + (s * u.cols + off) * left;
      std::copy(src, src + len * left, part + s * len * left);
    }
    off += len;
  }
}

template <typename T>
Tensor<T> multi_ttm(const Tensor<T>& x,
                    const std::vector<la::ConstMatrixRef<T>>& factors,
                    const std::vector<int>& modes, la::Op op) {
  RAHOOI_REQUIRE(static_cast<int>(factors.size()) == x.ndims(),
                 "multi_ttm: one factor slot per mode required");
  RAHOOI_REQUIRE(!modes.empty(),
                 "multi_ttm: empty mode list is the identity; the copy it "
                 "implies is never intended — use the rvalue overload");
  Tensor<T> y = ttm(x, modes[0], factors[modes[0]], op);
  for (std::size_t i = 1; i < modes.size(); ++i) {
    y = ttm(y, modes[i], factors[modes[i]], op);
  }
  return y;
}

template <typename T>
Tensor<T> multi_ttm(Tensor<T>&& x,
                    const std::vector<la::ConstMatrixRef<T>>& factors,
                    const std::vector<int>& modes, la::Op op) {
  RAHOOI_REQUIRE(static_cast<int>(factors.size()) == x.ndims(),
                 "multi_ttm: one factor slot per mode required");
  if (modes.empty()) return std::move(x);
  return multi_ttm(static_cast<const Tensor<T>&>(x), factors, modes, op);
}

template <typename T>
Tensor<T> multi_ttm_skip(const Tensor<T>& x,
                         const std::vector<la::ConstMatrixRef<T>>& factors,
                         int skip_mode, la::Op op) {
  std::vector<int> modes;
  for (int j = 0; j < x.ndims(); ++j) {
    if (j != skip_mode) modes.push_back(j);
  }
  // Degenerate d == 1 case: skipping the only mode leaves the identity, so
  // the copy is the requested result.
  if (modes.empty()) return x;
  return multi_ttm(x, factors, modes, op);
}

template <typename T>
la::Matrix<T> mode_gram(const Tensor<T>& x, int mode) {
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "mode_gram: bad mode");
  const idx_t n = x.dim(mode);
  const idx_t left = x.left_size(mode);
  const idx_t right = x.right_size(mode);
  la::Matrix<T> g(n, n);

  if (mode == 0) {
    // Contiguous unfolding: single SYRK.
    la::ConstMatrixRef<T> xm(x.data(), n, right, n);
    la::syrk(T{1}, xm, T{0}, g.ref());
    return g;
  }

  // General mode: G = sum_s slab_s^T slab_s over the (left x n) slabs. The
  // batched SYRK fuses the slab transposes into its pack step and keeps the
  // symmetric half-flop count of mode 0; no scratch transpose exists.
  la::syrk_batch_t(right, T{1}, x.data(), left, n, left * n, T{0}, g.ref());
  return g;
}

template <typename T>
la::Matrix<T> contract_all_but_one(const Tensor<T>& y, const Tensor<T>& g,
                                   int mode) {
  RAHOOI_REQUIRE(y.ndims() == g.ndims(), "contraction: order mismatch");
  for (int j = 0; j < y.ndims(); ++j) {
    RAHOOI_REQUIRE(j == mode || y.dim(j) == g.dim(j),
                   "contraction: non-contracted dimensions must match");
  }
  const idx_t n = y.dim(mode);
  const idx_t r = g.dim(mode);
  const idx_t left = y.left_size(mode);
  const idx_t right = y.right_size(mode);
  la::Matrix<T> z(n, r);
  if (mode == 0) {
    // Mode-1 unfoldings are column-major in place: one plain NT product.
    la::ConstMatrixRef<T> yu(y.data(), n, right, n);
    la::ConstMatrixRef<T> gu(g.data(), r, right, r);
    la::gemm(la::Op::none, la::Op::transpose, T{1}, yu, gu, T{0}, z.ref());
    return z;
  }
  // Z = sum over slabs of Yslab^T * Gslab; slabs align because all
  // non-contracted dimensions agree. One batched transposed product; the
  // slab transposes happen during packing.
  la::gemm_batch_tn(right, T{1}, y.data(), left, n, left * n, g.data(), r,
                    left * r, T{0}, z.ref());
  return z;
}

#define RAHOOI_INSTANTIATE_TTM(T)                                             \
  template Tensor<T> ttm<T>(const Tensor<T>&, int, la::ConstMatrixRef<T>,     \
                            la::Op);                                          \
  template void ttm_parts<T>(const Tensor<T>&, int, la::ConstMatrixRef<T>,   \
                             const std::vector<idx_t>&, T*);                \
  template Tensor<T> multi_ttm<T>(const Tensor<T>&,                           \
                                  const std::vector<la::ConstMatrixRef<T>>&,  \
                                  const std::vector<int>&, la::Op);           \
  template Tensor<T> multi_ttm<T>(Tensor<T>&&,                                \
                                  const std::vector<la::ConstMatrixRef<T>>&,  \
                                  const std::vector<int>&, la::Op);           \
  template Tensor<T> multi_ttm_skip<T>(                                       \
      const Tensor<T>&, const std::vector<la::ConstMatrixRef<T>>&, int,       \
      la::Op);                                                                \
  template la::Matrix<T> mode_gram<T>(const Tensor<T>&, int);                 \
  template la::Matrix<T> contract_all_but_one<T>(const Tensor<T>&,            \
                                                 const Tensor<T>&, int);

RAHOOI_INSTANTIATE_TTM(float)
RAHOOI_INSTANTIATE_TTM(double)

#undef RAHOOI_INSTANTIATE_TTM

}  // namespace rahooi::tensor
