#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "la/blas.hpp"

namespace rahooi::la {

namespace {

/// Reflectors per tridiagonalization panel and per compact-WY block of Q.
constexpr idx_t kPanel = 32;

// Householder reflector (LAPACK DLARFG): with alpha the leading entry and
// x the trailing m - 1 entries, finds tau and v = [1; x'] such that
// (I - tau v v^T) [alpha; x] = [beta; 0]. x is overwritten with x', alpha
// with beta; returns tau (0 when the vector is already reduced).
double make_reflector(idx_t m, double& alpha, double* x) {
  double xnorm2 = 0.0;
  for (idx_t i = 0; i + 1 < m; ++i) xnorm2 += x[i] * x[i];
  if (m <= 1 || xnorm2 == 0.0) return 0.0;
  const double beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (idx_t i = 0; i + 1 < m; ++i) x[i] *= inv;
  alpha = beta;
  return tau;
}

// One panel of the blocked lower tridiagonalization (LAPACK DLATRD, lower):
// reduces columns [i0, i0 + b) of the symmetric n x n matrix `a` (both
// triangles stored, column-major) and leaves in `w` (ld n) the panel's W,
// so that the trailing matrix update is A22 -= V W^T + W V^T with V the
// panel's reflectors (stored below the subdiagonal, unit entry set to 1).
void tridiag_panel(idx_t n, double* a, idx_t i0, idx_t b, double* w,
                   double* d, double* e, double* tau) {
  auto at = [&](idx_t i, idx_t j) -> double& { return a[i + j * n]; };
  auto wt = [&](idx_t i, idx_t k) -> double& { return w[i + k * n]; };
  for (idx_t k = 0; k < b; ++k) {
    const idx_t j = i0 + k;
    // Bring column j up to date with the panel's earlier reflectors.
    for (idx_t p = 0; p < k; ++p) {
      const double wj = wt(j, p), vj = at(j, i0 + p);
      const double* __restrict__ vp = &at(0, i0 + p);
      const double* __restrict__ wp = &wt(0, p);
      double* __restrict__ aj = &at(0, j);
      for (idx_t i = j; i < n; ++i) aj[i] -= vp[i] * wj + wp[i] * vj;
    }
    d[j] = at(j, j);
    double beta = at(j + 1, j);
    tau[j] = make_reflector(n - j - 1, beta, a + (j + 2) + j * n);
    e[j] = beta;
    at(j + 1, j) = 1.0;

    // w = tau (A22 v - W (V^T v) - V (W^T v)) over rows j+1..n-1, where
    // A22 is still the matrix as of the panel start (both triangles).
    const idx_t m = n - j - 1;
    const double* __restrict__ v = &at(j + 1, j);
    double* __restrict__ wk = &wt(j + 1, k);
    std::fill(wk, wk + m, 0.0);
    for (idx_t c = 0; c < m; ++c) {
      const double vc = v[c];
      const double* __restrict__ col = &at(j + 1, j + 1 + c);
      for (idx_t i = 0; i < m; ++i) wk[i] += vc * col[i];
    }
    for (idx_t p = 0; p < k; ++p) {
      const double* __restrict__ vp = &at(j + 1, i0 + p);
      const double* __restrict__ wp = &wt(j + 1, p);
      double sw = 0.0, sv = 0.0;
      for (idx_t i = 0; i < m; ++i) {
        sw += wp[i] * v[i];
        sv += vp[i] * v[i];
      }
      for (idx_t i = 0; i < m; ++i) wk[i] -= vp[i] * sw + wp[i] * sv;
    }
    double wv = 0.0;
    for (idx_t i = 0; i < m; ++i) {
      wk[i] *= tau[j];
      wv += wk[i] * v[i];
    }
    const double shift = -0.5 * tau[j] * wv;
    for (idx_t i = 0; i < m; ++i) wk[i] += shift * v[i];
  }
}

// Householder reduction of a symmetric matrix to tridiagonal form, lower
// triangle, column-oriented and blocked (LAPACK DSYTRD, uplo = 'L').
// a: n x n column-major with both triangles stored; on return the
// reflectors H(j) = I - tau[j] v v^T sit below its subdiagonal (v[j+1] = 1
// implicit). d: diagonal, e: subdiagonal (e[j] = T(j+1, j)), tau: n - 1.
void tridiagonalize(idx_t n, std::vector<double>& abuf, double* d, double* e,
                    double* tau) {
  double* a = abuf.data();
  std::vector<double> w(static_cast<std::size_t>(n) * kPanel);
  std::vector<double> vw, wv;
  for (idx_t i0 = 0; i0 < n - 1; i0 += kPanel) {
    const idx_t b = std::min(kPanel, n - 1 - i0);
    tridiag_panel(n, a, i0, b, w.data(), d, e, tau);
    // Trailing update A22 -= [V W] [W V]^T as one GEMM (both triangles).
    const idx_t t = i0 + b, mt = n - t;
    vw.resize(static_cast<std::size_t>(mt) * 2 * b);
    wv.resize(vw.size());
    for (idx_t p = 0; p < b; ++p) {
      const double* vp = a + t + (i0 + p) * n;
      const double* wp = w.data() + t + p * n;
      std::copy(vp, vp + mt, vw.data() + p * mt);
      std::copy(wp, wp + mt, vw.data() + (b + p) * mt);
      std::copy(wp, wp + mt, wv.data() + p * mt);
      std::copy(vp, vp + mt, wv.data() + (b + p) * mt);
    }
    gemm(Op::none, Op::transpose, -1.0,
         ConstMatrixRef<double>{vw.data(), mt, 2 * b, mt},
         ConstMatrixRef<double>{wv.data(), mt, 2 * b, mt}, 1.0,
         MatrixRef<double>{a + t + t * n, mt, mt, n});
  }
  d[n - 1] = a[(n - 1) + (n - 1) * n];
}

// Forms the orthogonal Q = H(0) H(1) ... H(n-2) of tridiagonalize() into z
// (LAPACK DORGTR, lower). Q = diag(1, Q'), where Q' is a product of QR-style
// reflectors; it is accumulated backwards one kPanel block at a time, each
// block applied in compact-WY form I - V T V^T through GEMM (DLARFT+DLARFB).
void form_q(idx_t n, const std::vector<double>& abuf,
            const std::vector<double>& tau, std::vector<double>& z) {
  const double* a = abuf.data();
  z.assign(static_cast<std::size_t>(n) * n, 0.0);
  for (idx_t i = 0; i < n; ++i) z[i + i * n] = 1.0;
  const idx_t m = n - 1;  // order of Q'; reflector j is unit at Q' row j
  std::vector<double> v, tf(kPanel * kPanel), y, ty;
  for (idx_t kb = ((m - 1) / kPanel) * kPanel; kb >= 0; kb -= kPanel) {
    const idx_t b = std::min(kPanel, m - kb), rows = m - kb;
    // V: rows x b, unit lower trapezoidal; Q' row r is row r + 1 of a.
    v.assign(static_cast<std::size_t>(rows) * b, 0.0);
    for (idx_t p = 0; p < b; ++p) {
      double* vp = v.data() + p * rows;
      vp[p] = 1.0;
      const double* src = a + (kb + p + 2) + (kb + p) * n;
      std::copy(src, src + (rows - p - 1), vp + p + 1);
    }
    // T (b x b, upper): T(p,p) = tau_p, T(0:p,p) = -tau_p T(0:p,0:p) V^T v_p.
    std::fill(tf.begin(), tf.end(), 0.0);
    for (idx_t p = 0; p < b; ++p) {
      const double tp = tau[kb + p];
      const double* vp = v.data() + p * rows;
      double* tcol = tf.data() + p * b;
      for (idx_t q = 0; q < p; ++q) {
        const double* vq = v.data() + q * rows;
        double s = 0.0;
        for (idx_t i = p; i < rows; ++i) s += vq[i] * vp[i];
        tcol[q] = -tp * s;
      }
      for (idx_t q = 0; q < p; ++q) {  // in place: row q uses rows >= q
        double s = 0.0;
        for (idx_t r = q; r < p; ++r) s += tf[q + r * b] * tcol[r];
        tcol[q] = s;
      }
      tcol[p] = tp;
    }
    // Q'(kb:, kb:) -= V (T (V^T Q'(kb:, kb:))).
    const MatrixRef<double> qs{z.data() + (kb + 1) + (kb + 1) * n, rows, rows,
                               n};
    const ConstMatrixRef<double> vr{v.data(), rows, b, rows};
    y.resize(static_cast<std::size_t>(b) * rows);
    ty.resize(y.size());
    const MatrixRef<double> yr{y.data(), b, rows, b};
    const MatrixRef<double> tyr{ty.data(), b, rows, b};
    gemm(Op::transpose, Op::none, 1.0, vr, ConstMatrixRef<double>(qs), 0.0,
         yr);
    gemm(Op::none, Op::none, 1.0, ConstMatrixRef<double>{tf.data(), b, b, b},
         ConstMatrixRef<double>(yr), 0.0, tyr);
    gemm(Op::none, Op::none, -1.0, vr, ConstMatrixRef<double>(tyr), 1.0, qs);
  }
}

// Householder reduction of a symmetric matrix to tridiagonal form with
// accumulation of the orthogonal transformation (EISPACK TRED2).
// z: n x n column-major, on input the symmetric matrix, on output the
// accumulated transformation. d: diagonal, e: subdiagonal (e[0] unused).
void tred2(idx_t n, std::vector<double>& zbuf, std::vector<double>& d,
           std::vector<double>& e) {
  auto z = [&](idx_t i, idx_t j) -> double& { return zbuf[i + j * n]; };

  for (idx_t i = n - 1; i >= 1; --i) {
    const idx_t l = i - 1;
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (idx_t k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (idx_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (idx_t j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (idx_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (idx_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (idx_t j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (idx_t k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    const idx_t l = i - 1;
    if (d[i] != 0.0) {
      for (idx_t j = 0; j <= l; ++j) {
        double g = 0.0;
        for (idx_t k = 0; k <= l; ++k) g += z(i, k) * z(k, j);
        for (idx_t k = 0; k <= l; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (idx_t j = 0; j <= l; ++j) z(j, i) = z(i, j) = 0.0;
  }
}

// Implicit-shift QL iteration for a symmetric tridiagonal matrix with
// eigenvector accumulation (EISPACK TQL2).
void tql2(idx_t n, std::vector<double>& d, std::vector<double>& e,
          std::vector<double>& zbuf) {
  auto z = [&](idx_t i, idx_t j) -> double& { return zbuf[i + j * n]; };
  auto sign = [](double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); };

  for (idx_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (idx_t l = 0; l < n; ++l) {
    int iter = 0;
    idx_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        // Convergence failure is a property of the input data (e.g. NaNs in
        // the Gram matrix), not caller misuse: numerical_error so the solver
        // fallback chain can catch it and degrade gracefully.
        if (iter++ >= 64) {
          throw numerical_error("tql2: QL iteration failed to converge");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + sign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        idx_t i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (idx_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

/// Runs `reduce` (tridiagonalization + Q into z, EISPACK-convention d/e) and
/// tql2 on a double copy of `a`, then sorts the eigenpairs descending.
template <typename T, typename Reduce>
EvdResult<T> evd_with(ConstMatrixRef<T> a, Reduce reduce) {
  RAHOOI_REQUIRE(a.rows == a.cols, "sym_evd requires a square matrix");
  const idx_t n = a.rows;
  EvdResult<T> out;
  out.vectors = Matrix<T>(n, n);
  out.eigenvalues.assign(n, 0.0);
  if (n == 0) return out;

  std::vector<double> z(static_cast<std::size_t>(n) * n);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < n; ++i) z[i + j * n] = a(i, j);
  }
  std::vector<double> d(n), e(n);
  if (n == 1) {
    d[0] = z[0];
    z[0] = 1.0;
  } else {
    reduce(n, z, d, e);
    tql2(n, d, e, z);
  }

  std::vector<idx_t> order(n);
  std::iota(order.begin(), order.end(), idx_t{0});
  std::sort(order.begin(), order.end(),
            [&](idx_t x, idx_t y) { return d[x] > d[y]; });
  for (idx_t j = 0; j < n; ++j) {
    const idx_t src = order[j];
    out.eigenvalues[j] = d[src];
    for (idx_t i = 0; i < n; ++i) {
      out.vectors(i, j) = static_cast<T>(z[i + src * n]);
    }
  }
  return out;
}

}  // namespace

template <typename T>
EvdResult<T> sym_evd(ConstMatrixRef<T> a) {
  EvdResult<T> out = evd_with(a, [](idx_t n, std::vector<double>& z,
                                    std::vector<double>& d,
                                    std::vector<double>& e) {
    // The GEMMs inside are an implementation detail of the reduction; the
    // EVD is charged as a whole below, so their flops are not recorded.
    Stats muted;
    const ScopedStats mute(muted);
    // Reduce J A J instead of A, with J the index reversal (reversing a
    // column-major square array reverses both indices). Mapped back, T and
    // Q are then those of a reduction from the last column backwards, as in
    // TRED2 and DSYTRD('U'): the orientation whose tridiagonal TQL2's QL
    // sweeps deflate fastest (on a 512^2 Gram, 0.055 s instead of 0.082 s).
    std::reverse(z.begin(), z.end());
    std::vector<double> tau(n - 1), q;
    e[0] = 0.0;  // tql2 takes the subdiagonal one-based
    tridiagonalize(n, z, d.data(), e.data() + 1, tau.data());
    form_q(n, z, tau, q);
    std::reverse(q.begin(), q.end());
    z.swap(q);
    std::reverse(d.begin(), d.end());
    std::reverse(e.begin() + 1, e.end());
  });
  // ~(4/3)n^3 reduction + ~(2/3 to 6)n^3 accumulation/QL; 9n^3 is the usual
  // leading-order accounting for SYEV with vectors.
  const double n = static_cast<double>(a.rows);
  stats::add_flops(9.0 * n * n * n);
  return out;
}

template <typename T>
EvdResult<T> sym_evd_ref(ConstMatrixRef<T> a) {
  return evd_with(a, tred2);
}

template EvdResult<float> sym_evd<float>(ConstMatrixRef<float>);
template EvdResult<double> sym_evd<double>(ConstMatrixRef<double>);
template EvdResult<float> sym_evd_ref<float>(ConstMatrixRef<float>);
template EvdResult<double> sym_evd_ref<double>(ConstMatrixRef<double>);

}  // namespace rahooi::la
