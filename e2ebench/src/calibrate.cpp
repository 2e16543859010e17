#include "calibrate.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "la/blas.hpp"

namespace e2e {

using rahooi::la::idx_t;

namespace {

template <typename T>
double gemm_gflops(idx_t n, int reps) {
  rahooi::la::Matrix<T> a(n, n), b(n, n), c(n, n);
  for (idx_t i = 0; i < n * n; ++i) {
    a.data()[i] = T(0.5) + T(i % 7) * T(0.125);
    b.data()[i] = T(1.0) - T(i % 5) * T(0.0625);
  }
  std::vector<double> rates;
  for (int r = 0; r <= reps; ++r) {
    const double t0 = rahooi::stats::now();
    rahooi::la::gemm<T>(rahooi::la::Op::none, rahooi::la::Op::none, T(1),
                        a.cref(), b.cref(), T(0), c.ref());
    const double dt = rahooi::stats::now() - t0;
    if (r > 0) rates.push_back(2.0 * double(n) * double(n) * double(n) / dt);
  }
  return median(rates) * 1e-9;
}

/// Streaming read of `bytes` of doubles, `passes` times; median GB/s.
double stream_gbps(std::size_t bytes, int passes) {
  const std::size_t n = bytes / sizeof(double);
  std::unique_ptr<double[]> buf(new double[n]);
  for (std::size_t i = 0; i < n; ++i) buf[i] = double(i & 1023) * 1e-3;
  std::vector<double> rates;
  double sink = 0.0;
  for (int p = 0; p < passes; ++p) {
    // Eight independent accumulators keep the adds off the critical path,
    // so the loop is limited by memory, not by add latency.
    double s[8] = {};
    const double t0 = rahooi::stats::now();
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      for (int k = 0; k < 8; ++k) s[k] += buf[i + k];
    }
    const double dt = rahooi::stats::now() - t0;
    for (const double v : s) sink += v;
    rates.push_back(double(n) * sizeof(double) / dt);
  }
  // Keep the sums observable so the reads cannot be elided.
  if (sink == -1.0) rates.push_back(0.0);
  return median(rates) * 1e-9;
}

}  // namespace

double Calibration::roofline_gflops(bool fp64, double flop_per_byte) const {
  const double peak = fp64 ? gemm_gflops_f64 : gemm_gflops_f32;
  return std::min(peak, stream_gbps * flop_per_byte);
}

Calibration calibrate(bool tiny, Result& result) {
  Calibration c;
  c.l3_bytes = l3_bytes();
  // The array is at least four times the last-level cache, so every pass
  // streams from memory.
  c.stream_array_bytes =
      tiny ? (std::size_t{32} << 20) : 4 * c.l3_bytes + (std::size_t{64} << 20);
  const idx_t n = tiny ? 256 : 768;
  const int reps = tiny ? 3 : 7;
  c.gemm_gflops_f32 = gemm_gflops<float>(n, reps);
  c.gemm_gflops_f64 = gemm_gflops<double>(n, reps);
  c.stream_gbps = stream_gbps(c.stream_array_bytes, tiny ? 3 : 5);

  result.metric("la.gemm_gflops_f32", c.gemm_gflops_f32, "GF/s",
                std::size_t(reps));
  result.metric("la.gemm_gflops_f64", c.gemm_gflops_f64, "GF/s",
                std::size_t(reps));
  result.metric("la.stream_gbps", c.stream_gbps, "GB/s", tiny ? 3 : 5);
  result.record("stream_array_bytes", double(c.stream_array_bytes));
  result.record("gemm_calibration_n", double(n));
  return c;
}

}  // namespace e2e
