#pragma once
// Roofline calibration probes of the traced run: the single-thread la::gemm
// rate and the single-thread streaming-read bandwidth of this machine,
// measured in the same process as the layer they normalize.

#include <cstddef>

#include "common.hpp"

namespace e2e {

struct Calibration {
  double gemm_gflops_f32 = 0.0;
  double gemm_gflops_f64 = 0.0;
  double stream_gbps = 0.0;
  std::size_t stream_array_bytes = 0;
  std::size_t l3_bytes = 0;

  /// min(gemm rate, bandwidth x flop/byte) in GF/s for a kernel of the
  /// given arithmetic intensity (flop per computed byte moved).
  double roofline_gflops(bool fp64, double flop_per_byte) const;
};

/// Runs the probes (about two seconds) and adds `la.gemm_gflops_f32`,
/// `la.gemm_gflops_f64` and `la.stream_gbps` to `result`, with the array and
/// L3 sizes in the run record.
Calibration calibrate(bool tiny, Result& result);

}  // namespace e2e
