#pragma once
// Parameter file -> solve: the one mapping from the artifact-style keys
// (io/param_file.hpp) to solver options and input tensor, shared by the
// param-file drivers and the serve job runner.

#include <vector>

#include "core/options.hpp"
#include "data/dataset.hpp"
#include "io/param_file.hpp"
#include "io/tensor_io.hpp"

namespace rahooi::io {

struct SolverOptions {
  /// `ra.hooi` alone configures fixed-rank hooi(); all of `ra` configures
  /// rank_adaptive_hooi().
  core::RankAdaptiveOptions ra;
  /// "HOOI-Adapt Threshold" > 0 (then ra.tolerance): solve rank-adaptively.
  bool adaptive = false;
};

/// Reads the solver keys of `params`. "SVD Method = -1" asks the cost model
/// for the cheapest LLSV backend at this problem shape (`dims`, `ranks`,
/// processor `grid`; model::pick_llsv_backend) and is returned resolved.
SolverOptions solver_options(const ParamFile& params,
                             const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& ranks,
                             const std::vector<int>& grid);

/// The input a parameter file names: each rank reads only its block of
/// "Input file" (parallel-IO style), else the "Dataset" generator
/// (synthetic by default, with "Noise" and "Seed").
template <typename T>
dist::DistTensor<T> make_input(const ParamFile& params,
                               const dist::ProcessorGrid& grid,
                               const std::vector<idx_t>& dims,
                               const std::vector<idx_t>& ranks) {
  if (params.has("Input file")) {
    return read_dist_tensor<T>(grid, dims, params.get_string("Input file"));
  }
  return data::make_dataset<T>(
      params.get_string("Dataset", "synthetic"), grid, dims, ranks,
      params.get_double("Noise", 1e-4),
      static_cast<std::uint64_t>(params.get_int("Seed", 1)));
}

}  // namespace rahooi::io
