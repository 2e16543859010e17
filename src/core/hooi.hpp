#pragma once
// Higher Order Orthogonal Iteration (paper Alg. 2) and its optimized
// variants: dimension-tree memoized sweeps (Alg. 4) and subspace-iteration
// LLSV (Alg. 5), in the four combinations evaluated in the paper
// (HOOI / HOOI-DT / HOSI / HOSI-DT; see core/options.hpp).

#include <vector>

#include "core/options.hpp"
#include "core/solve_report.hpp"
#include "core/sthosvd.hpp"

namespace rahooi::core {

template <typename T>
struct HooiResult {
  TuckerResult<T> decomposition;
  int iterations = 0;
  /// Relative error after each sweep (via the core-norm identity).
  std::vector<double> error_history;
  /// Degradation events (numerical fallbacks taken mid-solve); empty for a
  /// clean solve. See core/solve_report.hpp.
  SolveReport report;
};

/// Random orthonormal factor matrices (dims[j] x ranks[j]), generated
/// identically on every rank from the seed (replicated, as TuckerMPI keeps
/// factors).
template <typename T>
std::vector<la::Matrix<T>> random_factors(const std::vector<idx_t>& dims,
                                          const std::vector<idx_t>& ranks,
                                          std::uint64_t seed);

/// One full HOOI iteration (all d subiterations): updates `factors` in
/// place and returns the core G = Y x_d U_d^T computed at the last
/// subiteration. Dispatches on options to the direct (Alg. 2) or
/// dimension-tree (Alg. 4) sweep and to Gram+EVD or subspace-iteration
/// LLSV. For subspace iteration, `factors` must already have ranks[j]
/// orthonormal columns (they are the iteration's starting subspace).
/// `sweep_index` labels the sweep in `report`. When `report` is non-null,
/// numerical hazards (non-finite updates, EVD non-convergence) degrade
/// gracefully — fall back to Gram+EVD, then to keeping the previous factor
/// — and are recorded there instead of thrown.
template <typename T>
dist::DistTensor<T> hooi_sweep(const dist::DistTensor<T>& x,
                               std::vector<la::Matrix<T>>& factors,
                               const std::vector<idx_t>& ranks,
                               const HooiOptions& options,
                               int sweep_index = 0,
                               SolveReport* report = nullptr);

/// Rank-specified HOOI (Alg. 2): random initialization, `options.max_iters`
/// sweeps (optionally fewer if convergence_tol is met). Fault-tolerance
/// knobs of HooiOptions: collective_timeout_ms arms the hang watchdog,
/// checkpoint_path saves sweep state after every sweep, restore_path
/// resumes a checkpointed solve (the remaining sweeps replay bitwise
/// identically to the uninterrupted run; see docs/ROBUSTNESS.md).
template <typename T>
HooiResult<T> hooi(const dist::DistTensor<T>& x,
                   const std::vector<idx_t>& ranks,
                   const HooiOptions& options = {});

}  // namespace rahooi::core
