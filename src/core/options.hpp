#pragma once
// Algorithm options mirroring the paper artifact's parameter file:
//   "SVD Method"                  -> SvdMethod (0 = Gram+EVD, 2 = subspace
//                                    iteration; -1 = auto via
//                                    model::pick_llsv_backend)
//   "Dimension Tree Memoization"  -> use_dimension_tree
//   "HOOI-Adapt Threshold"        -> RankAdaptiveOptions::tolerance
//                                    (eps; 0 runs fixed-rank hooi)
//   "HOOI max iters"              -> max_iters
// io::solver_options (io/solver_params.hpp) is the one implementation of
// this mapping.
// The HOOI variants of the paper (§4, artifact table):
//   HOOI = {gram_evd, no tree},   HOOI-DT = {gram_evd, tree},
//   HOSI = {subspace, no tree},   HOSI-DT = {subspace, tree}.

#include <atomic>
#include <cstdint>
#include <string>

namespace rahooi::core {

enum class SvdMethod : int {
  gram_evd = 0,           ///< Gram matrix + sequential EVD (TuckerMPI default)
  subspace_iteration = 2, ///< single subspace iteration + QRCP (paper §3.4)
};

struct HooiOptions {
  SvdMethod svd_method = SvdMethod::gram_evd;
  bool use_dimension_tree = false;  ///< multi-TTM memoization (paper §3.3)
  int max_iters = 2;                ///< paper runs 2 for rank-specified tests
  /// Stop early when the relative error improves by less than this between
  /// sweeps (0 disables early stopping; the paper uses a fixed iteration
  /// count).
  double convergence_tol = 0.0;
  std::uint64_t seed = 1;           ///< random factor initialization seed
  /// Collective hang watchdog deadline in milliseconds (0 disables). Armed
  /// on the tensor's world communicator at solver entry; a collective wait
  /// exceeding it aborts the run with comm::TimeoutError and a report of
  /// which rank is parked in which collective (docs/ROBUSTNESS.md).
  double collective_timeout_ms = 0.0;
  /// When non-empty, rank 0 writes a versioned+checksummed checkpoint of
  /// the sweep state (factors, ranks, seed, error history) to this path
  /// after every completed sweep (core/checkpoint.hpp).
  std::string checkpoint_path;
  /// When non-empty, hooi() / rank_adaptive_hooi() resumes from the
  /// checkpoint at this path instead of random initialization: the
  /// remaining sweeps run exactly as the uninterrupted solve would have run
  /// them (bitwise, thanks to the counter-based RNG, iteration-indexed
  /// growth seeds, and canonical-order reductions).
  std::string restore_path;
  /// Cooperative preemption hook (serve::Scheduler, docs/SERVING.md). When
  /// non-null, the solver loop checks the flag at every sweep/iteration
  /// boundary: rank 0 reads it and broadcasts the verdict so all ranks
  /// agree, then every rank throws core::PreemptedError — the previous
  /// boundary's checkpoint is already on disk and no collective is torn
  /// mid-post. Null (default): no check, no collective, no cost.
  const std::atomic<int>* yield_flag = nullptr;
};

/// How ranks evolve when the error threshold is not yet met.
enum class AdaptStrategy {
  /// Alg. 3 line 9: every rank grows by the factor alpha (the paper's
  /// method).
  global_growth,
  /// Mode-wise expansion *and* contraction in the spirit of Xiao & Yang's
  /// RA-HOOI (cited in §2.3): each iteration the per-mode slice-energy
  /// spectra of the core decide, mode by mode, whether that mode still
  /// needs more rank (its trailing slice carries a non-negligible share of
  /// the core energy) or can already shed slices (their energy is far
  /// below the error budget). Useful when the true ranks are anisotropic.
  modewise,
};

struct RankAdaptiveOptions {
  HooiOptions hooi;            ///< sweep configuration (HOSI-DT by default)
  double tolerance = 0.1;      ///< eps of eq. (2)
  double growth_factor = 1.5;  ///< alpha of Alg. 3 (paper uses 1.5 or 2)
  int max_iters = 3;           ///< the paper caps RA-HOSI-DT at 3 iterations
  /// Keep iterating after the error threshold is first met (the paper's
  /// plots show all 3 iterations; later sweeps can improve compression).
  bool continue_after_satisfied = true;

  AdaptStrategy strategy = AdaptStrategy::global_growth;
  /// modewise: expand a mode while its last slice holds more than this
  /// fraction of the average slice energy (spectrum not yet decayed).
  double modewise_expand_fraction = 0.1;
  /// modewise: contract trailing slices whose cumulative energy stays below
  /// this fraction of the per-mode error budget eps^2 ||X||^2 / d.
  double modewise_contract_fraction = 0.01;

  RankAdaptiveOptions() {
    hooi.svd_method = SvdMethod::subspace_iteration;
    hooi.use_dimension_tree = true;
  }
};

/// Variant label as used in the paper's figures ("STHOSVD", "HOOI",
/// "HOOI-DT", "HOSI", "HOSI-DT").
std::string variant_name(const HooiOptions& o);

/// Entry validation run by hooi() / rank_adaptive_hooi(): rejects
/// non-finite or out-of-range knobs with precondition_error before any
/// collective runs, so misconfiguration fails identically on every rank
/// instead of desynchronizing the world mid-solve.
void validate(const HooiOptions& o);
void validate(const RankAdaptiveOptions& o);

}  // namespace rahooi::core
