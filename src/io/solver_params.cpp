#include "io/solver_params.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "model/cost_model.hpp"

namespace rahooi::io {

namespace {

// The sketched and randomized LLSV paths lost the paper-scale ablation
// (EXPERIMENTS.md, "LLSV backend decision") and were deleted. A parameter
// file that still asks for them fails loudly instead of silently solving
// with a different method.
void reject_removed(const ParamFile& params, long long svd_method) {
  RAHOOI_REQUIRE(svd_method != 1 && svd_method != 3 && svd_method != 4,
                 "'SVD Method = " + std::to_string(svd_method) +
                     "' was removed (randomized and sketched LLSV lost the "
                     "paper-scale ablation, EXPERIMENTS.md); use 0 "
                     "(Gram+EVD), 2 (subspace+QRCP) or -1 (auto)");
  RAHOOI_REQUIRE(params.get_string("RA Init", "random") == "random",
                 "'RA Init = " + params.get_string("RA Init") +
                     "' is not accepted: the sketched ST-HOSVD warm start "
                     "lost the paper-scale ablation and was removed "
                     "(EXPERIMENTS.md); rank-adaptive solves start from "
                     "random factors");
  for (const char* key : {"Sketch Oversample", "Sketch Min Cols",
                          "Sketch Growth", "Sketch Safety",
                          "Sketch Deterministic"}) {
    RAHOOI_REQUIRE(!params.has(key),
                   std::string("'") + key +
                       "' was removed with the sketched LLSV backends "
                       "(EXPERIMENTS.md); delete the key");
  }
}

}  // namespace

SolverOptions solver_options(const ParamFile& params,
                             const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& ranks,
                             const std::vector<int>& grid) {
  SolverOptions out;
  core::HooiOptions& o = out.ra.hooi;
  o.use_dimension_tree = params.get_bool("Dimension Tree Memoization", false);
  o.max_iters = static_cast<int>(params.get_int("HOOI max iters", 2));
  long long svd_method = params.get_int("SVD Method", 0);
  reject_removed(params, svd_method);
  if (svd_method == -1) {
    // HOOI sweeps have a warm start, so subspace iteration is eligible.
    model::Problem prob;
    prob.d = static_cast<int>(dims.size());
    for (const auto v : dims) prob.n = std::max(prob.n, double(v));
    for (const auto v : ranks) prob.r = std::max(prob.r, double(v));
    prob.iters = o.max_iters;
    prob.grid = grid;
    svd_method = model::pick_llsv_backend(prob, /*warm_start=*/true) ==
                         model::LlsvBackend::subspace_iteration
                     ? 2
                     : 0;
  }
  RAHOOI_REQUIRE(svd_method == 0 || svd_method == 2,
                 "'SVD Method' must be 0, 2 or -1 (auto)");
  o.svd_method = static_cast<core::SvdMethod>(svd_method);
  o.seed = static_cast<std::uint64_t>(params.get_int("Seed", 1));
  o.collective_timeout_ms = params.get_double("Collective timeout ms", 0.0);
  o.checkpoint_path = params.get_string("Checkpoint file", "");

  const double adapt = params.get_double("HOOI-Adapt Threshold", 0.0);
  out.adaptive = adapt > 0.0;
  if (!out.adaptive) return out;
  out.ra.tolerance = adapt;
  out.ra.max_iters = o.max_iters;
  out.ra.growth_factor = params.get_double("Rank growth factor", 1.5);
  return out;
}

}  // namespace rahooi::io
