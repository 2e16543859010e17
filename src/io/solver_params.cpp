#include "io/solver_params.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "model/cost_model.hpp"

namespace rahooi::io {

SolverOptions solver_options(const ParamFile& params,
                             const std::vector<idx_t>& dims,
                             const std::vector<idx_t>& ranks,
                             const std::vector<int>& grid) {
  SolverOptions out;
  core::HooiOptions& o = out.ra.hooi;
  o.use_dimension_tree = params.get_bool("Dimension Tree Memoization", false);
  o.max_iters = static_cast<int>(params.get_int("HOOI max iters", 2));
  o.sketch.oversample = params.get_int("Sketch Oversample", 8);
  o.sketch.min_cols = params.get_int("Sketch Min Cols", 16);
  o.sketch.growth = params.get_double("Sketch Growth", 2.0);
  o.sketch.safety = params.get_double("Sketch Safety", 0.5);
  o.sketch.deterministic = params.get_bool("Sketch Deterministic", false);
  long long svd_method = params.get_int("SVD Method", 0);
  if (svd_method == -1) {
    // HOOI sweeps have a warm start, so subspace iteration is eligible.
    model::Problem prob;
    prob.d = static_cast<int>(dims.size());
    for (const auto v : dims) prob.n = std::max(prob.n, double(v));
    for (const auto v : ranks) prob.r = std::max(prob.r, double(v));
    prob.iters = o.max_iters;
    prob.grid = grid;
    switch (model::pick_llsv_backend(prob, o.sketch.oversample,
                                     /*warm_start=*/true)) {
      case model::LlsvBackend::gram_evd: svd_method = 0; break;
      case model::LlsvBackend::subspace_iteration: svd_method = 2; break;
      case model::LlsvBackend::sketch: svd_method = 3; break;
    }
  }
  RAHOOI_REQUIRE(svd_method >= 0 && svd_method <= 4,
                 "'SVD Method' must be in [0, 4] or -1 (auto)");
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
  const std::string init = params.get_string("RA Init", "random");
  RAHOOI_REQUIRE(init == "sketched" || init == "random",
                 "'RA Init' must be 'sketched' or 'random'");
  out.ra.init = init == "random" ? core::RaInit::random_factors
                                 : core::RaInit::sketched_sthosvd;
  return out;
}

}  // namespace rahooi::io
