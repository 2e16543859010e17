#include "core/options.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace rahooi::core {

void validate(const HooiOptions& o) {
  RAHOOI_REQUIRE(o.max_iters >= 1, "HooiOptions: max_iters must be >= 1");
  RAHOOI_REQUIRE(std::isfinite(o.convergence_tol) && o.convergence_tol >= 0.0,
                 "HooiOptions: convergence_tol must be finite and >= 0");
  RAHOOI_REQUIRE(std::isfinite(o.collective_timeout_ms) &&
                     o.collective_timeout_ms >= 0.0,
                 "HooiOptions: collective_timeout_ms must be finite and >= 0");
}

void validate(const RankAdaptiveOptions& o) {
  validate(o.hooi);
  RAHOOI_REQUIRE(std::isfinite(o.tolerance) && o.tolerance > 0.0 &&
                     o.tolerance < 1.0,
                 "RankAdaptiveOptions: tolerance must be in (0, 1)");
  RAHOOI_REQUIRE(std::isfinite(o.growth_factor) && o.growth_factor > 1.0,
                 "RankAdaptiveOptions: growth_factor must exceed 1");
  RAHOOI_REQUIRE(o.max_iters >= 1,
                 "RankAdaptiveOptions: max_iters must be >= 1");
  RAHOOI_REQUIRE(std::isfinite(o.modewise_expand_fraction) &&
                     o.modewise_expand_fraction >= 0.0,
                 "RankAdaptiveOptions: modewise_expand_fraction must be "
                 "finite and >= 0");
  RAHOOI_REQUIRE(std::isfinite(o.modewise_contract_fraction) &&
                     o.modewise_contract_fraction >= 0.0,
                 "RankAdaptiveOptions: modewise_contract_fraction must be "
                 "finite and >= 0");
}

}  // namespace rahooi::core
