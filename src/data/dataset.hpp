#pragma once
// One entry point for every generated input: the drivers' and the serve
// tier's "Dataset" parameter resolves here.

#include <cstdint>
#include <string>

#include "dist/dist_tensor.hpp"

namespace rahooi::data {

using la::idx_t;

/// Generates dataset `name` — synthetic (default), miranda, hcci or sp —
/// with global shape `dims`. `ranks` and `noise` are the synthetic Tucker
/// construction ranks and relative noise; the simulation substitutes
/// ignore them. Throws precondition_error for an unknown name or a `dims`
/// of the wrong order.
template <typename T>
dist::DistTensor<T> make_dataset(const std::string& name,
                                 const dist::ProcessorGrid& grid,
                                 const std::vector<idx_t>& dims,
                                 const std::vector<idx_t>& ranks,
                                 double noise, std::uint64_t seed);

}  // namespace rahooi::data
