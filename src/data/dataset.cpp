#include "data/dataset.hpp"

#include "data/science.hpp"
#include "data/synthetic.hpp"

namespace rahooi::data {

template <typename T>
dist::DistTensor<T> make_dataset(const std::string& name,
                                 const dist::ProcessorGrid& grid,
                                 const std::vector<idx_t>& dims,
                                 const std::vector<idx_t>& ranks,
                                 double noise, std::uint64_t seed) {
  if (name == "synthetic") {
    return synthetic_tucker<T>(grid, dims, ranks, noise, seed);
  }
  if (name == "miranda") {
    RAHOOI_REQUIRE(dims.size() == 3, "miranda dataset is 3-way");
    return miranda_like<T>(grid, dims[0], seed);
  }
  if (name == "hcci") {
    RAHOOI_REQUIRE(dims.size() == 4, "hcci dataset is 4-way");
    return hcci_like<T>(grid, dims[0], dims[1], dims[2], dims[3], seed);
  }
  if (name == "sp") {
    RAHOOI_REQUIRE(dims.size() == 5, "sp dataset is 5-way");
    return sp_like<T>(grid, dims[0], dims[1], dims[2], dims[3], dims[4],
                      seed);
  }
  throw precondition_error("unknown Dataset: " + name);
}

#define RAHOOI_INSTANTIATE_DATASET(T)                                    \
  template dist::DistTensor<T> make_dataset<T>(                          \
      const std::string&, const dist::ProcessorGrid&,                    \
      const std::vector<idx_t>&, const std::vector<idx_t>&, double,      \
      std::uint64_t);

RAHOOI_INSTANTIATE_DATASET(float)
RAHOOI_INSTANTIATE_DATASET(double)

#undef RAHOOI_INSTANTIATE_DATASET

}  // namespace rahooi::data
