// Strong-scaling demonstration on the simulated message-passing runtime:
// runs all five algorithms of the paper (STHOSVD + four HOOI variants) on a
// synthetic low-rank tensor at increasing simulated rank counts and reports
// measured wall time plus the measured per-rank flop/communication counters
// the cost model consumes. (Ranks are threads sharing one machine's cores:
// wall time drops with P only up to the core count — the counters show the
// work division beyond it.)
//
// Run: ./scaling_demo [n] [r]   (defaults n = 48, r = 4)

#include <cstdio>
#include <cstdlib>

#include "comm/runtime.hpp"
#include "common/stopwatch.hpp"
#include "core/hooi.hpp"
#include "data/synthetic.hpp"
#include "example_util.hpp"
#include "model/cost_model.hpp"

using namespace rahooi;

int main(int argc, char** argv) {
  const la::idx_t n = argc > 1 ? std::atoll(argv[1]) : 48;
  const la::idx_t r = argc > 2 ? std::atoll(argv[2]) : 4;
  const std::vector<la::idx_t> dims = {n, n, n};
  const std::vector<la::idx_t> ranks = {r, r, r};

  std::printf("scaling demo: %s tensor, ranks %lld, algorithms x P\n\n",
              examples::dims_to_string(dims).c_str(),
              static_cast<long long>(r));
  std::printf("%-9s %3s  %10s  %14s  %14s  %12s\n", "algorithm", "P",
              "seconds", "par gflop/rank", "seq gflop", "MB sent/rank");

  for (const int p : {1, 2, 4, 8}) {
    for (const auto algo :
         {model::Algorithm::sthosvd, model::Algorithm::hooi,
          model::Algorithm::hooi_dt, model::Algorithm::hosi,
          model::Algorithm::hosi_dt}) {
      std::vector<Stats> per_rank;
      double seconds = 0;
      comm::Runtime::run(
          p,
          [&](comm::Comm& world) {
            std::vector<int> gdims = {1, p, 1};  // P_1 = P_d = 1
            dist::ProcessorGrid grid(world, gdims);
            auto x = data::synthetic_tucker<float>(grid, dims, ranks, 1e-4,
                                                   7);
            world.barrier();
            Stopwatch clock;
            if (algo == model::Algorithm::sthosvd) {
              (void)core::sthosvd_fixed_rank(x, ranks);
            } else {
              core::HooiOptions o;
              o.svd_method = (algo == model::Algorithm::hosi ||
                              algo == model::Algorithm::hosi_dt)
                                 ? core::SvdMethod::subspace_iteration
                                 : core::SvdMethod::gram_evd;
              o.use_dimension_tree = algo == model::Algorithm::hooi_dt ||
                                     algo == model::Algorithm::hosi_dt;
              o.max_iters = 2;
              (void)core::hooi(x, ranks, o);
            }
            world.barrier();
            if (world.rank() == 0) seconds = clock.elapsed();
          },
          &per_rank);
      std::printf("%-9s %3d  %10.3f  %14.3f  %14.3f  %12.3f\n",
                  model::algorithm_name(algo), p, seconds,
                  per_rank[0].parallel_flops() / 1e9,
                  per_rank[0].sequential_flops() / 1e9,
                  per_rank[0].total_comm_bytes() / 1e6);
    }
    std::printf("\n");
  }
  return 0;
}
