// Figure 2 reproduction: strong scaling of STHOSVD, HOOI, HOOI-DT, HOSI,
// and HOSI-DT on 3-way and 4-way synthetic tensors.
//
// Two sections (see DESIGN.md on the single-node substitution):
//
//  (a) MEASURED runs on the thread-backed runtime at P = 1..16 on scaled
//      tensors. Ranks are threads sharing one machine's cores, so wall time
//      drops with P only up to the core count; what validates the
//      decomposition is the measured per-rank parallel work, which must
//      shrink ~1/P while the sequential EVD/QR work stays constant, and the
//      communication volume, which must match Table 2.
//
//  (b) MODELED curves at the paper's scale (3-way 3750^3 rank 30, 4-way
//      560^4 rank 10, P = 1..4096/8192) using the Table 1/2 formulas
//      validated in bench_table1/2 with kernel rates calibrated on this
//      CPU. The paper's qualitative claims are then checked explicitly:
//      STHOSVD's sequential-EVD plateau in the 3-way case, good 4-way
//      STHOSVD scaling, and HOSI-DT's advantage at scale.

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "model/calibration.hpp"

using namespace rahooi;
using namespace rahooi::bench;

namespace {

// Candidate grids for the measured runs: as in the paper ("we test all
// algorithms on a variety of grids ... and report the fastest observed
// running times"), we try a few factorizations per P and keep the best.
std::vector<std::vector<int>> candidate_grids(int d, int p, idx_t n) {
  std::vector<std::vector<int>> out;
  for (const auto& g : model::grid_factorizations(p, d)) {
    bool feasible = true;
    for (int j = 0; j < d; ++j) feasible = feasible && g[j] <= n;
    if (!feasible) continue;
    // Keep the paper-relevant shapes: P_1 = 1 and/or P_d = 1, plus one
    // fully mixed grid, to bound the sweep.
    const bool preferred = g.front() == 1 || g.back() == 1;
    if (preferred || out.size() < 4) out.push_back(g);
    if (out.size() >= 6) break;
  }
  if (out.empty()) out.push_back(std::vector<int>(d, 1));
  return out;
}

void measured_section(int d, idx_t n, idx_t r, CsvTable& table) {
  const std::vector<idx_t> dims(d, n);
  const std::vector<idx_t> ranks(d, r);
  for (const int p : {1, 2, 4, 8, 16}) {
    for (const Variant& v : paper_variants(2)) {
      RunResult best;
      std::vector<int> best_grid;
      for (const std::vector<int>& gdims : candidate_grids(d, p, n)) {
        RunResult res = timed_run(p, [&](comm::Comm& world) {
          auto grid = std::make_shared<dist::ProcessorGrid>(world, gdims);
          auto x = std::make_shared<dist::DistTensor<float>>(
              data::synthetic_tucker<float>(*grid, dims, ranks, 1e-4, 5));
          return std::function<void()>([grid, x, &v, &ranks] {
            if (v.algo == model::Algorithm::sthosvd) {
              (void)core::sthosvd_fixed_rank(*x, ranks);
            } else {
              (void)core::hooi(*x, ranks, v.hooi);
            }
          });
        });
        if (best_grid.empty() || res.seconds < best.seconds) {
          best = res;
          best_grid = gdims;
        }
      }
      table.begin_row();
      table.add(std::to_string(d) + "-way");
      table.add(std::string(model::algorithm_name(v.algo)));
      table.add(p);
      table.add(grid_to_string(best_grid));
      table.add(best.seconds);
      table.add(best.stats.parallel_flops() / 1e6);
      table.add(best.stats.sequential_flops() / 1e6);
      table.add(best.stats.total_comm_bytes() / 1e6);
    }
  }
}

void modeled_section(int d, double n, double r, int pmax,
                     const model::MachineRates& rates, CsvTable& table) {
  for (int p = 1; p <= pmax; p *= 2) {
    for (const Variant& v : paper_variants(2)) {
      const auto grid = model::best_grid(v.algo, d, n, r, 2, p, rates);
      const auto cost =
          model::predict(v.algo, model::Problem{d, n, r, 2, grid});
      table.begin_row();
      table.add(std::to_string(d) + "-way");
      table.add(std::string(model::algorithm_name(v.algo)));
      table.add(p);
      table.add(grid_to_string(grid));
      table.add(model::modeled_seconds(cost, rates));
      table.add(model::modeled_seconds_roofline(cost, rates, p));
    }
  }
}

double modeled_time(model::Algorithm a, int d, double n, double r, int p,
                    const model::MachineRates& rates) {
  // The roofline variant captures the paper's §5 observation that small
  // ranks make local kernels memory-bandwidth bound.
  const auto grid = model::best_grid(a, d, n, r, 2, p, rates);
  return model::modeled_seconds_roofline(
      model::predict(a, model::Problem{d, n, r, 2, grid}), rates, p);
}

}  // namespace

int main() {
  std::printf("=== Figure 2: strong scaling of Tucker algorithms ===\n\n");

  std::printf("--- (a) measured on the thread-backed runtime (scaled "
              "tensors: 3-way 64^3 r=4, 4-way 24^4 r=3) ---\n");
  std::printf("ranks share the machine's cores: per-rank parallel Mflop "
              "must shrink ~1/P; seconds only up to the core count.\n\n");
  CsvTable measured({"case", "algorithm", "P", "grid", "seconds",
                     "par_Mflop_per_rank", "seq_Mflop", "comm_MB_per_rank"});
  measured_section(3, 64, 4, measured);
  measured_section(4, 24, 3, measured);
  emit(measured, "fig2_measured");

  std::printf("--- (b) modeled at paper scale (calibrating kernel rates on "
              "this CPU...) ---\n");
  const model::MachineRates rates = model::calibrate();
  std::printf("calibrated rates: parallel %.2f Gflop/s, sequential (EVD) "
              "%.2f Gflop/s,\nnetwork beta %.1f GB/s (Slingshot-class "
              "assumption; see DESIGN.md)\n\n",
              rates.flops_per_sec / 1e9, rates.seq_flops_per_sec / 1e9,
              rates.bytes_per_sec / 1e9);

  CsvTable modeled({"case", "algorithm", "P", "grid", "modeled_seconds",
                    "roofline_seconds"});
  modeled_section(3, 3750, 30, 4096, rates, modeled);
  modeled_section(4, 560, 10, 8192, rates, modeled);
  emit(modeled, "fig2_modeled");

  std::printf("paper-claim checks (Fig. 2 shape):\n");
  const double st3_1 = modeled_time(model::Algorithm::sthosvd, 3, 3750, 30, 1, rates);
  const double st3_64 = modeled_time(model::Algorithm::sthosvd, 3, 3750, 30, 64, rates);
  const double st3_2048 = modeled_time(model::Algorithm::sthosvd, 3, 3750, 30, 2048, rates);
  const double hosi3_4096 = modeled_time(model::Algorithm::hosi_dt, 3, 3750, 30, 4096, rates);
  const double st3_4096 = modeled_time(model::Algorithm::sthosvd, 3, 3750, 30, 4096, rates);
  std::printf("  3-way STHOSVD speedup 1->64 cores: %.1fx (paper: 15.2x)\n",
              st3_1 / st3_64);
  std::printf("  3-way STHOSVD speedup 64->2048 cores: %.1fx (paper: 1.3x, "
              "sequential-EVD plateau)\n",
              st3_64 / st3_2048);
  std::printf("  3-way HOSI-DT vs STHOSVD at 4096 cores: %.0fx faster "
              "(paper: 259x)\n",
              st3_4096 / hosi3_4096);
  const double st4_1 = modeled_time(model::Algorithm::sthosvd, 4, 560, 10, 1, rates);
  const double st4_8192 = modeled_time(model::Algorithm::sthosvd, 4, 560, 10, 8192, rates);
  std::printf("  4-way STHOSVD speedup 1->8192 cores: %.0fx (paper: 937x — "
              "no plateau, n=560 EVD is cheap)\n",
              st4_1 / st4_8192);
  const double hosi4 = modeled_time(model::Algorithm::hosi_dt, 4, 560, 10, 8192, rates);
  const double hooidt4 = modeled_time(model::Algorithm::hooi_dt, 4, 560, 10, 8192, rates);
  std::printf("  4-way HOSI-DT vs STHOSVD at 8192: %.1fx; vs HOOI-DT: %.1fx "
              "(paper: 1.5x, 2.9x)\n",
              st4_8192 / hosi4, hooidt4 / hosi4);
  return 0;
}
