// Kernel microbenchmarks. Two modes:
//
//   bench_kernels [--quick] [out.json]
//                            — default: times the packed GEMM/SYRK/TTM/Gram
//                              kernels (plus the EVD) against the retained
//                              naive references at representative HOOI
//                              shapes and writes
//                              BENCH_kernels.json:
//                              per-row deterministic "flops" (shape-derived,
//                              diffed by the bench-diff ctest gate) plus
//                              GFLOP/s + speedup (timing-dependent, ignored
//                              by the gate). --quick shrinks the per-row
//                              timing budget for CI.
//   bench_kernels --gbench   — the original google-benchmark suite over the
//                              local building blocks that calibrate the
//                              strong-scaling model, plus the paper's two
//                              head-to-head optimization ablations.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/rng.hpp"
#include "core/hooi.hpp"
#include "data/synthetic.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "tensor/ttm.hpp"

namespace {

using namespace rahooi;
using la::idx_t;

template <typename T>
la::Matrix<T> random_matrix(idx_t rows, idx_t cols, std::uint64_t seed) {
  CounterRng rng(seed);
  la::Matrix<T> m(rows, cols);
  for (idx_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<T>(rng.normal(i));
  }
  return m;
}

template <typename T>
tensor::Tensor<T> random_tensor(const std::vector<idx_t>& dims,
                                std::uint64_t seed) {
  CounterRng rng(seed);
  tensor::Tensor<T> x(dims);
  for (idx_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(rng.normal(i));
  }
  return x;
}

// ===========================================================================
// JSON report mode
// ===========================================================================

/// Per-row timing budget in seconds (--quick shrinks it for CI, where only
/// the deterministic "flops" fields are gated anyway).
double g_time_budget = 0.3;

/// Runs fn repeatedly until ~g_time_budget of wall time accumulates and
/// returns GFLOP/s for the given per-call flop count.
double time_gflops(double flops_per_call, const std::function<void()>& fn) {
  fn();  // warm-up (also first-touch of any scratch)
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  double secs = 0.0;
  do {
    fn();
    ++reps;
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  } while (secs < g_time_budget && reps < 1000000);
  return flops_per_call * reps / secs / 1e9;
}

struct JsonEntry {
  std::string name;
  double flops;  ///< per-call flop count, a pure function of the shape
  double gflops;
  double ref_gflops;
};

/// Seed-structure mode_gram: scalar slab transpose into scratch + per-slab
/// syrk_ref accumulation (the pre-fusion formulation).
template <typename T>
void mode_gram_seed_ref(const tensor::Tensor<T>& x, int mode,
                        la::Matrix<T>& g) {
  const idx_t n = x.dim(mode);
  const idx_t left = x.left_size(mode);
  const idx_t right = x.right_size(mode);
  if (mode == 0) {
    la::ConstMatrixRef<T> xm(x.data(), n, right, n);
    la::syrk_ref(T{1}, xm, T{0}, g.ref());
    return;
  }
  la::Matrix<T> scratch(n, left);
  for (idx_t s = 0; s < right; ++s) {
    auto sl = x.slab(mode, s);
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t l = 0; l < left; ++l) scratch(i, l) = sl(l, i);
    }
    la::syrk_ref(T{1}, scratch.cref(), s == 0 ? T{0} : T{1}, g.ref());
  }
}

/// Seed-structure general-mode TTM: per-slab gemm_ref loop.
template <typename T>
void ttm_seed_ref(const tensor::Tensor<T>& x, int mode,
                  la::ConstMatrixRef<T> u, tensor::Tensor<T>& y) {
  const idx_t right = x.right_size(mode);
  if (mode == 0) {
    const idx_t n = x.dim(mode);
    la::ConstMatrixRef<T> xm(x.data(), n, right, n);
    la::MatrixRef<T> ym{y.data(), u.cols, right, u.cols};
    la::gemm_ref(la::Op::transpose, la::Op::none, T{1}, u, xm, T{0}, ym);
    return;
  }
  for (idx_t s = 0; s < right; ++s) {
    la::gemm_ref(la::Op::none, la::Op::none, T{1}, x.slab(mode, s), u, T{0},
                 y.slab(mode, s));
  }
}

template <typename T>
void bench_gemm_square(idx_t n, const char* tag,
                       std::vector<JsonEntry>& out) {
  auto a = random_matrix<T>(n, n, 1);
  auto b = random_matrix<T>(n, n, 2);
  la::Matrix<T> c(n, n);
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double gf = time_gflops(flops, [&] {
    la::gemm<T>(la::Op::none, la::Op::none, T{1}, a, b, T{0}, c.ref());
  });
  const double ref = time_gflops(flops, [&] {
    la::gemm_ref<T>(la::Op::none, la::Op::none, T{1}, a, b, T{0}, c.ref());
  });
  out.push_back({std::string("gemm_") + tag + "_" + std::to_string(n), flops,
                 gf, ref});
}

template <typename T>
void bench_gemm_ttm_shape(std::vector<JsonEntry>& out, const char* tag) {
  // The dominant STHOSVD/HOOI TTM GEMM: (left x n) * (n x r), small r.
  const idx_t left = 4096, n = 256, r = 16;
  auto a = random_matrix<T>(left, n, 3);
  auto b = random_matrix<T>(n, r, 4);
  la::Matrix<T> c(left, r);
  const double flops = 2.0 * static_cast<double>(left) * n * r;
  const double gf = time_gflops(flops, [&] {
    la::gemm<T>(la::Op::none, la::Op::none, T{1}, a, b, T{0}, c.ref());
  });
  const double ref = time_gflops(flops, [&] {
    la::gemm_ref<T>(la::Op::none, la::Op::none, T{1}, a, b, T{0}, c.ref());
  });
  out.push_back({std::string("gemm_ttm_shape_") + tag, flops, gf, ref});
}

template <typename T>
void bench_syrk(std::vector<JsonEntry>& out, const char* tag) {
  const idx_t n = 256, k = 4096;
  auto a = random_matrix<T>(n, k, 5);
  la::Matrix<T> c(n, n);
  const double flops = static_cast<double>(n) * (n + 1) * k;
  const double gf =
      time_gflops(flops, [&] { la::syrk<T>(T{1}, a, T{0}, c.ref()); });
  const double ref =
      time_gflops(flops, [&] { la::syrk_ref<T>(T{1}, a, T{0}, c.ref()); });
  out.push_back({std::string("syrk_") + tag + "_256x4096", flops, gf, ref});
}

template <typename T>
void bench_mode_gram(int mode, std::vector<JsonEntry>& out, const char* tag) {
  auto x = random_tensor<T>({64, 64, 64}, 10);
  const idx_t n = x.dim(mode);
  la::Matrix<T> g(n, n);
  const double flops =
      static_cast<double>(n + 1) * static_cast<double>(x.size());
  const double gf = time_gflops(flops, [&] {
    auto gm = tensor::mode_gram(x, mode);
    benchmark::DoNotOptimize(gm.data());
  });
  const double ref =
      time_gflops(flops, [&] { mode_gram_seed_ref<T>(x, mode, g); });
  out.push_back({std::string("mode_gram_") + tag + "_64x64x64_mode" +
                     std::to_string(mode),
                 flops, gf, ref});
}

template <typename T>
void bench_ttm(int mode, std::vector<JsonEntry>& out, const char* tag) {
  auto x = random_tensor<T>({64, 64, 64}, 8);
  const idx_t r = 16;
  auto u = random_matrix<T>(x.dim(mode), r, 9);
  std::vector<idx_t> ydims = x.dims();
  ydims[mode] = r;
  tensor::Tensor<T> y(ydims);
  const double flops = 2.0 * static_cast<double>(x.size()) * r;
  const double gf = time_gflops(flops, [&] {
    auto yy = tensor::ttm(x, mode, u.cref(), la::Op::transpose);
    benchmark::DoNotOptimize(yy.data());
  });
  const double ref =
      time_gflops(flops, [&] { ttm_seed_ref<T>(x, mode, u.cref(), y); });
  out.push_back({std::string("ttm_") + tag + "_64x64x64_mode" +
                     std::to_string(mode) + "_r16",
                 flops, gf, ref});
}

/// The dimension tree's root TTMs at the ra-hcci per-rank block (its
/// 160x160x16x160 tensor on a 2x2x1x1 grid): mode 0 and the last mode, at
/// the starting rank 12 and a late-iteration rank 27.
void bench_ttm_root(std::vector<JsonEntry>& out) {
  auto x = random_tensor<double>({80, 80, 16, 160}, 13);
  for (const int mode : {0, 3}) {
    for (const idx_t r : {idx_t{12}, idx_t{27}}) {
      auto u = random_matrix<double>(x.dim(mode), r, 14 + r);
      std::vector<idx_t> ydims = x.dims();
      ydims[mode] = r;
      tensor::Tensor<double> y(ydims);
      const double flops =
          2.0 * static_cast<double>(x.size()) * static_cast<double>(r);
      const double gf = time_gflops(flops, [&] {
        auto yy = tensor::ttm(x, mode, u.cref(), la::Op::transpose);
        benchmark::DoNotOptimize(yy.data());
      });
      const double ref = time_gflops(
          flops, [&] { ttm_seed_ref<double>(x, mode, u.cref(), y); });
      out.push_back({"ttm_d_80x80x16x160_mode" + std::to_string(mode) +
                         "_r" + std::to_string(r),
                     flops, gf, ref});
    }
  }
}

template <typename T>
void bench_contraction(std::vector<JsonEntry>& out, const char* tag) {
  auto y = random_tensor<T>({64, 32, 32}, 11);
  auto u = random_matrix<T>(32, 8, 12);
  auto g = tensor::ttm(y, 1, u.cref(), la::Op::transpose);
  const double flops = 2.0 * static_cast<double>(y.size()) * 8;
  const double gf = time_gflops(flops, [&] {
    auto z = tensor::contract_all_but_one(y, g, 1);
    benchmark::DoNotOptimize(z.data());
  });
  // Seed structure: per-slab transposed gemm_ref accumulation.
  la::Matrix<T> z(y.dim(1), g.dim(1));
  const double ref = time_gflops(flops, [&] {
    const idx_t right = y.right_size(1);
    for (idx_t s = 0; s < right; ++s) {
      la::gemm_ref<T>(la::Op::transpose, la::Op::none, T{1}, y.slab(1, s),
                      g.slab(1, s), s == 0 ? T{0} : T{1}, z.ref());
    }
  });
  out.push_back({std::string("contract_") + tag + "_64x32x32_mode1", flops,
                 gf, ref});
}

/// The replicated Gram+EVD LLSV's sequential EVD at the sthosvd-synth mode
/// size, on a Gram matrix (charged 9 n^3 like SYEV with vectors) against
/// the retained EISPACK TRED2+TQL2 reference.
void bench_sym_evd(std::vector<JsonEntry>& out) {
  const idx_t n = 512;
  auto b = random_matrix<float>(n, 2 * n, 20);
  la::Matrix<float> gram(n, n);
  la::syrk<float>(1.0f, b.cref(), 0.0f, gram.ref());
  const double flops = 9.0 * static_cast<double>(n) * n * n;
  const double gf = time_gflops(flops, [&] {
    auto evd = la::sym_evd<float>(gram.cref());
    benchmark::DoNotOptimize(evd.vectors.data());
  });
  const double ref = time_gflops(flops, [&] {
    auto evd = la::sym_evd_ref<float>(gram.cref());
    benchmark::DoNotOptimize(evd.vectors.data());
  });
  out.push_back({"sym_evd_s_512", flops, gf, ref});
}

int run_json_report(const char* path) {
  std::vector<JsonEntry> entries;
  bench_gemm_square<double>(256, "d", entries);
  bench_gemm_square<float>(256, "s", entries);
  bench_gemm_square<double>(128, "d", entries);
  bench_gemm_ttm_shape<double>(entries, "d");
  bench_syrk<double>(entries, "d");
  bench_syrk<float>(entries, "s");
  for (int mode = 0; mode < 3; ++mode) {
    bench_mode_gram<double>(mode, entries, "d");
  }
  bench_mode_gram<float>(1, entries, "s");
  for (int mode = 0; mode < 3; ++mode) {
    bench_ttm<double>(mode, entries, "d");
  }
  bench_contraction<double>(entries, "d");
  bench_sym_evd(entries);
  // Rows are diffed by position against the committed baseline: new rows
  // go last.
  bench_ttm_root(entries);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"flops\": %.12g, "
                 "\"gflops\": %.3f, "
                 "\"ref_gflops\": %.3f, \"speedup\": %.2f}%s\n",
                 e.name.c_str(), e.flops, e.gflops, e.ref_gflops,
                 e.gflops / e.ref_gflops, i + 1 < entries.size() ? "," : "");
    std::printf("%-36s %8.2f GF/s   ref %7.2f GF/s   %5.2fx\n",
                e.name.c_str(), e.gflops, e.ref_gflops,
                e.gflops / e.ref_gflops);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

// ===========================================================================
// google-benchmark mode (--gbench)
// ===========================================================================

void BM_GemmSquare(benchmark::State& state) {
  const idx_t n = state.range(0);
  auto a = random_matrix<float>(n, n, 1);
  auto b = random_matrix<float>(n, n, 2);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::gemm<float>(la::Op::none, la::Op::none, 1.0f, a, b, 0.0f, c.ref());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_GemmTtmShape(benchmark::State& state) {
  // The dominant TTM GEMM: (left x n) * (n x r) with small r.
  const idx_t left = 4096, n = state.range(0), r = 16;
  auto a = random_matrix<float>(left, n, 3);
  auto b = random_matrix<float>(n, r, 4);
  la::Matrix<float> c(left, r);
  for (auto _ : state) {
    la::gemm<float>(la::Op::none, la::Op::none, 1.0f, a, b, 0.0f, c.ref());
    benchmark::DoNotOptimize(c.data());
  }
}

void BM_Syrk(benchmark::State& state) {
  const idx_t n = state.range(0), k = 4096;
  auto a = random_matrix<float>(n, k, 5);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::syrk<float>(1.0f, a, 0.0f, c.ref());
    benchmark::DoNotOptimize(c.data());
  }
}

void BM_Qrcp(benchmark::State& state) {
  const idx_t n = state.range(0), r = 24;
  auto a = random_matrix<float>(n, r, 6);
  for (auto _ : state) {
    auto q = la::qrcp<float>(a.cref());
    benchmark::DoNotOptimize(q.q.data());
  }
}

void BM_SymEvd(benchmark::State& state) {
  const idx_t n = state.range(0);
  auto a = random_matrix<float>(n, n, 7);
  la::Matrix<float> s(n, n);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t i = 0; i < n; ++i) s(i, j) = 0.5f * (a(i, j) + a(j, i));
  }
  for (auto _ : state) {
    auto evd = la::sym_evd<float>(s.cref());
    benchmark::DoNotOptimize(evd.vectors.data());
  }
}

void BM_TtmMode(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto x = random_tensor<float>({64, 64, 64}, 8);
  auto u = random_matrix<float>(64, 8, 9);
  for (auto _ : state) {
    auto y = tensor::ttm(x, mode, u.cref(), la::Op::transpose);
    benchmark::DoNotOptimize(y.data());
  }
}

void BM_ModeGram(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto x = random_tensor<float>({48, 48, 48}, 10);
  for (auto _ : state) {
    auto g = tensor::mode_gram(x, mode);
    benchmark::DoNotOptimize(g.data());
  }
}

void BM_Contraction(benchmark::State& state) {
  auto y = random_tensor<float>({64, 32, 32}, 11);
  auto u = random_matrix<float>(64, 8, 12);
  auto g = tensor::ttm(y, 0, u.cref(), la::Op::transpose);
  for (auto _ : state) {
    auto z = tensor::contract_all_but_one(y, g, 0);
    benchmark::DoNotOptimize(z.data());
  }
}

void BM_JacobiSvd(benchmark::State& state) {
  const idx_t n = state.range(0);
  auto a = random_matrix<float>(2 * n, n, 13);
  for (auto _ : state) {
    auto s = la::svd_jacobi<float>(a.cref());
    benchmark::DoNotOptimize(s.u.data());
  }
}

// Head-to-head: one full HOOI sweep, direct vs dimension tree (the §3.3
// ablation) and Gram+EVD vs subspace iteration (the §3.4 ablation) on a
// serial grid.
void BM_HooiSweep(benchmark::State& state) {
  const bool tree = state.range(0) != 0;
  const bool si = state.range(1) != 0;
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1, 1});
    auto x = data::synthetic_tucker<float>(grid, {24, 24, 24, 24},
                                           {4, 4, 4, 4}, 1e-4, 14);
    auto factors =
        core::random_factors<float>({24, 24, 24, 24}, {4, 4, 4, 4}, 1);
    core::HooiOptions o;
    o.use_dimension_tree = tree;
    o.svd_method = si ? core::SvdMethod::subspace_iteration
                      : core::SvdMethod::gram_evd;
    for (auto _ : state) {
      auto core_t = core::hooi_sweep(x, factors, {4, 4, 4, 4}, o);
      benchmark::DoNotOptimize(core_t.local().data());
    }
  });
}

void BM_AllreduceSimulated(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const idx_t n = 1 << 16;
  for (auto _ : state) {
    comm::Runtime::run(p, [&](comm::Comm& world) {
      std::vector<float> buf(n, float(world.rank()));
      world.allreduce_sum(buf.data(), n);
      benchmark::DoNotOptimize(buf.data());
    });
  }
}

BENCHMARK(BM_GemmSquare)->Arg(128)->Arg(256);
BENCHMARK(BM_GemmTtmShape)->Arg(128)->Arg(512);
BENCHMARK(BM_Syrk)->Arg(64)->Arg(256);
BENCHMARK(BM_Qrcp)->Arg(256)->Arg(2048);
BENCHMARK(BM_SymEvd)->Arg(64)->Arg(192);
BENCHMARK(BM_TtmMode)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_ModeGram)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Contraction);
BENCHMARK(BM_JacobiSvd)->Arg(32);
BENCHMARK(BM_HooiSweep)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});
BENCHMARK(BM_AllreduceSimulated)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  const char* json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      g_time_budget = 0.02;
    } else if (argv[i][0] != '-') {
      json_path = argv[i];
    }
  }
  if (!gbench) return run_json_report(json_path);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
