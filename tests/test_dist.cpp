#include "dist/dist_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "comm/runtime.hpp"
#include "tensor/ttm.hpp"
#include "test_util.hpp"

namespace rahooi::dist {
namespace {

using testutil::random_matrix;
using testutil::random_tensor;

// Deterministic global entry function shared by serial and parallel paths.
template <typename T>
T entry_at(const std::vector<idx_t>& gidx, const std::vector<idx_t>& dims) {
  CounterRng rng(12345);
  idx_t lin = 0, stride = 1;
  for (std::size_t j = 0; j < dims.size(); ++j) {
    lin += gidx[j] * stride;
    stride *= dims[j];
  }
  return static_cast<T>(rng.normal(lin));
}

template <typename T>
tensor::Tensor<T> serial_tensor(const std::vector<idx_t>& dims) {
  tensor::Tensor<T> x(dims);
  std::vector<idx_t> idx(dims.size(), 0);
  for (idx_t lin = 0; lin < x.size(); ++lin) {
    x[lin] = entry_at<T>(idx, dims);
    for (std::size_t j = 0; j < dims.size(); ++j) {
      if (++idx[j] < dims[j]) break;
      idx[j] = 0;
    }
  }
  return x;
}

template <typename T>
DistTensor<T> make_dist(const ProcessorGrid& grid,
                        const std::vector<idx_t>& dims) {
  return DistTensor<T>::generate(grid, dims,
                                 [&dims](const std::vector<idx_t>& g) {
                                   return entry_at<T>(g, dims);
                                 });
}

TEST(BlockDistribution, SizesSumToTotal) {
  for (idx_t m : {1, 5, 16, 17, 100}) {
    for (int p : {1, 2, 3, 7, 16}) {
      idx_t total = 0;
      for (int i = 0; i < p; ++i) total += block_size(m, p, i);
      EXPECT_EQ(total, m) << "m=" << m << " p=" << p;
    }
  }
}

TEST(BlockDistribution, OffsetsAreCumulativeSizes) {
  const idx_t m = 23;
  const int p = 5;
  idx_t running = 0;
  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(block_offset(m, p, i), running);
    running += block_size(m, p, i);
  }
}

TEST(BlockDistribution, BlocksBalancedWithinOne) {
  const idx_t m = 29;
  const int p = 8;
  idx_t lo = m, hi = 0;
  for (int i = 0; i < p; ++i) {
    lo = std::min(lo, block_size(m, p, i));
    hi = std::max(hi, block_size(m, p, i));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(BlockDistribution, OwnerIsConsistentWithOffsets) {
  const idx_t m = 31;
  const int p = 6;
  for (idx_t g = 0; g < m; ++g) {
    const int o = block_owner(m, p, g);
    EXPECT_GE(g, block_offset(m, p, o));
    EXPECT_LT(g, block_offset(m, p, o) + block_size(m, p, o));
  }
}

TEST(ProcessorGrid, CoordsRoundTrip) {
  comm::Runtime::run(8, [](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 2});
    EXPECT_EQ(grid.rank_of(grid.coords_of(world.rank())), world.rank());
    // First grid dimension varies fastest.
    const auto c = grid.coords_of(world.rank());
    EXPECT_EQ(c[0], world.rank() % 2);
    EXPECT_EQ(c[2], world.rank() / 4);
  });
}

TEST(ProcessorGrid, ModeCommsHaveGridDimSize) {
  comm::Runtime::run(12, [](comm::Comm& world) {
    ProcessorGrid grid(world, {3, 2, 2});
    EXPECT_EQ(grid.mode_comm(0).size(), 3);
    EXPECT_EQ(grid.mode_comm(1).size(), 2);
    EXPECT_EQ(grid.mode_comm(2).size(), 2);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(grid.mode_comm(j).rank(), grid.coord(j));
    }
  });
}

TEST(ProcessorGrid, RejectsMismatchedSize) {
  comm::Runtime::run(4, [](comm::Comm& world) {
    EXPECT_THROW(ProcessorGrid(world, {3, 2}), precondition_error);
    // Every rank must throw identically; no collective runs before the
    // size check, so this cannot deadlock.
  });
}

TEST(DistTensor, GenerateMatchesSerialEveryGrid) {
  const std::vector<idx_t> dims = {6, 5, 4};
  const auto serial = serial_tensor<double>(dims);
  for (const std::vector<int>& gdims :
       {std::vector<int>{1, 1, 1}, {2, 1, 1}, {1, 2, 2}, {2, 2, 2},
        {4, 1, 2}}) {
    const int p = gdims[0] * gdims[1] * gdims[2];
    comm::Runtime::run(p, [&](comm::Comm& world) {
      ProcessorGrid grid(world, gdims);
      auto x = make_dist<double>(grid, dims);
      // Every local entry matches the serial tensor at its global index.
      for (int j = 0; j < 3; ++j) {
        EXPECT_EQ(x.local_dim(j),
                  block_size(dims[j], gdims[j], grid.coord(j)));
      }
      auto full = x.allgather_full();
      ASSERT_EQ(full.dims(), dims);
      for (idx_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(full[i], serial[i]);
      }
    });
  }
}

TEST(DistTensor, NormMatchesSerial) {
  const std::vector<idx_t> dims = {7, 6, 5};
  const auto serial = serial_tensor<double>(dims);
  comm::Runtime::run(6, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {3, 2, 1});
    auto x = make_dist<double>(grid, dims);
    EXPECT_NEAR(x.norm_squared(), serial.sum_squares(), 1e-9);
    EXPECT_NEAR(x.norm(), serial.norm(), 1e-10);
  });
}

TEST(DistTensor, LocalOffsetsTileTheGlobalRange) {
  comm::Runtime::run(8, [](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 2});
    DistTensor<double> x(grid, {9, 7, 5});
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(x.local_offset(j),
                block_offset(x.global_dim(j), grid.dim(j), grid.coord(j)));
    }
    // Total of local sizes across ranks equals the global size.
    const double total = grid.world().allreduce_scalar(
        static_cast<double>(x.local().size()));
    EXPECT_DOUBLE_EQ(total, 9.0 * 7 * 5);
  });
}

TEST(DistTensor, WrapRejectsWrongLocalShape) {
  comm::Runtime::run(2, [](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 1});
    tensor::Tensor<double> bad({4, 4});  // wrong block on every rank
    EXPECT_THROW(DistTensor<double>(grid, {5, 3}, std::move(bad)),
                 precondition_error);
  });
}

class DistOpsGrids : public ::testing::TestWithParam<std::vector<int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grids, DistOpsGrids,
    ::testing::Values(std::vector<int>{1, 1, 1}, std::vector<int>{2, 1, 1},
                      std::vector<int>{1, 2, 1}, std::vector<int>{1, 1, 2},
                      std::vector<int>{2, 2, 1}, std::vector<int>{2, 2, 2},
                      std::vector<int>{1, 4, 2}));

TEST_P(DistOpsGrids, TtmMatchesSerialEveryMode) {
  const std::vector<int> gdims = GetParam();
  const std::vector<idx_t> dims = {8, 7, 6};
  const int p = gdims[0] * gdims[1] * gdims[2];
  const auto serial = serial_tensor<double>(dims);
  for (int mode = 0; mode < 3; ++mode) {
    auto u = random_matrix<double>(dims[mode], 3, 900 + mode);
    auto expect = tensor::ttm(serial, mode, u.cref(), la::Op::transpose);
    comm::Runtime::run(p, [&](comm::Comm& world) {
      ProcessorGrid grid(world, gdims);
      auto x = make_dist<double>(grid, dims);
      auto y = dist_ttm(x, mode, u.cref());
      EXPECT_EQ(y.global_dim(mode), 3);
      auto full = y.allgather_full();
      for (idx_t i = 0; i < full.size(); ++i) {
        EXPECT_NEAR(full[i], expect[i], 1e-10);
      }
    });
  }
}

TEST_P(DistOpsGrids, GramMatchesSerialEveryMode) {
  const std::vector<int> gdims = GetParam();
  const std::vector<idx_t> dims = {6, 8, 5};
  const int p = gdims[0] * gdims[1] * gdims[2];
  const auto serial = serial_tensor<double>(dims);
  for (int mode = 0; mode < 3; ++mode) {
    auto expect = tensor::mode_gram(serial, mode);
    comm::Runtime::run(p, [&](comm::Comm& world) {
      ProcessorGrid grid(world, gdims);
      auto x = make_dist<double>(grid, dims);
      auto gram = dist_mode_gram(x, mode);
      EXPECT_LT(la::max_abs_diff<double>(gram, expect), 1e-9);
    });
  }
}

TEST_P(DistOpsGrids, ContractionMatchesSerial) {
  const std::vector<int> gdims = GetParam();
  const std::vector<idx_t> ydims = {8, 6, 5};
  const int p = gdims[0] * gdims[1] * gdims[2];
  const auto yserial = serial_tensor<double>(ydims);
  for (int mode = 0; mode < 3; ++mode) {
    auto u = random_matrix<double>(ydims[mode], 3, 910 + mode);
    // g = y x_mode u^T so shapes match the subspace-iteration use.
    auto gserial = tensor::ttm(yserial, mode, u.cref(), la::Op::transpose);
    auto expect = tensor::contract_all_but_one(yserial, gserial, mode);
    comm::Runtime::run(p, [&](comm::Comm& world) {
      ProcessorGrid grid(world, gdims);
      auto y = make_dist<double>(grid, ydims);
      auto g = dist_ttm(y, mode, u.cref());
      auto z = dist_contract_all_but_one(y, g, mode);
      EXPECT_LT(la::max_abs_diff<double>(z, expect), 1e-9);
    });
  }
}

TEST_P(DistOpsGrids, ChainedTtmsMatchSerialMultiTtm) {
  const std::vector<int> gdims = GetParam();
  const std::vector<idx_t> dims = {7, 6, 8};
  const int p = gdims[0] * gdims[1] * gdims[2];
  const auto serial = serial_tensor<double>(dims);
  std::vector<la::Matrix<double>> us;
  std::vector<la::ConstMatrixRef<double>> refs;
  for (int j = 0; j < 3; ++j) {
    us.push_back(random_matrix<double>(dims[j], 2, 920 + j));
  }
  for (const auto& u : us) refs.push_back(u.cref());
  auto expect = tensor::multi_ttm(serial, refs, {0, 1, 2});
  comm::Runtime::run(p, [&](comm::Comm& world) {
    ProcessorGrid grid(world, gdims);
    auto x = make_dist<double>(grid, dims);
    auto y = dist_ttm(x, 0, us[0].cref());
    y = dist_ttm(y, 1, us[1].cref());
    y = dist_ttm(y, 2, us[2].cref());
    auto full = y.allgather_full();
    for (idx_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], expect[i], 1e-10);
    }
  });
}

TEST(DistOps, RedistributeModePreservesGram) {
  // The redistributed columns partition the unfolding columns, so the sum
  // of local SYRKs equals the serial Gram — checked via dist_mode_gram for
  // an uneven grid where blocks have different sizes.
  const std::vector<idx_t> dims = {9, 5, 7};
  const auto serial = serial_tensor<double>(dims);
  comm::Runtime::run(6, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {3, 1, 2});
    auto x = make_dist<double>(grid, dims);
    for (int mode = 0; mode < 3; ++mode) {
      auto gram = dist_mode_gram(x, mode);
      auto expect = tensor::mode_gram(serial, mode);
      EXPECT_LT(la::max_abs_diff<double>(gram, expect), 1e-9);
    }
  });
}

TEST(DistOps, RedistributeColumnCountsSumToUnfolding) {
  const std::vector<idx_t> dims = {6, 7, 4};
  comm::Runtime::run(4, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 1});
    auto x = make_dist<double>(grid, dims);
    for (int mode = 0; mode < 3; ++mode) {
      auto rows = redistribute_mode(x, mode);
      // One row block per rank along the mode; together they tile all
      // dims[mode] rows of this rank's fiber chunk.
      ASSERT_EQ(static_cast<int>(rows.blocks.size()), grid.dim(mode));
      idx_t next_row = 0;
      for (std::size_t q = 0; q < rows.blocks.size(); ++q) {
        EXPECT_EQ(rows.row_offset[q], next_row);
        EXPECT_EQ(rows.blocks[q].cols, rows.fibers);
        next_row += rows.blocks[q].rows;
      }
      EXPECT_EQ(next_row, dims[mode]);
      const double total = grid.world().allreduce_scalar(
          static_cast<double>(rows.fibers));
      EXPECT_DOUBLE_EQ(total,
                       static_cast<double>(tensor::volume(dims) / dims[mode]));
    }
  });
}

// Differential oracle for the blockwise Gram and contraction: every mode,
// both precisions, grids with 2, 3 and 4 ranks along some mode (uneven
// splits, and ranks whose block is empty because the mode is shorter than
// its grid dimension), against the serial tensor kernels. The recorded
// flops must equal the one-SYRK / one-GEMM count exactly, which is what the
// Table 1 and BENCH_solver accounting rely on.
struct OracleCase {
  std::vector<idx_t> dims;
  std::vector<int> grid;
};

const OracleCase kOracleCases[] = {
    {{9, 5, 7}, {2, 1, 1}},   // pj = 2, uneven in mode 0
    {{6, 7, 5}, {2, 1, 2}},   // two split modes
    {{7, 8, 5}, {1, 3, 1}},   // pj = 3, uneven
    {{10, 6, 9}, {1, 1, 4}},  // pj = 4, uneven, last mode
    {{5, 6, 4}, {2, 2, 1}},
    {{2, 7, 6}, {3, 1, 1}},   // mode 0 shorter than pj: one empty block
    {{6, 3, 5}, {1, 4, 1}},   // mode 1 shorter than pj: one empty block
};

template <typename T>
class DistOracleTyped : public ::testing::Test {};

using OracleScalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(DistOracleTyped, OracleScalars);

template <typename T>
double oracle_tol(const la::Matrix<T>& expect) {
  double scale = 1.0;
  for (idx_t i = 0; i < expect.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(expect.data()[i])));
  }
  return (sizeof(T) == 4 ? 1e-5 : 1e-12) * scale;
}

TYPED_TEST(DistOracleTyped, GramAndContractionMatchSerialWithExactFlops) {
  using T = TypeParam;
  for (const OracleCase& c : kOracleCases) {
    const int p = c.grid[0] * c.grid[1] * c.grid[2];
    const auto serial = serial_tensor<T>(c.dims);
    const idx_t volume = tensor::volume(c.dims);
    for (int mode = 0; mode < 3; ++mode) {
      const idx_t n = c.dims[mode];
      const idx_t r = std::min<idx_t>(n, 3);
      auto u = random_matrix<T>(n, r, 960 + mode);
      auto gserial = tensor::ttm(serial, mode, u.cref(), la::Op::transpose);
      const auto gram_expect = tensor::mode_gram(serial, mode);
      const auto z_expect =
          tensor::contract_all_but_one(serial, gserial, mode);
      comm::Runtime::run(p, [&](comm::Comm& world) {
        ProcessorGrid grid(world, c.grid);
        auto x = make_dist<T>(grid, c.dims);
        auto g = dist_ttm(x, mode, u.cref());
        Stats gram_stats, z_stats;
        la::Matrix<T> gram, z;
        {
          const ScopedStats scope(gram_stats);
          gram = dist_mode_gram(x, mode);
        }
        {
          const ScopedStats scope(z_stats);
          z = dist_contract_all_but_one(x, g, mode);
        }
        const double fibers =
            static_cast<double>(redistribute_mode(x, mode).fibers);
        EXPECT_EQ(gram_stats.total_flops(),
                  static_cast<double>(n) * static_cast<double>(n + 1) *
                      fibers);
        EXPECT_EQ(z_stats.total_flops(), 2.0 * static_cast<double>(n) *
                                             static_cast<double>(r) * fibers);
        EXPECT_EQ(world.allreduce_scalar(fibers),
                  static_cast<double>(volume / n));
        EXPECT_LT(la::max_abs_diff<T>(gram, gram_expect),
                  oracle_tol(gram_expect))
            << "gram mode " << mode;
        EXPECT_LT(la::max_abs_diff<T>(z, z_expect), oracle_tol(z_expect))
            << "contraction mode " << mode;
      });
    }
  }
}

TEST_P(DistOpsGrids, TsqrRFactorReproducesGram) {
  const std::vector<int> gdims = GetParam();
  const std::vector<idx_t> dims = {7, 6, 5};
  const int p = gdims[0] * gdims[1] * gdims[2];
  const auto serial = serial_tensor<double>(dims);
  for (int mode = 0; mode < 3; ++mode) {
    auto gram_expect = tensor::mode_gram(serial, mode);
    comm::Runtime::run(p, [&](comm::Comm& world) {
      ProcessorGrid grid(world, gdims);
      auto x = make_dist<double>(grid, dims);
      auto r = dist_mode_tsqr_r(x, mode);
      ASSERT_EQ(r.rows(), dims[mode]);
      ASSERT_EQ(r.cols(), dims[mode]);
      // R is upper triangular and R^T R = X_(j) X_(j)^T.
      for (idx_t j = 0; j < r.cols(); ++j) {
        for (idx_t i = j + 1; i < r.rows(); ++i) {
          EXPECT_EQ(r(i, j), 0.0);
        }
      }
      auto rtr = la::matmul<double>(la::Op::transpose, la::Op::none, r, r);
      EXPECT_LT(la::max_abs_diff<double>(rtr, gram_expect), 1e-9)
          << "mode " << mode;
    });
  }
}

TEST(DistOps, TsqrHandlesFewerLocalColumnsThanRows) {
  // Heavily distributed small tensor: per-rank fiber counts drop below the
  // mode dimension, exercising the short-block path of the local stage.
  const std::vector<idx_t> dims = {12, 4, 4};
  const auto serial = serial_tensor<double>(dims);
  auto gram_expect = tensor::mode_gram(serial, 0);
  comm::Runtime::run(8, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {1, 4, 2});
    auto x = make_dist<double>(grid, dims);
    auto r = dist_mode_tsqr_r(x, 0);
    auto rtr = la::matmul<double>(la::Op::transpose, la::Op::none, r, r);
    EXPECT_LT(la::max_abs_diff<double>(rtr, gram_expect), 1e-9);
  });
}

TEST(DistOps, EmptyLocalBlocksAreHandled) {
  // More ranks along a mode than the mode has indices after truncation:
  // some ranks own zero-extent blocks. Every kernel must still agree with
  // the serial result.
  const std::vector<idx_t> dims = {9, 3, 8};  // mode 1 smaller than P_1 = 4
  const auto serial = serial_tensor<double>(dims);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {1, 4, 1});
    auto x = make_dist<double>(grid, dims);
    // Rank coordinates 3 owns a zero-extent block in mode 1.
    if (grid.coord(1) >= 3) {
      EXPECT_EQ(x.local().size(), 0);
    }
    EXPECT_NEAR(x.norm_squared(), serial.sum_squares(), 1e-9);
    auto u = random_matrix<double>(3, 2, 940);
    auto y = dist_ttm(x, 1, u.cref());
    auto expect = tensor::ttm(serial, 1, u.cref(), la::Op::transpose);
    auto full = y.allgather_full();
    for (idx_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], expect[i], 1e-10);
    }
    auto gram = dist_mode_gram(x, 0);
    EXPECT_LT(la::max_abs_diff<double>(gram, tensor::mode_gram(serial, 0)),
              1e-9);
  });
}

TEST(DistOps, RankOneModeEverywhere) {
  // Degenerate rank-1 truncation in every mode: the smallest possible
  // DistTensor pipeline must stay consistent.
  const std::vector<idx_t> dims = {6, 6, 6};
  const auto serial = serial_tensor<double>(dims);
  comm::Runtime::run(8, [&](comm::Comm& world) {
    ProcessorGrid grid(world, {2, 2, 2});
    auto x = make_dist<double>(grid, dims);
    auto y = x;
    for (int mode = 0; mode < 3; ++mode) {
      auto u = random_matrix<double>(y.global_dim(mode), 1, 941 + mode);
      y = dist_ttm(y, mode, u.cref());
    }
    EXPECT_EQ(y.global_dims(), (std::vector<idx_t>{1, 1, 1}));
    tensor::Tensor<double> expect = serial;
    for (int mode = 0; mode < 3; ++mode) {
      auto u = random_matrix<double>(expect.dim(mode), 1, 941 + mode);
      expect = tensor::ttm(expect, mode, u.cref(), la::Op::transpose);
    }
    auto full = y.allgather_full();
    EXPECT_NEAR(full[0], expect[0], 1e-9);
  });
}

TEST(DistOps, TtmCommunicationOnlyAlongModeDimension) {
  // With P_j = 1 in the TTM mode, dist_ttm must be communication-free.
  std::vector<Stats> per_rank;
  const std::vector<idx_t> dims = {6, 6, 6};
  comm::Runtime::run(
      4,
      [&](comm::Comm& world) {
        ProcessorGrid grid(world, {1, 2, 2});
        auto x = make_dist<double>(grid, dims);
        auto u = random_matrix<double>(6, 2, 930);
        world.barrier();
        Stats before = *stats::current();
        auto y = dist_ttm(x, 0, u.cref());
        Stats after = *stats::current();
        EXPECT_DOUBLE_EQ(after.total_comm_bytes(), before.total_comm_bytes());
      },
      &per_rank);
}

// Misuse must fail fast with precondition_error on every rank (identical,
// deterministic message) rather than desynchronizing the world.
TEST(DistMisuse, GridProductMustMatchWorldSize) {
  EXPECT_THROW(comm::Runtime::run(4,
                                  [](comm::Comm& world) {
                                    ProcessorGrid grid(world, {2, 3, 1});
                                  }),
               precondition_error);
}

TEST(DistMisuse, GridRejectsEmptyAndNonPositiveDims) {
  EXPECT_THROW(comm::Runtime::run(2,
                                  [](comm::Comm& world) {
                                    ProcessorGrid grid(world, {});
                                  }),
               precondition_error);
  EXPECT_THROW(comm::Runtime::run(2,
                                  [](comm::Comm& world) {
                                    ProcessorGrid grid(world, {-2, -1});
                                  }),
               precondition_error);
}

TEST(DistMisuse, DistTensorRejectsOrderMismatch) {
  EXPECT_THROW(
      comm::Runtime::run(4,
                         [](comm::Comm& world) {
                           ProcessorGrid grid(world, {2, 2, 1});
                           // 2 global dims for a 3-d grid.
                           auto x = DistTensor<double>::generate(
                               grid, {4, 4},
                               [](const std::vector<idx_t>&) { return 0.0; });
                         }),
      precondition_error);
}

TEST(DistMisuse, DistTtmRejectsBadModeAndShape) {
  const std::vector<idx_t> dims = {4, 4, 4};
  EXPECT_THROW(comm::Runtime::run(1,
                                  [&](comm::Comm& world) {
                                    ProcessorGrid grid(world, {1, 1, 1});
                                    auto x = make_dist<double>(grid, dims);
                                    auto u = random_matrix<double>(4, 2, 7);
                                    (void)dist_ttm(x, 3, u.cref());
                                  }),
               precondition_error);
  EXPECT_THROW(comm::Runtime::run(1,
                                  [&](comm::Comm& world) {
                                    ProcessorGrid grid(world, {1, 1, 1});
                                    auto x = make_dist<double>(grid, dims);
                                    auto u = random_matrix<double>(5, 2, 7);
                                    (void)dist_ttm(x, 0, u.cref());
                                  }),
               precondition_error);
}

}  // namespace
}  // namespace rahooi::dist
