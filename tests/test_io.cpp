#include "io/param_file.hpp"
#include "io/tensor_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "comm/runtime.hpp"
#include "common/contracts.hpp"
#include "test_util.hpp"

namespace rahooi::io {
namespace {

TEST(ParamFile, ParsesArtifactStyleConfig) {
  const auto pf = ParamFile::parse(R"(
Print options = true
Print timings = true
Dimension Tree Memoization = false
Noise = 0.0001
HOOI-Adapt Threshold = 0.0
HOOI max iters = 2
SVD Method = 0
# 4D grid with 4 processors
Processor grid dims = 1 2 2 1
Global dims = 100 100 100 100
Construction Ranks = 10 10 10 10
Decomposition Ranks = 10 10 10 10
)");
  EXPECT_TRUE(pf.get_bool("Print options", false));
  EXPECT_FALSE(pf.get_bool("Dimension Tree Memoization", true));
  EXPECT_DOUBLE_EQ(pf.get_double("Noise", -1), 0.0001);
  EXPECT_EQ(pf.get_int("HOOI max iters", -1), 2);
  EXPECT_EQ(pf.get_int("SVD Method", -1), 0);
  EXPECT_EQ(pf.get_ints("Processor grid dims"),
            (std::vector<int>{1, 2, 2, 1}));
  EXPECT_EQ(pf.get_dims("Global dims"),
            (std::vector<idx_t>{100, 100, 100, 100}));
}

TEST(ParamFile, CommentsAndBlankLinesIgnored) {
  const auto pf = ParamFile::parse("# full comment\n\n A = 1 # trailing\n");
  EXPECT_EQ(pf.get_int("A", -1), 1);
  EXPECT_EQ(pf.keys().size(), 1u);
}

TEST(ParamFile, MissingKeysUseFallbacks) {
  const auto pf = ParamFile::parse("A = 1\n");
  EXPECT_EQ(pf.get_int("B", 42), 42);
  EXPECT_TRUE(pf.get_bool("C", true));
  EXPECT_DOUBLE_EQ(pf.get_double("D", 2.5), 2.5);
  EXPECT_EQ(pf.get_string("E", "x"), "x");
  EXPECT_TRUE(pf.get_dims("F").empty());
  EXPECT_FALSE(pf.has("B"));
  EXPECT_TRUE(pf.has("A"));
}

TEST(ParamFile, BoolSpellings) {
  const auto pf = ParamFile::parse(
      "A = TRUE\nB = off\nC = Yes\nD = 0\nE = banana\n");
  EXPECT_TRUE(pf.get_bool("A", false));
  EXPECT_FALSE(pf.get_bool("B", true));
  EXPECT_TRUE(pf.get_bool("C", false));
  EXPECT_FALSE(pf.get_bool("D", true));
  EXPECT_THROW(pf.get_bool("E", false), precondition_error);
}

TEST(ParamFile, TypeErrorsThrow) {
  const auto pf = ParamFile::parse("A = 12x\nB = 1 2 three\n");
  EXPECT_THROW(pf.get_int("A", 0), precondition_error);
  EXPECT_THROW(pf.get_dims("B"), precondition_error);
}

TEST(ParamFile, MalformedLineThrows) {
  EXPECT_THROW(ParamFile::parse("no equals sign here\n"), precondition_error);
  EXPECT_THROW(ParamFile::parse("= value\n"), precondition_error);
}

TEST(ParamFile, RoundTripPreservesOrder) {
  const std::string text = "B = 2\nA = 1\nC = x y\n";
  const auto pf = ParamFile::parse(text);
  EXPECT_EQ(pf.to_string(), text);
}

TEST(ParamFile, LoadMissingFileThrows) {
  EXPECT_THROW(ParamFile::load("/nonexistent_zzz.cfg"), precondition_error);
}

TEST(TensorIo, TensorRoundTrip) {
  auto x = testutil::random_tensor<double>({5, 4, 3}, 2024);
  const std::string path = testutil::unique_tmp_path("rahooi_t.bin");
  write_tensor(x, path);
  auto y = read_tensor<double>(path);
  ASSERT_EQ(y.dims(), x.dims());
  for (idx_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  std::remove(path.c_str());
}

TEST(TensorIo, FloatTensorRoundTrip) {
  auto x = testutil::random_tensor<float>({6, 2}, 2025);
  const std::string path = testutil::unique_tmp_path("rahooi_tf.bin");
  write_tensor(x, path);
  auto y = read_tensor<float>(path);
  for (idx_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  std::remove(path.c_str());
}

TEST(TensorIo, ElementTypeMismatchDetected) {
  auto x = testutil::random_tensor<float>({4, 4}, 2026);
  const std::string path = testutil::unique_tmp_path("rahooi_tm.bin");
  write_tensor(x, path);
  EXPECT_THROW(read_tensor<double>(path), precondition_error);
  std::remove(path.c_str());
}

TEST(TensorIo, TuckerRoundTrip) {
  tensor::TuckerTensor<double> t;
  t.core = testutil::random_tensor<double>({2, 3, 2}, 2027);
  t.factors.push_back(testutil::random_matrix<double>(7, 2, 2028));
  t.factors.push_back(testutil::random_matrix<double>(6, 3, 2029));
  t.factors.push_back(testutil::random_matrix<double>(5, 2, 2030));
  const std::string path = testutil::unique_tmp_path("rahooi_k.bin");
  write_tucker(t, path);
  auto u = read_tucker<double>(path);
  ASSERT_EQ(u.ranks(), t.ranks());
  ASSERT_EQ(u.full_dims(), t.full_dims());
  for (idx_t i = 0; i < t.core.size(); ++i) EXPECT_EQ(u.core[i], t.core[i]);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(la::max_abs_diff<double>(u.factors[j], t.factors[j]), 0.0);
  }
  std::remove(path.c_str());
}

TEST(TensorIo, GarbageFileRejected) {
  const std::string path = testutil::unique_tmp_path("rahooi_g.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a tensor";
  }
  EXPECT_THROW(read_tensor<double>(path), precondition_error);
  EXPECT_THROW(read_tucker<double>(path), precondition_error);
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(read_tensor<double>("/nonexistent_zzz.bin"),
               precondition_error);
}

TEST(TensorIo, DistReadMatchesSerialRead) {
  auto x = testutil::random_tensor<double>({8, 6, 5}, 2040);
  const std::string path = testutil::unique_tmp_path("rahooi_dr.bin");
  write_tensor(x, path);
  for (const std::vector<int>& gdims :
       {std::vector<int>{2, 2, 1}, {1, 1, 4}, {4, 1, 1}}) {
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, gdims);
      auto xd = read_dist_tensor<double>(grid, x.dims(), path);
      auto full = xd.allgather_full();
      for (idx_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(full[i], x[i]);
      }
    });
  }
  std::remove(path.c_str());
}

TEST(TensorIo, DistWriteMatchesSerialWrite) {
  auto x = testutil::random_tensor<float>({7, 5, 6}, 2041);
  const std::string serial_path = testutil::unique_tmp_path("rahooi_dw_s.bin");
  const std::string dist_path = testutil::unique_tmp_path("rahooi_dw_d.bin");
  write_tensor(x, serial_path);
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 1, 2});
    auto xd = dist::DistTensor<float>::generate(
        grid, x.dims(),
        [&x](const std::vector<idx_t>& g) { return x.at(g); });
    write_dist_tensor(xd, dist_path);
  });
  // Byte-identical files.
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(slurp(serial_path), slurp(dist_path));
  std::remove(serial_path.c_str());
  std::remove(dist_path.c_str());
}

TEST(TensorIo, DistRoundTripFourWay) {
  comm::Runtime::run(8, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 2, 2, 2});
    auto x = dist::DistTensor<double>::generate(
        grid, {5, 6, 4, 7}, [](const std::vector<idx_t>& g) {
          return static_cast<double>(g[0] + 10 * g[1] + 100 * g[2] +
                                     1000 * g[3]);
        });
    const std::string path = testutil::unique_tmp_path("rahooi_d4.bin");
    write_dist_tensor(x, path);
    auto y = read_dist_tensor<double>(grid, x.global_dims(), path);
    for (idx_t i = 0; i < x.local().size(); ++i) {
      EXPECT_EQ(y.local()[i], x.local()[i]);
    }
    world.barrier();
    if (world.rank() == 0) std::remove(path.c_str());
  });
}

TEST(TensorIo, DistReadRejectsWrongDims) {
  auto x = testutil::random_tensor<double>({4, 4}, 2042);
  const std::string path = testutil::unique_tmp_path("rahooi_wd.bin");
  write_tensor(x, path);
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1});
    EXPECT_THROW(read_dist_tensor<double>(grid, {4, 5}, path),
                 precondition_error);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rahooi::io
