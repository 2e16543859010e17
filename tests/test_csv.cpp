#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/contracts.hpp"
#include "test_util.hpp"

namespace rahooi {
namespace {

TEST(CsvTable, RendersHeaderAndRows) {
  CsvTable t({"alg", "p", "time"});
  t.begin_row();
  t.add(std::string("sthosvd"));
  t.add(16);
  t.add(1.25);
  EXPECT_EQ(t.to_string(), "alg,p,time\nsthosvd,16,1.25\n");
}

TEST(CsvTable, EmptyTableIsJustHeader) {
  CsvTable t({"x"});
  EXPECT_EQ(t.to_string(), "x\n");
  EXPECT_EQ(t.rows(), 0u);
}

TEST(CsvTable, RejectsEmptyHeader) {
  EXPECT_THROW(CsvTable({}), precondition_error);
}

TEST(CsvTable, RejectsAddBeforeBeginRow) {
  CsvTable t({"a"});
  EXPECT_THROW(t.add(1.0), precondition_error);
}

TEST(CsvTable, RejectsTooManyColumns) {
  CsvTable t({"a", "b"});
  t.begin_row();
  t.add(1);
  t.add(2);
  EXPECT_THROW(t.add(3), precondition_error);
}

TEST(CsvTable, PrettyAlignsColumns) {
  CsvTable t({"algorithm", "p"});
  t.begin_row();
  t.add(std::string("x"));
  t.add(1);
  const std::string pretty = t.to_pretty();
  EXPECT_NE(pretty.find("algorithm  p"), std::string::npos);
}

TEST(CsvTable, DoubleFormattingIsCompact) {
  CsvTable t({"v"});
  t.begin_row();
  t.add(0.00012345);
  EXPECT_EQ(t.to_string(), "v\n0.00012345\n");
}

TEST(CsvTable, WriteToFileRoundTrips) {
  CsvTable t({"a", "b"});
  t.begin_row();
  t.add(1);
  t.add(2);
  const std::string path = testutil::unique_tmp_path("rahooi_csv_test.csv");
  t.write(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(CsvTable, WriteToBadPathThrows) {
  CsvTable t({"a"});
  EXPECT_THROW(t.write("/nonexistent_dir_zzz/out.csv"), precondition_error);
}

}  // namespace
}  // namespace rahooi
