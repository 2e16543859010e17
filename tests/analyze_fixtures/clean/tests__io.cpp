// Clean fixture: a test temp path from unique_tmp_path carries the pid.
#include <gtest/gtest.h>

TEST(Io, WritesBlob) {
  const std::string path = unique_tmp_path("blob.bin");
}
