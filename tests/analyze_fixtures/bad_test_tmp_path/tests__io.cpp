// Seeded fixture: a test temp file with a fixed name; the copy of the test
// in the second test binary would race it. Exactly one test-tmp-path
// finding fires.
#include <gtest/gtest.h>

TEST(Io, WritesBlob) {
  const std::string path = testing::TempDir() + "/blob.bin";
}
