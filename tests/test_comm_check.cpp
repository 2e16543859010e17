// Collective-schedule divergence sanitizer (comm/schedule_check.hpp):
// clean schedules must pass with the checker on; a divergent rank must kill
// the world with a ScheduleDivergenceError whose report names the ops, both
// ranks' span paths, and the first mismatching call index.
#include "comm/schedule_check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "comm/runtime.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {
namespace {

RunOptions checked() {
  RunOptions opts;
  opts.comm_check = 1;
  return opts;
}

TEST(CommCheck, CleanScheduleRunsToCompletion) {
  Runtime::run(
      4,
      [](Comm& world) {
        prof::TraceSpan span("clean");
        std::vector<double> v(16, 1.0);
        world.barrier();
        world.allreduce_sum(v.data(), 16);
        EXPECT_DOUBLE_EQ(v[0], 4.0);
        world.bcast(v.data(), 16, 1);
        std::vector<idx_t> counts(4, 4);
        std::vector<double> seg(4, 0.0);
        world.reduce_scatter_sum(v.data(), seg.data(), counts);
        EXPECT_DOUBLE_EQ(world.allreduce_scalar(1.0), 4.0);
      },
      nullptr, nullptr, checked());
}

TEST(CommCheck, DivergentOpIsKilledWithTwoRankReport) {
  std::vector<prof::Recorder> traces;  // install recorders => span paths
  std::string report;
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          prof::TraceSpan span(world.rank() == 2 ? "rogue" : "steady");
          std::vector<double> v(8, 1.0);
          world.allreduce_sum(v.data(), 8);  // call #1: identical everywhere
          if (world.rank() == 2) {
            world.bcast(v.data(), 8, 0);  // call #2: rank 2 diverges
          } else {
            world.allreduce_sum(v.data(), 8);
          }
        },
        nullptr, &traces, checked());
    FAIL() << "divergent schedule was not killed";
  } catch (const ScheduleDivergenceError& e) {
    report = e.what();
  }
  // Names both ops...
  EXPECT_NE(report.find("allreduce"), std::string::npos) << report;
  EXPECT_NE(report.find("bcast"), std::string::npos) << report;
  // ...both ranks' span paths (the user span plus the collective's own
  // span)...
  EXPECT_NE(report.find("steady/allreduce"), std::string::npos) << report;
  EXPECT_NE(report.find("rogue/bcast"), std::string::npos) << report;
  // ...and the first mismatching call index (one matching call precedes).
  EXPECT_NE(report.find("first mismatching call index #2"), std::string::npos)
      << report;
}

TEST(CommCheck, PayloadSizeDivergenceIsKilled) {
  std::string report;
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          std::vector<double> v(8, 1.0);
          world.allreduce_sum(v.data(), world.rank() == 1 ? 4 : 8);
        },
        nullptr, nullptr, checked());
    FAIL() << "byte-count divergence was not killed";
  } catch (const ScheduleDivergenceError& e) {
    report = e.what();
  }
  EXPECT_NE(report.find("bytes=64"), std::string::npos) << report;
  EXPECT_NE(report.find("bytes=32"), std::string::npos) << report;
  EXPECT_NE(report.find("first mismatching call index #1"), std::string::npos)
      << report;
}

TEST(CommCheck, RootDivergenceIsKilled) {
  std::string report;
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          std::vector<double> v(4, 1.0);
          world.bcast(v.data(), 4, world.rank() == 3 ? 1 : 0);
        },
        nullptr, nullptr, checked());
    FAIL() << "root divergence was not killed";
  } catch (const ScheduleDivergenceError& e) {
    report = e.what();
  }
  EXPECT_NE(report.find("root=0"), std::string::npos) << report;
  EXPECT_NE(report.find("root=1"), std::string::npos) << report;
}

TEST(CommCheck, SubCommunicatorsValidateIndependently) {
  // Row/column communicators from split() carry their own checkers; a clean
  // schedule on each must pass even though the sub-schedules differ across
  // the world.
  Runtime::run(
      4,
      [](Comm& world) {
        prof::TraceSpan span("subcomm");
        Comm row = world.split(world.rank() / 2, world.rank() % 2);
        double v = world.rank();
        row.allreduce_sum(&v, 1);
        if (world.rank() < 2) {
          EXPECT_DOUBLE_EQ(v, 1.0);
        } else {
          EXPECT_DOUBLE_EQ(v, 5.0);
        }
      },
      nullptr, nullptr, checked());
}

TEST(CommCheck, OffByDefaultLeavesScheduleUnvalidated) {
  // With the checker off (and no env override), the hash slots never update:
  // a world that runs matching collectives completes without rendezvousing
  // in the checker. (Divergent schedules without the checker deadlock or
  // abort via the watchdog, so only the clean path is testable here.)
  RunOptions opts;
  opts.comm_check = 0;
  Runtime::run(
      4,
      [](Comm& world) {
        double v = 1.0;
        world.allreduce_sum(&v, 1);
        EXPECT_DOUBLE_EQ(v, 4.0);
      },
      nullptr, nullptr, opts);
}

TEST(CommCheck, FingerprintEqualityAndDtypeTags) {
  SchedFingerprint a{CollectiveOp::allreduce, sched_dtype_tag<double>(), -1,
                     64};
  SchedFingerprint b = a;
  EXPECT_EQ(a, b);
  b.bytes = 32;
  EXPECT_NE(a, b);
  EXPECT_NE(sched_dtype_tag<float>(), sched_dtype_tag<double>());
  EXPECT_NE(sched_dtype_tag<std::int32_t>(), sched_dtype_tag<float>());
  EXPECT_EQ(sched_dtype_name(sched_dtype_tag<double>()), "f8");
  EXPECT_EQ(sched_dtype_name(sched_dtype_tag<std::int32_t>()), "i4");
}

}  // namespace
}  // namespace rahooi::comm
