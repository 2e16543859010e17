#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "prof/trace.hpp"

namespace rahooi {
namespace {

TEST(Stats, UntrackedCallsAreNoOps) {
  ASSERT_EQ(stats::current(), nullptr);
  stats::add_flops(100);  // must not crash
  stats::add_comm(CollectiveKind::allreduce, 64);
}

TEST(Stats, ScopedInstallAndRestore) {
  Stats s;
  {
    ScopedStats scoped(s);
    EXPECT_EQ(stats::current(), &s);
    stats::add_flops(42);
  }
  EXPECT_EQ(stats::current(), nullptr);
  EXPECT_DOUBLE_EQ(s.total_flops(), 42.0);
}

TEST(Stats, NestedScopesUseInnermost) {
  Stats outer, inner;
  ScopedStats so(outer);
  {
    ScopedStats si(inner);
    stats::add_flops(5);
  }
  stats::add_flops(3);
  EXPECT_DOUBLE_EQ(inner.total_flops(), 5.0);
  EXPECT_DOUBLE_EQ(outer.total_flops(), 3.0);
}

TEST(Stats, FlopsAttributedToActivePhase) {
  Stats s;
  ScopedStats scoped(s);
  {
    prof::TraceSpan p("gram", Phase::gram);
    stats::add_flops(10);
    {
      prof::TraceSpan q("evd", Phase::evd);
      stats::add_flops(20);
    }
    stats::add_flops(1);
  }
  EXPECT_DOUBLE_EQ(s.flops[static_cast<int>(Phase::gram)], 11.0);
  EXPECT_DOUBLE_EQ(s.flops[static_cast<int>(Phase::evd)], 20.0);
}

TEST(Stats, SequentialVsParallelSplit) {
  Stats s;
  ScopedStats scoped(s);
  {
    prof::TraceSpan p("ttm", Phase::ttm);
    stats::add_flops(100);
  }
  {
    prof::TraceSpan p("evd", Phase::evd);
    stats::add_flops(30);
  }
  {
    prof::TraceSpan p("qr", Phase::qr);
    stats::add_flops(7);
  }
  EXPECT_DOUBLE_EQ(s.sequential_flops(), 37.0);
  EXPECT_DOUBLE_EQ(s.parallel_flops(), 100.0);
}

TEST(Stats, CommBytesAndMessagesRecorded) {
  Stats s;
  ScopedStats scoped(s);
  prof::TraceSpan p("ttm", Phase::ttm);
  stats::add_comm(CollectiveKind::reduce_scatter, 1024);
  stats::add_comm(CollectiveKind::reduce_scatter, 512);
  stats::add_comm(CollectiveKind::allgather, 256);
  EXPECT_DOUBLE_EQ(
      s.comm_bytes[static_cast<int>(CollectiveKind::reduce_scatter)], 1536.0);
  EXPECT_EQ(s.messages[static_cast<int>(CollectiveKind::reduce_scatter)], 2u);
  EXPECT_DOUBLE_EQ(s.comm_bytes_by_phase[static_cast<int>(Phase::ttm)],
                   1792.0);
  EXPECT_DOUBLE_EQ(s.total_comm_bytes(), 1792.0);
}

TEST(Stats, PhaseTimerAccumulatesSeconds) {
  Stats s;
  ScopedStats scoped(s);
  {
    prof::TraceSpan t("gram", Phase::gram);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(s.seconds[static_cast<int>(Phase::gram)], 0.0);
  EXPECT_DOUBLE_EQ(s.total_seconds(),
                   s.seconds[static_cast<int>(Phase::gram)]);
}

TEST(Stats, AccumulateOperator) {
  Stats a, b;
  {
    ScopedStats scoped(a);
    prof::TraceSpan p("ttm", Phase::ttm);
    stats::add_flops(10);
    stats::add_comm(CollectiveKind::bcast, 8);
  }
  {
    ScopedStats scoped(b);
    prof::TraceSpan p("ttm", Phase::ttm);
    stats::add_flops(5);
  }
  a += b;
  EXPECT_DOUBLE_EQ(a.total_flops(), 15.0);
  EXPECT_DOUBLE_EQ(a.comm_bytes[static_cast<int>(CollectiveKind::bcast)], 8.0);
}

TEST(Stats, ResetClearsEverything) {
  Stats s;
  {
    ScopedStats scoped(s);
    stats::add_flops(10);
    stats::add_comm(CollectiveKind::alltoall, 99);
  }
  s.reset();
  EXPECT_DOUBLE_EQ(s.total_flops(), 0.0);
  EXPECT_DOUBLE_EQ(s.total_comm_bytes(), 0.0);
}

TEST(Stats, ThreadsHaveIndependentTargets) {
  Stats main_stats;
  ScopedStats scoped(main_stats);
  Stats worker_stats;
  std::thread worker([&] {
    ScopedStats w(worker_stats);
    stats::add_flops(7);
  });
  worker.join();
  stats::add_flops(3);
  EXPECT_DOUBLE_EQ(worker_stats.total_flops(), 7.0);
  EXPECT_DOUBLE_EQ(main_stats.total_flops(), 3.0);
}

TEST(Stats, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::ttm), "ttm");
  EXPECT_STREQ(phase_name(Phase::core_analysis), "core_analysis");
  EXPECT_STREQ(collective_name(CollectiveKind::reduce_scatter),
               "reduce_scatter");
}

}  // namespace
}  // namespace rahooi
