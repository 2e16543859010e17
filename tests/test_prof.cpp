#include "prof/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/stats.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "prof/report.hpp"

namespace rahooi::prof {
namespace {

// ---------------------------------------------------------------------------
// Span nesting and path construction.

TEST(TraceSpan, NestedSpansBuildSlashPathsAndCloseInnermostFirst) {
  Recorder rec(3);
  {
    ScopedRecorder install(rec);
    TraceSpan outer("ra");
    {
      TraceSpan iter("iteration", std::int64_t{2});
      { TraceSpan leaf("gram"); }
      { TraceSpan leaf2("evd"); }
    }
  }
  // Spans close innermost-first, so events appear leaf-before-parent.
  ASSERT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.events()[0].path, "ra/iteration[2]/gram");
  EXPECT_EQ(rec.events()[0].name, "gram");
  EXPECT_EQ(rec.events()[0].depth, 2);
  EXPECT_EQ(rec.events()[1].path, "ra/iteration[2]/evd");
  EXPECT_EQ(rec.events()[2].path, "ra/iteration[2]");
  EXPECT_EQ(rec.events()[2].name, "iteration[2]");
  EXPECT_EQ(rec.events()[2].depth, 1);
  EXPECT_EQ(rec.events()[3].path, "ra");
  EXPECT_EQ(rec.events()[3].depth, 0);
  EXPECT_EQ(rec.rank(), 3);
  // Durations nest: parent spans cover their children.
  EXPECT_GE(rec.events()[2].seconds, rec.events()[0].seconds);
  EXPECT_GE(rec.events()[3].seconds, rec.events()[2].seconds);
}

TEST(TraceSpan, RecorderIsReusableAcrossRootSpans) {
  Recorder rec;
  {
    ScopedRecorder install(rec);
    { TraceSpan a("first"); }
    { TraceSpan b("second"); }
  }
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].path, "first");
  EXPECT_EQ(rec.events()[1].path, "second");
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
}

// ---------------------------------------------------------------------------
// Counter snapshots: spans record deltas of the existing Stats counters.

TEST(TraceSpan, SpanRecordsExactGemmFlopDelta) {
  const la::idx_t m = 8, n = 6, k = 5;
  la::Matrix<double> a(m, k), b(k, n), c(m, n);
  Stats stats;
  Recorder rec;
  ScopedStats track(stats);
  ScopedRecorder install(rec);
  // Flops recorded before the span must not leak into it.
  la::gemm(la::Op::none, la::Op::none, 1.0, a.cref(), b.cref(), 0.0, c.ref());
  {
    TraceSpan span("gemm");
    la::gemm(la::Op::none, la::Op::none, 1.0, a.cref(), b.cref(), 0.0,
             c.ref());
  }
  ASSERT_EQ(rec.events().size(), 1u);
  // la::gemm accounts exactly 2mnk flops.
  EXPECT_DOUBLE_EQ(rec.events()[0].flops, 2.0 * m * n * k);
  EXPECT_DOUBLE_EQ(stats.total_flops(), 2.0 * (2.0 * m * n * k));
}

TEST(TraceSpan, SpanRecordsAllreduceBytesPerRankUnderThreadedRuntime) {
  const int p = 4;
  const la::idx_t n = 100;
  std::vector<Recorder> traces;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        std::vector<double> data(n, world.rank());
        TraceSpan span("reduce_phase");
        world.allreduce_sum(data.data(), n);
      },
      nullptr, &traces);
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(traces[r].rank(), r);
    // Two events per rank: the comm layer's own "allreduce" span nested in
    // ours. Closing order is innermost-first.
    ASSERT_EQ(traces[r].events().size(), 2u);
    EXPECT_EQ(traces[r].events()[0].path, "reduce_phase/allreduce");
    EXPECT_EQ(traces[r].events()[1].path, "reduce_phase");
    // Rabenseifner volume: 2 * bytes * (P-1)/P per rank.
    const double expect = 2.0 * (n * sizeof(double)) * (p - 1) / p;
    const auto& e = traces[r].events()[1];
    EXPECT_DOUBLE_EQ(e.comm_bytes[static_cast<int>(CollectiveKind::allreduce)],
                     expect);
    EXPECT_DOUBLE_EQ(e.total_comm_bytes(), expect);
    EXPECT_EQ(e.messages, 1u);
  }
}

TEST(TraceSpan, RankThreadsRecordIsolatedTraces) {
  const int p = 4;
  std::vector<Recorder> traces;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        // Every rank opens a different number of spans: rank r opens r+1.
        for (int i = 0; i <= world.rank(); ++i) {
          TraceSpan span("work", std::int64_t{i});
        }
      },
      nullptr, &traces);
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(traces[r].events().size(), static_cast<std::size_t>(r + 1));
    for (int i = 0; i <= r; ++i) {
      EXPECT_EQ(traces[r].events()[i].path,
                "work[" + std::to_string(i) + "]");
    }
  }
}

// ---------------------------------------------------------------------------
// Phase tagging: innermost-wins attribution of wall seconds.

TEST(TraceSpan, PhaseTaggedSpansAttributeStatsAndPhaseSeconds) {
  Stats stats;
  Recorder rec;
  {
    ScopedStats track(stats);
    ScopedRecorder install(rec);
    TraceSpan root("algo", Phase::other);
    { TraceSpan t("ttm_work", Phase::ttm); }
    { TraceSpan g("gram_work", Phase::gram); }
  }
  const auto& ps = rec.phase_seconds();
  double phase_sum = 0.0;
  for (const double s : ps) phase_sum += s;
  // The root span is tagged Phase::other, so per-phase self-times must sum
  // to the root span's inclusive wall time (no double counting).
  ASSERT_EQ(rec.events().size(), 3u);
  const double root_wall = rec.events()[2].seconds;
  EXPECT_NEAR(phase_sum, root_wall, 1e-9);
  // Stats::seconds gets the same innermost-wins attribution.
  EXPECT_NEAR(stats.total_seconds(), root_wall, 1e-9);
  EXPECT_GT(ps[static_cast<int>(Phase::ttm)], 0.0);
  EXPECT_GT(ps[static_cast<int>(Phase::gram)], 0.0);
}

TEST(TraceSpan, TaggedSpanKeepsStatsAttributionWithoutRecorder) {
  Stats stats;
  {
    ScopedStats track(stats);
    ASSERT_EQ(recorder(), nullptr);
    TraceSpan t("ttm_work", Phase::ttm);
    stats::add_flops(42.0);
  }
  // No recorder: nothing traced, but phase seconds and flop attribution
  // still work (tagged spans are the only phase-timing site).
  EXPECT_GT(stats.seconds[static_cast<int>(Phase::ttm)], 0.0);
  EXPECT_DOUBLE_EQ(stats.flops[static_cast<int>(Phase::ttm)], 42.0);
}

TEST(TraceSpan, UntaggedSpanWithoutRecorderIsANoOp) {
  Stats stats;
  {
    ScopedStats track(stats);
    ASSERT_EQ(recorder(), nullptr);
    TraceSpan span("comm_leaf");
    TraceSpan indexed("comm_leaf", std::int64_t{7});
  }
  EXPECT_DOUBLE_EQ(stats.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(stats.total_flops(), 0.0);
}

// ---------------------------------------------------------------------------
// Aggregation across ranks (min / mean / max / imbalance per span path).

TraceEvent make_event(const std::string& path, double seconds, double flops,
                      double allreduce_bytes = 0.0) {
  TraceEvent e;
  e.path = path;
  e.name = path.substr(path.rfind('/') + 1);
  e.start = 0.0;
  e.seconds = seconds;
  e.flops = flops;
  e.comm_bytes[static_cast<int>(CollectiveKind::allreduce)] = allreduce_bytes;
  e.messages = allreduce_bytes > 0.0 ? 1 : 0;
  return e;
}

TEST(Aggregate, MinMeanMaxImbalancePerPathAcrossRanks) {
  std::vector<Recorder> ranks(4);
  for (int r = 0; r < 4; ++r) ranks[r].set_rank(r);
  // "hooi/ttm" present on every rank with seconds 1, 2, 3, 6.
  ranks[0].add_event(make_event("hooi/ttm", 1.0, 10.0));
  ranks[1].add_event(make_event("hooi/ttm", 2.0, 10.0));
  ranks[2].add_event(make_event("hooi/ttm", 3.0, 10.0));
  ranks[3].add_event(make_event("hooi/ttm", 6.0, 10.0));
  // Two events on one rank accumulate into that rank's total.
  ranks[0].add_event(make_event("hooi/gram", 1.0, 0.0, 64.0));
  ranks[0].add_event(make_event("hooi/gram", 1.0, 0.0, 64.0));

  const std::vector<SpanStat> stats = aggregate(ranks);
  ASSERT_EQ(stats.size(), 2u);  // sorted by path
  EXPECT_EQ(stats[0].path, "hooi/gram");
  EXPECT_EQ(stats[1].path, "hooi/ttm");

  const SpanStat& ttm = stats[1];
  EXPECT_EQ(ttm.count, 4u);
  EXPECT_EQ(ttm.ranks, 4);
  EXPECT_DOUBLE_EQ(ttm.min_s, 1.0);
  EXPECT_DOUBLE_EQ(ttm.mean_s, 3.0);
  EXPECT_DOUBLE_EQ(ttm.max_s, 6.0);
  EXPECT_DOUBLE_EQ(ttm.imbalance, 2.0);  // max / mean
  EXPECT_DOUBLE_EQ(ttm.flops, 40.0);

  const SpanStat& gram = stats[0];
  EXPECT_EQ(gram.count, 2u);
  EXPECT_EQ(gram.ranks, 1);
  // Ranks that never entered the span contribute 0 to min and mean.
  EXPECT_DOUBLE_EQ(gram.min_s, 0.0);
  EXPECT_DOUBLE_EQ(gram.mean_s, 0.5);
  EXPECT_DOUBLE_EQ(gram.max_s, 2.0);
  EXPECT_DOUBLE_EQ(gram.imbalance, 4.0);
  EXPECT_DOUBLE_EQ(gram.comm_bytes, 128.0);
  EXPECT_EQ(gram.messages, 2u);
}

TEST(Aggregate, CsvGoldenColumnsAndOrder) {
  std::vector<Recorder> ranks(1);
  ranks[0].add_event(make_event("a/b", 0.5, 4.0, 16.0));
  const CsvTable table = aggregate_csv(aggregate(ranks));
  const std::string csv = table.to_string();
  EXPECT_EQ(csv,
            "path,count,ranks,min_s,mean_s,max_s,imbalance,flops,"
            "comm_bytes,messages\n"
            "a/b,1,1,0.5,0.5,0.5,1,4,16,1\n");
}

// ---------------------------------------------------------------------------
// Chrome trace export and validation.

TEST(ChromeTrace, GoldenEventShape) {
  std::vector<Recorder> ranks(2);
  ranks[0].set_rank(0);
  ranks[1].set_rank(1);
  TraceEvent e = make_event("hooi/ttm", 0.25, 8.0);
  e.start = 100.0;
  e.phase = static_cast<int>(Phase::ttm);
  ranks[0].add_event(e);
  TraceEvent f = make_event("hooi", 1.0, 8.0);
  f.start = 100.0;
  ranks[1].add_event(f);

  const std::string json = chrome_trace_json(ranks);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, 2, {"ttm", "hooi"}, &error))
      << error;
  // Events are "X" (complete) with microsecond timestamps relative to the
  // earliest event, one lane ("tid") per rank.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"ttm\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 0\"}"), std::string::npos);
}

TEST(ChromeTrace, ValidatorRejectsBrokenInput) {
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":[", 0, {}, &error));
  EXPECT_FALSE(validate_chrome_trace("{} trailing", 0, {}, &error));
  EXPECT_FALSE(validate_chrome_trace("{\"events\":[]}", 0, {}, &error));
  // Valid JSON but missing the lane for rank 1.
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\":[{\"tid\":0}]}", 2, {}, &error));
  EXPECT_NE(error.find("rank 1"), std::string::npos);
  // Valid JSON but a required span name is absent.
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\":[{\"tid\":0,\"name\":\"a\"}]}", 1, {"missing"},
      &error));
  EXPECT_NE(error.find("missing"), std::string::npos);
}

TEST(ChromeTrace, EscapesSpecialCharactersInNames) {
  std::vector<Recorder> ranks(1);
  ranks[0].add_event(make_event("we\"ird\\name", 0.1, 0.0));
  const std::string json = chrome_trace_json(ranks);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, 1, {}, &error)) << error;
}

// ---------------------------------------------------------------------------
// End-to-end: live spans under the threaded runtime survive aggregation and
// export.

TEST(ChromeTrace, LiveFourRankTraceValidates) {
  const int p = 4;
  std::vector<Recorder> traces;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        TraceSpan root("algo", Phase::other);
        {
          TraceSpan t("step", std::int64_t{0}, Phase::ttm);
          double v = 1.0;
          world.allreduce_sum(&v, 1);
        }
        world.barrier();
      },
      nullptr, &traces);
  const std::string json = chrome_trace_json(traces);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(
      json, p, {"algo", "step[0]", "allreduce", "barrier"}, &error))
      << error;
  // Every rank's phase breakdown sums to its root span's wall time.
  for (const Recorder& r : traces) {
    double phase_sum = 0.0;
    for (const double s : r.phase_seconds()) phase_sum += s;
    const TraceEvent& root_event = r.events().back();
    EXPECT_EQ(root_event.path, "algo");
    EXPECT_NEAR(phase_sum, root_event.seconds, 1e-9);
  }
}

}  // namespace
}  // namespace rahooi::prof
