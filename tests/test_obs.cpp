// Tests for rahooi::obs (src/obs/): the per-rank flight-recorder ring
// (wrap/drop accounting, lock-free multi-writer snapshots), trace-context
// minting and propagation through comm::Runtime::run into metrics events and
// serve::SolveReport, the merge_trace Chrome-trace join with its validator,
// and the exposition/exporter layer (torn-read framing, atomic publishes) —
// docs/OBSERVABILITY.md "The live plane".

#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/hooi.hpp"
#include "metrics/report.hpp"
#include "obs/exporter.hpp"
#include "obs/merge_trace.hpp"
#include "serve/serve.hpp"
#include "test_util.hpp"

namespace {

using namespace rahooi;
using la::idx_t;
using testutil::random_tensor;

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

TEST(ObsFlightRecorder, SingleWriterWrapAndDrop) {
  obs::FlightRecorder ring(3);
  const std::uint64_t kWrites = obs::FlightRecorder::kCapacity + 71;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ring.record(obs::RecordKind::collective_post, "allreduce", double(i));
  }
  EXPECT_EQ(ring.total(), kWrites);
  EXPECT_EQ(ring.dropped(), kWrites - obs::FlightRecorder::kCapacity);

  // Quiesced snapshot is exact: the last kCapacity records, contiguous.
  const std::vector<obs::Record> records = ring.snapshot();
  ASSERT_EQ(records.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(records.front().seq, ring.dropped());
  EXPECT_EQ(records.back().seq, kWrites - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  EXPECT_DOUBLE_EQ(records.back().bytes, double(kWrites - 1));

  obs::RankTimeline tl = ring.timeline();
  EXPECT_EQ(tl.rank, 3);
  EXPECT_EQ(tl.total, kWrites);
  EXPECT_EQ(tl.dropped, ring.dropped());
  EXPECT_EQ(tl.records.size(), records.size());
}

TEST(ObsFlightRecorder, BelowCapacityNothingDropped) {
  obs::FlightRecorder ring;
  for (int i = 0; i < 40; ++i) {
    ring.record(obs::RecordKind::yield, "sweep");
  }
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<obs::Record> records = ring.snapshot();
  ASSERT_EQ(records.size(), 40u);
  EXPECT_EQ(records.front().seq, 0u);
  EXPECT_EQ(records.back().seq, 39u);
}

TEST(ObsFlightRecorder, OpNamesAreTruncatedNotTorn) {
  obs::FlightRecorder ring;
  const std::string long_op(100, 'x');
  ring.record(obs::RecordKind::span_begin, long_op);
  // Non-NUL-terminated source (a prof span leaf is a string_view into a
  // larger path) must also be safe.
  ring.record(obs::RecordKind::span_end, std::string_view("abcdef", 3));
  const std::vector<obs::Record> records = ring.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(std::string(records[0].op),
            std::string(obs::Record::kOpChars - 1, 'x'));
  EXPECT_EQ(std::string(records[1].op), "abc");
}

TEST(ObsFlightRecorder, MultiWriterCountsExactSnapshotUntorn) {
  obs::FlightRecorder ring;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};

  // A live reader hammers snapshot() while the writers race: every record it
  // copies out must be internally consistent (untorn), never crash.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<obs::Record> live = ring.snapshot();
      for (std::size_t i = 1; i < live.size(); ++i) {
        ASSERT_LT(live[i - 1].seq, live[i].seq);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      const char* ops[kThreads] = {"allreduce", "reduce", "bcast", "barrier"};
      for (int i = 0; i < kPerThread; ++i) {
        ring.record(obs::RecordKind::collective_complete, ops[t], 8.0 * t);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // total() is exact (one fetch_add per record); the quiesced snapshot's
  // seqs are sorted and unique. Contiguity is NOT guaranteed multi-writer —
  // a slow writer can stamp an old seq over a newer slot — only the
  // single-writer case (the real per-rank deployment) promises that.
  EXPECT_EQ(ring.total(), std::uint64_t(kThreads) * kPerThread);
  const std::vector<obs::Record> records = ring.snapshot();
  EXPECT_LE(records.size(), obs::FlightRecorder::kCapacity);
  EXPECT_GE(records.size(), obs::FlightRecorder::kCapacity / 2);
  std::set<std::uint64_t> seqs;
  for (const obs::Record& r : records) {
    EXPECT_TRUE(seqs.insert(r.seq).second) << "duplicate seq " << r.seq;
    EXPECT_LT(r.seq, ring.total());
    const std::string op(r.op);
    EXPECT_TRUE(op == "allreduce" || op == "reduce" || op == "bcast" ||
                op == "barrier")
        << "torn op: '" << op << "'";
  }
}

TEST(ObsFlightRecorder, ScopedInstallAndSuppression) {
  EXPECT_EQ(obs::flight_recorder(), nullptr);
  obs::FlightRecorder ring;
  {
    obs::ScopedFlightRecorder installed(ring);
    EXPECT_EQ(obs::flight_recorder(), &ring);
    {
      obs::ScopedFlightRecorder suppressed(nullptr);
      EXPECT_EQ(obs::flight_recorder(), nullptr);
    }
    EXPECT_EQ(obs::flight_recorder(), &ring);
  }
  EXPECT_EQ(obs::flight_recorder(), nullptr);
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

TEST(ObsTraceContext, MintIsDeterministicNonzeroAndSpreads) {
  const std::uint64_t a = obs::mint_trace_id(1, 1);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, obs::mint_trace_id(1, 1));
  std::set<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(ids.insert(obs::mint_trace_id(i, i)).second);
  }
  // Field order matters: (1, 2) and (2, 1) are different requests.
  EXPECT_NE(obs::mint_trace_id(1, 2), obs::mint_trace_id(2, 1));
}

TEST(ObsTraceContext, ScopedInstallRestores) {
  EXPECT_EQ(obs::trace_id(), 0u);
  {
    obs::ScopedTraceContext outer(42);
    EXPECT_EQ(obs::trace_id(), 42u);
    {
      obs::ScopedTraceContext inner(7);
      EXPECT_EQ(obs::trace_id(), 7u);
    }
    EXPECT_EQ(obs::trace_id(), 42u);
  }
  EXPECT_EQ(obs::trace_id(), 0u);
}

TEST(ObsTraceContext, HexRendering) {
  EXPECT_EQ(obs::trace_id_hex(0), "0");
  EXPECT_EQ(obs::trace_id_hex(255), "ff");
  EXPECT_EQ(obs::trace_id_hex(0x1a2b3c4d5e6f7081ull), "1a2b3c4d5e6f7081");
}

// ---------------------------------------------------------------------------
// Propagation through Runtime::run
// ---------------------------------------------------------------------------

TEST(ObsRuntime, TraceIdReachesEveryRankAndEveryEvent) {
  const std::vector<idx_t> dims{16, 16, 16};
  auto x = random_tensor<double>(dims, 11);

  const std::uint64_t id = obs::mint_trace_id(9, 9);
  const int p = 4;
  std::vector<metrics::Registry> regs;
  std::vector<std::uint64_t> seen(p, 0);
  comm::RunOptions opts;
  opts.rank_metrics = &regs;
  opts.trace_id = id;
  comm::Runtime::run(
      p,
      [&](comm::Comm& world) {
        seen[world.rank()] = obs::trace_id();
        // Every rank thread must also have a live flight recorder.
        ASSERT_NE(obs::flight_recorder(), nullptr);
        dist::ProcessorGrid grid(world, {2, 2, 1});
        auto xd = dist::DistTensor<double>::generate(
            grid, x.dims(),
            [&](const std::vector<idx_t>& g) { return x.at(g); });
        core::HooiOptions o;
        o.max_iters = 2;
        const auto res = core::hooi(xd, std::vector<idx_t>{2, 2, 2}, o);
        EXPECT_EQ(res.report.trace_id, id);
      },
      nullptr, nullptr, opts);

  ASSERT_EQ(regs.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(seen[r], id) << "rank " << r;
    ASSERT_FALSE(regs[r].events().empty()) << "rank " << r;
    for (const metrics::Event& e : regs[r].events()) {
      EXPECT_EQ(e.trace_id, id);
    }
  }
  // The JSONL rendering carries the id in the documented hex form.
  const std::string line = metrics::event_json(regs[0].events().front());
  EXPECT_NE(line.find("\"trace_id\":\"" + obs::trace_id_hex(id) + "\""),
            std::string::npos)
      << line;
}

TEST(ObsServe, TwoJobsGetDistinctIdsJoinedIntoReports) {
  serve::ServeOptions o;
  o.pool_ranks = 4;
  o.workers = 2;
  o.comm_check = 1;
  serve::Scheduler sched(o);
  const auto submit = [&sched](const std::string& name, int seed) {
    std::string text =
        "Global dims = 16 16 16\n"
        "Construction Ranks = 3 3 3\n"
        "Decomposition Ranks = 3 3 3\n"
        "HOOI max iters = 2\n"
        "Seed = " + std::to_string(seed) + "\n"
        "Processor grid dims = 1 1 2\n";
    return sched.submit({name, io::ParamFile::parse(text),
                         serve::Priority::normal, 0.0});
  };
  const auto a = submit("job-a", 5);
  const auto b = submit("job-b", 6);
  const serve::SolveReport ra = sched.wait(a);
  const serve::SolveReport rb = sched.wait(b);
  ASSERT_EQ(ra.outcome, serve::Outcome::completed);
  ASSERT_EQ(rb.outcome, serve::Outcome::completed);

  EXPECT_NE(ra.trace_id, 0u);
  EXPECT_NE(rb.trace_id, 0u);
  EXPECT_NE(ra.trace_id, rb.trace_id);
  // The world-side solver report carries the same id the scheduler minted —
  // serve-level records and rank-level telemetry join on it.
  EXPECT_EQ(ra.solve.trace_id, ra.trace_id);
  EXPECT_EQ(rb.solve.trace_id, rb.trace_id);
  // Completed jobs carry no flight snapshots (failure diagnostics only).
  EXPECT_TRUE(ra.flight.empty());

  // The scheduler's own per-job event stream is stamped with the same ids
  // (finish_locked runs on the dispatcher thread, outside any world, so the
  // stamp is explicit rather than TLS-derived).
  bool saw_a = false, saw_b = false;
  const metrics::Registry snap = sched.metrics();
  for (const metrics::Event& e : snap.events()) {
    if (e.detail.find("job-a") != std::string::npos) {
      EXPECT_EQ(e.trace_id, ra.trace_id);
      saw_a = true;
    }
    if (e.detail.find("job-b") != std::string::npos) {
      EXPECT_EQ(e.trace_id, rb.trace_id);
      saw_b = true;
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

// ---------------------------------------------------------------------------
// merge_trace
// ---------------------------------------------------------------------------

namespace {
obs::RankTimeline synthetic_timeline(int rank, std::uint64_t trace,
                                     double t_base) {
  obs::FlightRecorder ring(rank);
  ring.set_trace_id(trace);
  ring.record(obs::RecordKind::span_begin, "hooi");
  ring.record(obs::RecordKind::collective_post, "allreduce");
  ring.record(obs::RecordKind::collective_complete, "allreduce", 4096.0);
  ring.record(obs::RecordKind::fault_hit, "kill:allreduce");
  obs::RankTimeline tl = ring.timeline();
  for (obs::Record& r : tl.records) r.time += t_base;
  return tl;
}
}  // namespace

TEST(ObsMergeTrace, RoundTripValidates) {
  std::vector<obs::JobTimeline> jobs(2);
  jobs[0].name = "victim";
  jobs[0].trace_id = obs::mint_trace_id(3, 3);
  jobs[0].ranks.push_back(synthetic_timeline(0, jobs[0].trace_id, 0.0));
  jobs[0].ranks.push_back(synthetic_timeline(1, jobs[0].trace_id, 0.0));
  jobs[1].name = "burst \"quoted\"";  // label must survive JSON escaping
  jobs[1].trace_id = obs::mint_trace_id(4, 4);
  jobs[1].ranks.push_back(synthetic_timeline(0, jobs[1].trace_id, 1.0));

  const std::string json = obs::merge_trace(jobs);
  std::string error;
  EXPECT_TRUE(obs::validate_merged_trace(json, jobs, &error)) << error;

  // The collective post/complete pair renders as one complete ("X") event
  // carrying the payload bytes; the fault hit as an instant.
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"allreduce\""),
            std::string::npos);
  EXPECT_NE(json.find("fault_hit:kill:allreduce"), std::string::npos);
  EXPECT_NE(json.find(obs::trace_id_hex(jobs[0].trace_id)),
            std::string::npos);
}

TEST(ObsMergeTrace, RealSendRendersAsOneCompleteEvent) {
  // A send posts and completes its flight records under one op name, so
  // the merged trace pairs them into one "X" event, not two instants.
  std::vector<obs::JobTimeline> jobs(1);
  jobs[0].name = "p2p";
  jobs[0].ranks.resize(2);
  comm::Runtime::run(2, [&](comm::Comm& world) {
    double v = 1.0;
    if (world.rank() == 0) {
      world.send(&v, 1, 1, 7);
    } else {
      world.recv(&v, 1, 0, 7);
    }
    jobs[0].ranks[world.rank()] = obs::flight_recorder()->timeline();
  });
  const std::string json = obs::merge_trace(jobs);
  const std::string send_event = "\"ph\":\"X\",\"name\":\"send\"";
  const std::size_t at = json.find(send_event);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(json.find(send_event, at + 1), std::string::npos) << json;
  EXPECT_EQ(json.find("collective_post:send"), std::string::npos) << json;
}

TEST(ObsMergeTrace, ValidatorCatchesCorruption) {
  std::vector<obs::JobTimeline> jobs(1);
  jobs[0].name = "solo";
  jobs[0].trace_id = obs::mint_trace_id(8, 8);
  jobs[0].ranks.push_back(synthetic_timeline(0, jobs[0].trace_id, 0.0));
  const std::string json = obs::merge_trace(jobs);

  std::string error;
  // Truncation breaks JSON syntax.
  EXPECT_FALSE(obs::validate_merged_trace(
      json.substr(0, json.size() / 2), jobs, &error));
  EXPECT_FALSE(error.empty());
  // A document for the wrong trace id is missing this job's track label.
  std::vector<obs::JobTimeline> other = jobs;
  other[0].trace_id = obs::mint_trace_id(9, 9);
  EXPECT_FALSE(obs::validate_merged_trace(obs::merge_trace(other), jobs,
                                          &error));
  // An empty document has no traceEvents.
  EXPECT_FALSE(obs::validate_merged_trace("{}", jobs, &error));
}

// ---------------------------------------------------------------------------
// Exposition / exporter
// ---------------------------------------------------------------------------

TEST(ObsExposition, NameMappingAndLookup) {
  EXPECT_EQ(obs::exposition_name("serve.queue.depth"), "serve_queue_depth");
  EXPECT_EQ(obs::exposition_name("comm.seconds{op=\"reduce\",stat=\"p95\"}"),
            "comm_seconds{op=\"reduce\",stat=\"p95\"}");

  metrics::Registry reg(0);
  reg.count(metrics::Counter::serve_submitted, 7);
  obs::Status s;
  s.queue_depth = 3;
  s.queued_by_priority = {1, 2, 0};
  s.free_ranks = 2;
  s.pool_ranks = 4;
  const std::string text = obs::exposition_text(reg, s, 12);
  std::string error;
  EXPECT_TRUE(obs::validate_exposition(text, &error)) << error;

  double v = 0.0;
  // Lookup works by raw dotted key and by exposition name alike.
  ASSERT_TRUE(obs::exposition_value(text, "serve_queue_depth", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
  ASSERT_TRUE(obs::exposition_value(text, "serve.queue.depth", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
  ASSERT_TRUE(obs::exposition_value(text, "obs_scrape_seq", &v));
  EXPECT_DOUBLE_EQ(v, 12.0);
  ASSERT_TRUE(obs::exposition_value(
      text, "serve_queue_depth{priority=\"normal\"}", &v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_FALSE(obs::exposition_value(text, "no.such.metric", &v));
}

TEST(ObsExposition, TornReadIsDetected) {
  metrics::Registry reg(0);
  obs::Status s;
  const std::string good = obs::exposition_text(reg, s, 5);
  std::string error;
  ASSERT_TRUE(obs::validate_exposition(good, &error)) << error;

  // Header from scrape 5 with a trailer from scrape 6 — the interleaving a
  // non-atomic reader could see without the tmp+rename discipline.
  std::string torn = good;
  const std::string trailer = "# end rahooi-exposition seq=5";
  const std::size_t at = torn.rfind(trailer);
  ASSERT_NE(at, std::string::npos);
  torn.replace(at, trailer.size(), "# end rahooi-exposition seq=6");
  EXPECT_FALSE(obs::validate_exposition(torn, &error));
  EXPECT_NE(error.find("seq"), std::string::npos) << error;

  // A truncated scrape (no trailer at all) also fails.
  EXPECT_FALSE(obs::validate_exposition(good.substr(0, at), &error));
  // Garbage sample lines fail.
  EXPECT_FALSE(obs::validate_exposition(
      "# rahooi-exposition v1 seq=1\nnot a sample\n"
      "# end rahooi-exposition seq=1\n",
      &error));
}

TEST(ObsExporter, ConcurrentScrapesNeverSeeATornFile) {
  const std::string prom = testutil::unique_tmp_path("obs_exporter_test.prom");
  const std::string table = testutil::unique_tmp_path("obs_exporter_test.txt");
  std::remove(prom.c_str());
  std::remove(table.c_str());

  std::atomic<std::uint64_t> snapshots{0};
  obs::Exporter::Options eo;
  eo.exposition_path = prom;
  eo.status_path = table;
  eo.interval_ms = 1.0;
  {
    obs::Exporter exporter(eo, [&](metrics::Registry* reg,
                                   obs::Status* status) {
      const std::uint64_t n =
          snapshots.fetch_add(1, std::memory_order_acq_rel) + 1;
      reg->count(metrics::Counter::serve_submitted, n);
      status->queue_depth = std::size_t(n);
      status->pool_ranks = 4;
    });

    // Scrape concurrently with the publisher: thanks to write_atomic every
    // successful read must validate — partial files are never visible.
    std::uint64_t reads = 0;
    while (exporter.scrapes() < 20) {
      std::ifstream in(prom);
      if (in.good()) {
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!buf.str().empty()) {
          std::string error;
          ASSERT_TRUE(obs::validate_exposition(buf.str(), &error)) << error;
          ++reads;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_GT(reads, 0u);
    exporter.stop();
    EXPECT_GE(exporter.scrapes(), 20u);

    // stop() publishes one final snapshot: the files end at the terminal
    // state and the frame seq equals the scrape count.
    std::ifstream in(prom);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    ASSERT_TRUE(obs::validate_exposition(buf.str(), &error)) << error;
    double v = 0.0;
    ASSERT_TRUE(obs::exposition_value(buf.str(), "obs_scrape_seq", &v));
    EXPECT_DOUBLE_EQ(v, double(exporter.scrapes()));
    ASSERT_TRUE(obs::exposition_value(
        buf.str(), "counter{name=\"serve_submitted\"}", &v));
    EXPECT_GT(v, 0.0);

    // The human table was published too and names its schema.
    std::ifstream tin(table);
    ASSERT_TRUE(tin.good());
    std::ostringstream tbuf;
    tbuf << tin.rdbuf();
    EXPECT_NE(tbuf.str().find("queue "), std::string::npos);
  }
  std::remove(prom.c_str());
  std::remove(table.c_str());
}

TEST(ObsExporter, StatusTableListsJobs) {
  obs::Status s;
  s.queue_depth = 1;
  s.pool_ranks = 8;
  s.free_ranks = 4;
  obs::JobStatus queued;
  queued.id = 12;
  queued.name = "queued-job";
  queued.trace_id = obs::mint_trace_id(12, 12);
  queued.priority = "high";
  queued.stage = "queued";
  queued.world = 2;
  s.jobs.push_back(queued);
  obs::JobStatus running = queued;
  running.id = 13;
  running.name = "running-job";
  running.stage = "running";
  running.attempts = 2;
  s.jobs.push_back(running);

  const std::string table = obs::status_table(s, 3);
  EXPECT_NE(table.find("queued-job"), std::string::npos);
  EXPECT_NE(table.find("running-job"), std::string::npos);
  EXPECT_NE(table.find(obs::trace_id_hex(queued.trace_id)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Quantiles (the histogram satellite rides the obs plane)
// ---------------------------------------------------------------------------

TEST(ObsQuantiles, BucketWalkBracketsTheTruth) {
  metrics::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) h.record(double(i));
  // Log2 buckets: the estimate lands within the true value's bucket
  // [2^k, 2^(k+1)) and is clamped to [min, max].
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 100.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);    // clamps to observed min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);  // clamps to observed max
}

}  // namespace
