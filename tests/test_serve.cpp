// Serving-layer tests (docs/SERVING.md): elastic rank planning, admission
// control (priorities, deadlines, load shedding), the result cache, per-job
// fault isolation, and the resilience layer (retry-with-resume, checkpoint
// preemption — docs/ROBUSTNESS.md). Every Scheduler here runs with the
// collective-schedule sanitizer forced on (comm_check = 1), so a job world
// that leaked a rank or diverged its collective schedule would fail loudly.

#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/contracts.hpp"
#include "io/solver_params.hpp"
#include "test_util.hpp"

namespace rahooi {
namespace {

io::ParamFile make_params(const std::string& grid, const std::string& extra) {
  std::string text =
      "Global dims = 16 16 16\n"
      "Construction Ranks = 3 3 3\n"
      "Decomposition Ranks = 3 3 3\n"
      "HOOI max iters = 2\n"
      "Seed = 5\n";
  if (!grid.empty()) text += "Processor grid dims = " + grid + "\n";
  text += extra;
  return io::ParamFile::parse(text);
}

serve::ServeOptions checked_options() {
  serve::ServeOptions o;
  o.pool_ranks = 4;
  o.workers = 2;
  o.comm_check = 1;  // sanitize every job world
  return o;
}

// ---------------------------------------------------------------------------
// Elastic rank planning
// ---------------------------------------------------------------------------

TEST(ServePlan, ExplicitGridIsRespected) {
  const serve::RankPlan plan = serve::plan_ranks(make_params("1 2 2", ""), 8);
  EXPECT_EQ(plan.p, 4);
  EXPECT_FALSE(plan.elastic);
  EXPECT_EQ(plan.grid, (std::vector<int>{1, 2, 2}));
}

TEST(ServePlan, GridBeyondPoolIsRejected) {
  EXPECT_THROW(serve::plan_ranks(make_params("2 2 2", ""), 4),
               precondition_error);
}

TEST(ServePlan, TinyJobStaysSmall) {
  // An 8^3 rank-2 solve gains nothing from extra ranks once the per-rank
  // world-spawn overhead is charged; the planner must keep it at p = 1.
  io::ParamFile params = io::ParamFile::parse(
      "Global dims = 8 8 8\nDecomposition Ranks = 2 2 2\n");
  const serve::RankPlan plan = serve::plan_ranks(params, 8);
  EXPECT_TRUE(plan.elastic);
  EXPECT_EQ(plan.p, 1);
}

TEST(ServePlan, LargeJobScalesOut) {
  io::ParamFile params = io::ParamFile::parse(
      "Global dims = 256 256 256\nDecomposition Ranks = 32 32 32\n");
  const serve::RankPlan plan = serve::plan_ranks(params, 8);
  EXPECT_TRUE(plan.elastic);
  EXPECT_GE(plan.p, 4);
  int product = 1;
  for (const int g : plan.grid) product *= g;
  EXPECT_EQ(product, plan.p);
  EXPECT_EQ(plan.grid.size(), 3u);
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

TEST(ServeFingerprint, IgnoresNonResultKeys) {
  io::ParamFile a = make_params("1 1 2", "");
  io::ParamFile b = make_params("1 1 2", "Serve deadline s = 3\n"
                                         "Metrics file = out.json\n");
  EXPECT_EQ(serve::request_fingerprint(a), serve::request_fingerprint(b));
  io::ParamFile c = make_params("1 1 2", "Seed = 6\n");
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(c));
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServeScheduler, DeadlineMissReportIsWellFormed) {
  serve::ServeOptions opts = checked_options();
  opts.workers = 1;
  opts.start_paused = true;
  serve::Scheduler sched(opts);
  // A long-ish job ahead of a microscopically-deadlined one: by the time
  // the head of line clears, the deadline is long gone.
  const auto blocker = sched.submit(
      {"blocker", make_params("1 1 2", "Global dims = 24 24 24\n"),
       serve::Priority::high, 0.0});
  const auto missed = sched.submit(
      {"missed", make_params("1 1 1", ""), serve::Priority::low, 1e-6});
  sched.start();
  const serve::SolveReport ok = sched.wait(blocker);
  const serve::SolveReport miss = sched.wait(missed);
  EXPECT_EQ(ok.outcome, serve::Outcome::completed);
  ASSERT_EQ(miss.outcome, serve::Outcome::deadline_miss);
  EXPECT_FALSE(miss.ok());
  EXPECT_FALSE(miss.error.empty());
  EXPECT_EQ(miss.result, nullptr);
  EXPECT_EQ(miss.ranks_used, 0);
  EXPECT_GT(miss.total_seconds, 0.0);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_deadline_misses),
            1u);
}

TEST(ServeScheduler, QueueOverflowShedsNewcomer) {
  serve::ServeOptions opts = checked_options();
  opts.max_queue = 1;
  opts.start_paused = true;
  serve::Scheduler sched(opts);
  const auto first = sched.submit({"first", make_params("1 1 1", ""),
                                   serve::Priority::normal, 0.0});
  const auto second = sched.submit({"second", make_params("1 1 1", "Seed = 6\n"),
                                    serve::Priority::normal, 0.0});
  sched.start();
  EXPECT_EQ(sched.wait(first).outcome, serve::Outcome::completed);
  const serve::SolveReport shed = sched.wait(second);
  EXPECT_EQ(shed.outcome, serve::Outcome::shed);
  EXPECT_FALSE(shed.error.empty());
  EXPECT_EQ(shed.result, nullptr);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_shed), 1u);
}

TEST(ServeScheduler, HigherPriorityEvictsQueuedLow) {
  serve::ServeOptions opts = checked_options();
  opts.max_queue = 1;
  opts.start_paused = true;
  serve::Scheduler sched(opts);
  const auto low = sched.submit({"low", make_params("1 1 1", ""),
                                 serve::Priority::low, 0.0});
  const auto high = sched.submit({"high", make_params("1 1 1", "Seed = 6\n"),
                                  serve::Priority::high, 0.0});
  sched.start();
  const serve::SolveReport evicted = sched.wait(low);
  EXPECT_EQ(evicted.outcome, serve::Outcome::shed);
  EXPECT_NE(evicted.error.find("evicted"), std::string::npos);
  EXPECT_EQ(sched.wait(high).outcome, serve::Outcome::completed);
}

TEST(ServeScheduler, PriorityOrdersDispatch) {
  serve::ServeOptions opts = checked_options();
  opts.workers = 1;  // single dispatcher makes completion order = queue order
  opts.start_paused = true;
  serve::Scheduler sched(opts);
  sched.submit({"low-first", make_params("1 1 1", ""), serve::Priority::low,
                0.0});
  sched.submit({"high-second", make_params("1 1 1", "Seed = 6\n"),
                serve::Priority::high, 0.0});
  sched.start();
  sched.drain();
  const auto events = sched.metrics().events();
  ASSERT_EQ(events.size(), 2u);
  // Event sweep is the completion sequence: the high job finished first
  // even though it was submitted second.
  EXPECT_EQ(events[0].sweep, 1);
  EXPECT_NE(events[0].detail.find("high-second"), std::string::npos);
  EXPECT_NE(events[1].detail.find("low-first"), std::string::npos);
}

TEST(ServeScheduler, DeadlinedJobAlwaysCountsAMiss) {
  // A 0.1ms deadline on a multi-ms solve: either dispatch beats the
  // deadline and the job completes with the overrun flag, or (on a loaded
  // machine) dispatch itself is late and the job misses outright. Both
  // paths must count serve_deadline_misses exactly once.
  serve::ServeOptions opts = checked_options();
  serve::Scheduler sched(opts);
  const auto id = sched.submit(
      {"overrun",
       make_params("1 1 2", "Global dims = 32 32 32\nHOOI max iters = 4\n"),
       serve::Priority::normal, 1e-4});
  const serve::SolveReport r = sched.wait(id);
  if (r.outcome == serve::Outcome::completed) {
    EXPECT_TRUE(r.deadline_overrun);
    EXPECT_NE(r.result, nullptr);
  } else {
    EXPECT_EQ(r.outcome, serve::Outcome::deadline_miss);
  }
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_deadline_misses),
            1u);
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ServeScheduler, CacheHitReturnsBitwiseIdenticalFactors) {
  serve::Scheduler sched(checked_options());
  serve::SolveRequest req{"cached", make_params("1 1 2", ""),
                          serve::Priority::normal, 0.0};
  const serve::SolveReport cold = sched.wait(sched.submit(req));
  const serve::SolveReport hit = sched.wait(sched.submit(req));
  ASSERT_EQ(cold.outcome, serve::Outcome::completed);
  ASSERT_EQ(hit.outcome, serve::Outcome::cache_hit);
  // The hit aliases the cached JobResult — same object, hence bitwise
  // identical core and factors by construction.
  ASSERT_NE(hit.result, nullptr);
  EXPECT_EQ(hit.result, cold.result);
  EXPECT_TRUE(hit.result->single);
  EXPECT_EQ(hit.tucker_ranks, cold.tucker_ranks);
  EXPECT_EQ(hit.rel_error, cold.rel_error);
  EXPECT_EQ(hit.fingerprint, cold.fingerprint);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_cache_hits), 1u);
}

TEST(ServeScheduler, CacheCapacityZeroDisablesReuse) {
  serve::ServeOptions opts = checked_options();
  opts.cache_capacity = 0;
  serve::Scheduler sched(opts);
  serve::SolveRequest req{"uncached", make_params("1 1 1", ""),
                          serve::Priority::normal, 0.0};
  EXPECT_EQ(sched.wait(sched.submit(req)).outcome, serve::Outcome::completed);
  EXPECT_EQ(sched.wait(sched.submit(req)).outcome, serve::Outcome::completed);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_cache_hits), 0u);
}

// ---------------------------------------------------------------------------
// Fault isolation and lifecycle
// ---------------------------------------------------------------------------

TEST(ServeScheduler, InjectedFaultIsIsolatedToItsJob) {
  serve::Scheduler sched(checked_options());
  const auto faulty = sched.submit(
      {"faulty", make_params("1 1 2", "Fault plan = kill:sweep@1%0\n"),
       serve::Priority::normal, 0.0});
  const serve::SolveReport bad = sched.wait(faulty);
  EXPECT_EQ(bad.outcome, serve::Outcome::failed);
  EXPECT_NE(bad.error.find("injected rank death"), std::string::npos);
  EXPECT_EQ(bad.result, nullptr);
  // The pool survives the killed world: a subsequent job on the same ranks
  // completes normally (the fault plan died with the faulty job's scope).
  const auto clean = sched.submit({"clean", make_params("1 1 2", "Seed = 6\n"),
                                   serve::Priority::normal, 0.0});
  EXPECT_EQ(sched.wait(clean).outcome, serve::Outcome::completed);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_failed), 1u);
}

// ---------------------------------------------------------------------------
// Removed solver choices: a stale parameter file fails loudly
// ---------------------------------------------------------------------------

TEST(SolverParams, RemovedChoicesFailLoudly) {
  // The randomized and sketched LLSV paths and the sketched warm start were
  // deleted (EXPERIMENTS.md). A request that still names one must be
  // rejected with a message naming it, never solved with another method.
  struct Case {
    const char* extra;
    const char* names;  ///< substring the error must carry; "" = accepted
  };
  const Case cases[] = {
      {"SVD Method = 1\n", "'SVD Method = 1' was removed"},
      {"SVD Method = 3\n", "'SVD Method = 3' was removed"},
      {"SVD Method = 4\n", "'SVD Method = 4' was removed"},
      {"HOOI-Adapt Threshold = 0.1\nRA Init = sketched\n",
       "'RA Init = sketched'"},
      {"Sketch Oversample = 8\n", "'Sketch Oversample' was removed"},
      {"Sketch Min Cols = 16\n", "'Sketch Min Cols' was removed"},
      {"Sketch Growth = 2.0\n", "'Sketch Growth' was removed"},
      {"Sketch Safety = 0.5\n", "'Sketch Safety' was removed"},
      {"Sketch Deterministic = false\n", "'Sketch Deterministic' was removed"},
      {"SVD Method = 0\n", ""},
      {"SVD Method = 2\n", ""},
      {"SVD Method = -1\n", ""},
      {"HOOI-Adapt Threshold = 0.1\nRA Init = random\n", ""},
  };
  for (const Case& c : cases) {
    const io::ParamFile params = make_params("1 1 2", c.extra);
    const auto solve_options = [&] {
      return io::solver_options(params, {16, 16, 16}, {3, 3, 3}, {1, 1, 2});
    };
    if (*c.names == '\0') {
      EXPECT_NO_THROW(solve_options()) << c.extra;
      continue;
    }
    try {
      solve_options();
      ADD_FAILURE() << "accepted a removed choice: " << c.extra;
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
          << e.what();
    }
  }

  // Through the scheduler the same request is a failed job, not a solve.
  serve::Scheduler sched(checked_options());
  const serve::SolveReport bad = sched.wait(sched.submit(
      {"stale", make_params("1 1 2", "SVD Method = 3\n"),
       serve::Priority::normal, 0.0}));
  EXPECT_EQ(bad.outcome, serve::Outcome::failed);
  EXPECT_NE(bad.error.find("'SVD Method = 3' was removed"), std::string::npos)
      << bad.error;
  EXPECT_EQ(bad.result, nullptr);
}

// ---------------------------------------------------------------------------
// Resilience: retry-with-resume and checkpoint preemption
// ---------------------------------------------------------------------------

bool path_exists(const std::string& p) {
  std::ifstream f(p, std::ios::binary);
  return f.good();
}

TEST(ServeResilience, RetryResumesFromCheckpointAndMatchesUninterrupted) {
  const std::string ckpt = testutil::unique_tmp_path("serve_retry_resume.rhk");
  std::remove(ckpt.c_str());
  // The kill fires on the *second* sweep site call (nth = 1), i.e. after
  // the sweep-1 checkpoint is on disk; the plan's rule counters live on the
  // Job, so the retry does not re-fire the rule and resumes past the kill.
  serve::Scheduler sched(checked_options());
  const auto id = sched.submit(
      {"flaky",
       make_params("1 1 1",
                   "HOOI max iters = 4\n"
                   "Fault plan = kill:sweep@0%1\n"
                   "Serve max attempts = 3\n"
                   "Checkpoint file = " + ckpt + "\n"),
       serve::Priority::normal, 0.0});
  const serve::SolveReport r = sched.wait(id);
  ASSERT_EQ(r.outcome, serve::Outcome::completed) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.resumes, 1);
  EXPECT_EQ(r.preemptions, 0);
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_retries), 1u);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_resumes), 1u);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_failed), 0u);
  // The checkpoint only existed to survive the fault: deleted on success.
  EXPECT_FALSE(path_exists(ckpt));

  // The resumed solve must be bitwise identical to an uninterrupted one
  // (counter-based RNG + canonical-order reductions, docs/ROBUSTNESS.md).
  serve::Scheduler ref_sched(checked_options());
  const serve::SolveReport ref = ref_sched.wait(ref_sched.submit(
      {"reference", make_params("1 1 1", "HOOI max iters = 4\n"),
       serve::Priority::normal, 0.0}));
  ASSERT_EQ(ref.outcome, serve::Outcome::completed) << ref.error;
  ASSERT_NE(r.result, nullptr);
  ASSERT_NE(ref.result, nullptr);
  const auto& got = r.result->tucker_f;
  const auto& want = ref.result->tucker_f;
  ASSERT_EQ(got.ranks(), want.ranks());
  for (la::idx_t i = 0; i < want.core.size(); ++i) {
    ASSERT_EQ(got.core.data()[i], want.core.data()[i]) << "core entry " << i;
  }
  for (std::size_t j = 0; j < want.factors.size(); ++j) {
    ASSERT_EQ(got.factors[j].rows(), want.factors[j].rows());
    ASSERT_EQ(got.factors[j].cols(), want.factors[j].cols());
    for (la::idx_t i = 0; i < want.factors[j].size(); ++i) {
      ASSERT_EQ(got.factors[j].data()[i], want.factors[j].data()[i])
          << "factor " << j << " entry " << i;
    }
  }
}

TEST(ServeResilience, RetryBudgetExhaustionReportsFailed) {
  // The rule fires on the first two sweep site calls — both attempts die,
  // and the second failure is terminal (max attempts = 2).
  serve::Scheduler sched(checked_options());
  const auto id = sched.submit(
      {"doomed",
       make_params("1 1 1",
                   "Fault plan = kill:sweep@0*2\n"
                   "Serve max attempts = 2\n"),
       serve::Priority::normal, 0.0});
  const serve::SolveReport r = sched.wait(id);
  EXPECT_EQ(r.outcome, serve::Outcome::failed);
  EXPECT_NE(r.error.find("injected rank death"), std::string::npos);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.resumes, 0);  // the kill predates the first checkpoint
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_retries), 1u);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_failed), 1u);
}

TEST(ServeResilience, DeterministicFailureIsNeverRetried) {
  // A bad request (unknown dataset) fails identically every attempt: the
  // classifier must not burn retries on it.
  serve::Scheduler sched(checked_options());
  const auto id = sched.submit(
      {"bad-request",
       make_params("1 1 1", "Dataset = nonsense\nServe max attempts = 5\n"),
       serve::Priority::normal, 0.0});
  const serve::SolveReport r = sched.wait(id);
  EXPECT_EQ(r.outcome, serve::Outcome::failed);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_retries), 0u);
}

TEST(ServeResilience, HighPriorityArrivalPreemptsCheckpointedLowJob) {
  const std::string ckpt =
      testutil::unique_tmp_path("serve_preempt_victim.rhk");
  std::remove(ckpt.c_str());
  serve::ServeOptions opts = checked_options();
  opts.pool_ranks = 2;  // the victim owns the whole pool while it runs
  serve::Scheduler sched(opts);
  const auto victim = sched.submit(
      {"victim",
       make_params("1 1 2",
                   "Global dims = 24 24 24\n"
                   // Long enough that the victim cannot drain before the
                   // urgent job's preempt request lands, even when a busy
                   // parallel-ctest machine stalls this thread mid-test.
                   "HOOI max iters = 2000\n"
                   "Checkpoint file = " + ckpt + "\n"),
       serve::Priority::low, 0.0});
  // Wait until the victim is demonstrably mid-solve (its first sweep
  // checkpoint exists) before the high-priority job arrives.
  const auto t0 = std::chrono::steady_clock::now();
  while (!path_exists(ckpt)) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
        << "victim never wrote its checkpoint";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto urgent = sched.submit(
      {"urgent", make_params("1 1 1", "Seed = 6\n"), serve::Priority::high,
       0.0});
  const serve::SolveReport hi = sched.wait(urgent);
  const serve::SolveReport lo = sched.wait(victim);
  EXPECT_EQ(hi.outcome, serve::Outcome::completed) << hi.error;
  ASSERT_EQ(lo.outcome, serve::Outcome::completed) << lo.error;
  EXPECT_GE(lo.preemptions, 1);
  EXPECT_GE(lo.resumes, 1);
  EXPECT_EQ(lo.attempts, 1);  // a preemption consumes no retry budget
  EXPECT_GE(sched.metrics().counter(metrics::Counter::serve_preemptions), 1u);
  EXPECT_GE(sched.metrics().counter(metrics::Counter::serve_resumes), 1u);
  EXPECT_EQ(sched.metrics().counter(metrics::Counter::serve_failed), 0u);
}

TEST(ServeScheduler, MalformedRequestFailsAtSubmit) {
  serve::Scheduler sched(checked_options());
  serve::SolveRequest req;
  req.name = "empty";
  req.params = io::ParamFile::parse("HOOI max iters = 1\n");  // no dims
  const serve::SolveReport r = sched.wait(sched.submit(req));
  EXPECT_EQ(r.outcome, serve::Outcome::failed);
  EXPECT_NE(r.error.find("rejected"), std::string::npos);
}

TEST(ServeScheduler, ShutdownShedsQueuedJobsWithoutHanging) {
  serve::ServeOptions opts = checked_options();
  opts.start_paused = true;
  serve::Scheduler sched(opts);
  sched.submit({"never-runs-1", make_params("1 1 1", ""),
                serve::Priority::normal, 0.0});
  sched.submit({"never-runs-2", make_params("1 1 1", "Seed = 6\n"),
                serve::Priority::normal, 0.0});
  // Destructor must shed both queued jobs and join its workers — the test
  // passes by not deadlocking here.
}

TEST(ServeScheduler, DrainReturnsAllReportsInSubmitOrder) {
  serve::Scheduler sched(checked_options());
  sched.submit({"one", make_params("1 1 1", ""), serve::Priority::low, 0.0});
  sched.submit({"two", make_params("1 1 1", "Seed = 6\n"),
                serve::Priority::high, 0.0});
  const auto reports = sched.drain();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "one");
  EXPECT_EQ(reports[1].name, "two");
  for (const auto& r : reports) {
    EXPECT_EQ(r.outcome, serve::Outcome::completed);
  }
}

}  // namespace
}  // namespace rahooi
