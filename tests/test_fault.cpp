// Fault-tolerant runtime tests (docs/ROBUSTNESS.md): abort propagation,
// deterministic fault injection, the collective hang watchdog, graceful
// numerical degradation, and checkpoint/restart.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "common/contracts.hpp"

#include "comm/runtime.hpp"
#include "core/checkpoint.hpp"
#include "core/rank_adaptive.hpp"
#include "la/eig.hpp"
#include "test_util.hpp"

namespace rahooi {
namespace {

using testutil::random_tensor;
using testutil::unique_tmp_path;

// ---------------------------------------------------------------------------
// Fault plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesFullSyntax) {
  const fault::Plan plan = fault::Plan::parse(
      "kill:sweep@3#1;transient:allreduce@1*2;delay:barrier=5;"
      "bitflip:allreduce@0#2=62");
  ASSERT_EQ(plan.size(), 4u);

  EXPECT_EQ(plan.rule(0).action, fault::Action::kill);
  EXPECT_EQ(plan.rule(0).op, "sweep");
  EXPECT_EQ(plan.rule(0).rank, 3);
  EXPECT_EQ(plan.rule(0).nth, 1u);
  EXPECT_EQ(plan.rule(0).count, 1u);

  EXPECT_EQ(plan.rule(1).action, fault::Action::transient);
  EXPECT_EQ(plan.rule(1).rank, 1);
  EXPECT_EQ(plan.rule(1).count, 2u);

  EXPECT_EQ(plan.rule(2).action, fault::Action::delay);
  EXPECT_EQ(plan.rule(2).rank, -1);
  EXPECT_DOUBLE_EQ(plan.rule(2).delay_ms, 5.0);

  EXPECT_EQ(plan.rule(3).action, fault::Action::bitflip);
  EXPECT_EQ(plan.rule(3).nth, 2u);
  EXPECT_EQ(plan.rule(3).bit, 62u);

  // '%' aliases '#' so plans can live in driver parameter files, where '#'
  // starts a comment.
  const fault::Plan alias = fault::Plan::parse("kill:sweep@3%1");
  EXPECT_EQ(alias.rule(0).nth, 1u);
  EXPECT_EQ(alias.rule(0).rank, 3);
}

TEST(FaultPlan, RejectsMalformedRules) {
  EXPECT_THROW(fault::Plan::parse("explode:barrier"), precondition_error);
  EXPECT_THROW(fault::Plan::parse("no-colon"), precondition_error);
  EXPECT_THROW(fault::Plan::parse("kill:barrier@"), precondition_error);
}

TEST(FaultPlan, InjectionIsNoOpWithoutInstalledPlan) {
  EXPECT_FALSE(fault::active());
  EXPECT_NO_THROW(fault::inject_point("allreduce", 0));
  double v = 1.0;
  EXPECT_NO_THROW(fault::inject_payload("allreduce", 0, &v, sizeof v));
  EXPECT_DOUBLE_EQ(v, 1.0);
}

// ---------------------------------------------------------------------------
// Transient faults and retry
// ---------------------------------------------------------------------------

TEST(FaultInjection, TransientFaultRetriesAndSucceeds) {
  // Two consecutive transient faults at rank 1's allreduce entry: the
  // default retry budget (4 attempts) absorbs them and the collective
  // result is unaffected.
  fault::Plan plan;
  plan.add({.op = "allreduce", .rank = 1, .nth = 0, .count = 2,
            .action = fault::Action::transient});
  fault::ScopedPlan installed(plan);

  comm::Runtime::run(4, [](comm::Comm& world) {
    double v = world.rank() + 1.0;
    world.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 10.0);
  });
  EXPECT_EQ(plan.fired(0), 2u);
}

TEST(FaultInjection, RetryExhaustionKillsTheRankAndAbortsTheWorld) {
  // A transient burst longer than the retry budget: rank 1's CommError
  // propagates, the world aborts, and the Runtime rethrows the CommError as
  // root cause with a per-rank failure report.
  fault::Plan plan;
  plan.add({.op = "allreduce", .rank = 1, .nth = 0, .count = 100,
            .action = fault::Action::transient});
  plan.set_retry({.max_attempts = 3, .base_delay_ms = 0.01,
                  .multiplier = 2.0});
  fault::ScopedPlan installed(plan);

  std::vector<comm::RankFailure> failures;
  comm::RunOptions opts;
  opts.collective_timeout_s = 0.0;
  opts.failures = &failures;
  EXPECT_THROW(comm::Runtime::run(
                   4,
                   [](comm::Comm& world) {
                     double v = 1.0;
                     world.allreduce_sum(&v, 1);
                   },
                   nullptr, nullptr, opts),
               comm::CommError);
  EXPECT_EQ(plan.fired(0), 3u);  // one per attempt, then exhausted

  ASSERT_EQ(failures.size(), 4u);
  for (const comm::RankFailure& f : failures) {
    EXPECT_EQ(f.root_cause, f.rank == 1);
    if (f.rank != 1) {
      // Peers died of the secondary AbortedError naming the origin.
      EXPECT_NE(f.what.find("origin rank 1"), std::string::npos) << f.what;
    }
  }
}

// ---------------------------------------------------------------------------
// Abort propagation (tentpole part 1)
// ---------------------------------------------------------------------------

TEST(AbortPropagation, InjectedKillReleasesParkedPeers) {
  fault::Plan plan;
  plan.add({.op = "barrier", .rank = 2, .action = fault::Action::kill});
  fault::ScopedPlan installed(plan);

  std::atomic<int> released{0};
  EXPECT_THROW(comm::Runtime::run(4,
                                  [&](comm::Comm& world) {
                                    try {
                                      world.barrier();
                                    } catch (const comm::AbortedError&) {
                                      released.fetch_add(1);
                                      throw;
                                    }
                                  }),
               fault::RankKilledError);
  // All three survivors were woken out of the barrier instead of deadlocking.
  EXPECT_EQ(released.load(), 3);
}

TEST(AbortPropagation, RankThrowingBeforeBarrierReleasesPeers) {
  // Regression for the historical join-deadlock: rank 1 dies *before ever
  // entering* the barrier the other ranks are parked in. Runtime::run must
  // still terminate and rethrow rank 1's error.
  EXPECT_THROW(
      comm::Runtime::run(4,
                         [](comm::Comm& world) {
                           if (world.rank() == 1) {
                             throw std::invalid_argument("early rank death");
                           }
                           world.barrier();
                         }),
      std::invalid_argument);
}

TEST(AbortPropagation, StickyAbortPoisonsLaterCollectives) {
  std::atomic<int> aborted_twice{0};
  EXPECT_THROW(
      comm::Runtime::run(2,
                         [&](comm::Comm& world) {
                           if (world.rank() == 1) {
                             throw std::runtime_error("rank 1 dies");
                           }
                           try {
                             world.barrier();
                           } catch (const comm::AbortedError&) {
                             // The flag is sticky: a later collective on the
                             // same world fails immediately, it cannot hang.
                             EXPECT_THROW(world.barrier(),
                                          comm::AbortedError);
                             aborted_twice.fetch_add(1);
                             throw;
                           }
                         }),
      std::runtime_error);
  EXPECT_EQ(aborted_twice.load(), 1);
}

TEST(AbortPropagation, AbortReachesSplitSubcommunicators) {
  // Rank 3 dies while ranks of the even/odd sub-communicators are parked in
  // a *sub-communicator* collective: the shared world monitor must wake
  // those too.
  std::atomic<int> released{0};
  EXPECT_THROW(
      comm::Runtime::run(4,
                         [&](comm::Comm& world) {
                           comm::Comm sub =
                               world.split(world.rank() % 2, world.rank());
                           if (world.rank() == 3) {
                             throw std::runtime_error("rank 3 dies");
                           }
                           try {
                             double v = 1.0;
                             sub.allreduce_sum(&v, 1);
                             // Ranks 0/2's group is complete; their
                             // allreduce may legitimately finish. A
                             // subsequent world collective must not.
                             world.barrier();
                           } catch (const comm::AbortedError&) {
                             released.fetch_add(1);
                             throw;
                           }
                         }),
      std::runtime_error);
  EXPECT_EQ(released.load(), 3);
}

TEST(AbortPropagation, RecvIsReleasedByAbort) {
  EXPECT_THROW(
      comm::Runtime::run(2,
                         [](comm::Comm& world) {
                           if (world.rank() == 1) {
                             throw std::runtime_error("sender died");
                           }
                           double v = 0.0;
                           world.recv(&v, 1, 1, /*tag=*/0);  // never sent
                         }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hang watchdog (tentpole part 2)
// ---------------------------------------------------------------------------

TEST(Watchdog, FiresOnMismatchedCollectiveSchedule) {
  comm::RunOptions opts;
  opts.collective_timeout_s = 0.2;
  try {
    comm::Runtime::run(
        2,
        [](comm::Comm& world) {
          world.barrier();
          if (world.rank() == 0) world.barrier();  // rank 1 never joins
        },
        nullptr, nullptr, opts);
    FAIL() << "expected TimeoutError";
  } catch (const comm::TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog expired"), std::string::npos) << what;
    EXPECT_NE(what.find("parked in barrier"), std::string::npos) << what;
  }
}

TEST(Watchdog, ReportNamesTheProfSpanPath) {
  // With a Recorder installed per rank, the park report pinpoints the span
  // path each stuck rank was in when it entered the collective.
  comm::RunOptions opts;
  opts.collective_timeout_s = 0.2;
  std::vector<prof::Recorder> traces;
  try {
    comm::Runtime::run(
        2,
        [](comm::Comm& world) {
          prof::TraceSpan span("outer");
          if (world.rank() == 0) world.barrier();  // rank 1 skips it
        },
        nullptr, &traces, opts);
    FAIL() << "expected TimeoutError";
  } catch (const comm::TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("outer"), std::string::npos) << what;
  }
}

TEST(Watchdog, EnvVariableArmsTheWatchdog) {
  ::setenv("RAHOOI_COLLECTIVE_TIMEOUT_MS", "200", 1);
  comm::RunOptions opts;  // collective_timeout_s < 0: defer to env
  EXPECT_THROW(comm::Runtime::run(
                   2,
                   [](comm::Comm& world) {
                     if (world.rank() == 0) world.barrier();
                   },
                   nullptr, nullptr, opts),
               comm::TimeoutError);
  ::unsetenv("RAHOOI_COLLECTIVE_TIMEOUT_MS");
}

TEST(Watchdog, QuietWorldDoesNotFireSpuriously) {
  comm::RunOptions opts;
  opts.collective_timeout_s = 10.0;
  comm::Runtime::run(
      4,
      [](comm::Comm& world) {
        for (int i = 0; i < 20; ++i) {
          double v = 1.0;
          world.allreduce_sum(&v, 1);
          EXPECT_DOUBLE_EQ(v, 4.0);
        }
      },
      nullptr, nullptr, opts);
}

// ---------------------------------------------------------------------------
// Delay and payload corruption
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayInjectsStragglerWithoutChangingResults) {
  fault::Plan plan = fault::Plan::parse("delay:barrier=1*4");
  fault::ScopedPlan installed(plan);
  comm::Runtime::run(4, [](comm::Comm& world) {
    world.barrier();
    double v = 1.0;
    world.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 4.0);
  });
  EXPECT_EQ(plan.fired(0), 4u);
}

TEST(FaultInjection, BitflipCorruptsExactlyTheTargetedRanksPayload) {
  // Pin the flipped bit so the corruption is reproducible: bit 0 of rank
  // 0's allreduce output (the mantissa LSB of element 0).
  fault::Plan plan = fault::Plan::parse("bitflip:allreduce@0#0=0");
  fault::ScopedPlan installed(plan);
  comm::Runtime::run(2, [](comm::Comm& world) {
    double v = 1.0;
    world.allreduce_sum(&v, 1);
    if (world.rank() == 0) {
      EXPECT_NE(v, 2.0);          // corrupted (exact comparison intended)
      EXPECT_NEAR(v, 2.0, 1e-9);  // but only by one mantissa bit
    } else {
      EXPECT_EQ(v, 2.0);  // peers untouched
    }
  });
  EXPECT_EQ(plan.fired(0), 1u);
}

// ---------------------------------------------------------------------------
// Graceful numerical degradation (tentpole part 3b)
// ---------------------------------------------------------------------------

TEST(Degradation, EvdOnNanInputThrowsNumericalError) {
  la::Matrix<double> a(3, 3);
  for (la::idx_t i = 0; i < a.size(); ++i) a.data()[i] = 1.0;
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(la::sym_evd<double>(a.cref()), numerical_error);
}

TEST(Degradation, NonFiniteInputDegradesGracefully) {
  // A NaN in the tensor poisons every LLSV path; the solver must neither
  // throw nor hang, but record the fallbacks and keep the previous factors.
  auto x = random_tensor<double>({6, 5, 4}, 42);
  x[7] = std::numeric_limits<double>::quiet_NaN();
  comm::Runtime::run(1, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {1, 1, 1});
    auto xd = dist::DistTensor<double>::generate(
        grid, x.dims(),
        [&](const std::vector<la::idx_t>& g) { return x.at(g); });
    core::HooiOptions o;
    o.svd_method = core::SvdMethod::subspace_iteration;
    o.max_iters = 2;
    const std::vector<la::idx_t> target{2, 2, 2};
    core::HooiResult<double> res;
    EXPECT_NO_THROW(res = core::hooi(xd, target, o));
    EXPECT_TRUE(res.report.degraded());
    bool kept = false;
    for (const core::SolveEvent& e : res.report.events) {
      if (e.kind == "kept_previous_factor") kept = true;
    }
    EXPECT_TRUE(kept) << res.report.to_string();
    // The factors themselves stay finite — degradation never lets NaNs into
    // the replicated state.
    for (const auto& u : res.decomposition.factors) {
      EXPECT_TRUE(la::all_finite(u));
    }
  });
}

TEST(Degradation, ValidateRejectsBadOptions) {
  core::HooiOptions h;
  h.max_iters = 0;
  EXPECT_THROW(core::validate(h), precondition_error);
  h = {};
  h.convergence_tol = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::validate(h), precondition_error);
  h = {};
  h.collective_timeout_ms = -1.0;
  EXPECT_THROW(core::validate(h), precondition_error);
  h = {};
  EXPECT_NO_THROW(core::validate(h));

  core::RankAdaptiveOptions ra;
  ra.tolerance = 0.0;
  EXPECT_THROW(core::validate(ra), precondition_error);
  ra = {};
  ra.tolerance = std::numeric_limits<double>::infinity();
  EXPECT_THROW(core::validate(ra), precondition_error);
  ra = {};
  ra.growth_factor = 1.0;
  EXPECT_THROW(core::validate(ra), precondition_error);
  ra = {};
  ra.max_iters = -2;
  EXPECT_THROW(core::validate(ra), precondition_error);
  ra = {};
  EXPECT_NO_THROW(core::validate(ra));
}

// ---------------------------------------------------------------------------
// Checkpoint/restart (tentpole part 4)
// ---------------------------------------------------------------------------

core::SweepCheckpoint<double> sample_checkpoint() {
  core::SweepCheckpoint<double> ck;
  ck.sweeps_done = 2;
  ck.seed = 77;
  ck.ranks = {2, 3};
  ck.factors.emplace_back(4, 2);
  ck.factors.emplace_back(5, 3);
  for (auto& u : ck.factors) {
    for (la::idx_t i = 0; i < u.size(); ++i) {
      u.data()[i] = 0.25 * static_cast<double>(i) - 1.0;
    }
  }
  ck.error_history = {0.5, 0.25};
  return ck;
}

TEST(Checkpoint, RoundTripsExactly) {
  const std::string path = unique_tmp_path("rahooi_ck_roundtrip.bin");
  const auto ck = sample_checkpoint();
  core::save_checkpoint(path, ck);
  const auto back = core::load_checkpoint<double>(path);

  EXPECT_EQ(back.sweeps_done, ck.sweeps_done);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.ranks, ck.ranks);
  EXPECT_EQ(back.error_history, ck.error_history);
  ASSERT_EQ(back.factors.size(), ck.factors.size());
  for (std::size_t j = 0; j < ck.factors.size(); ++j) {
    ASSERT_EQ(back.factors[j].rows(), ck.factors[j].rows());
    ASSERT_EQ(back.factors[j].cols(), ck.factors[j].cols());
    for (la::idx_t i = 0; i < ck.factors[j].size(); ++i) {
      EXPECT_EQ(back.factors[j].data()[i], ck.factors[j].data()[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, DetectsCorruptionAndTruncation) {
  const std::string path = unique_tmp_path("rahooi_ck_corrupt.bin");
  core::save_checkpoint(path, sample_checkpoint());

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(40);
    f.write(&b, 1);
  }
  EXPECT_THROW(core::load_checkpoint<double>(path), core::checkpoint_error);

  // Truncated file.
  core::save_checkpoint(path, sample_checkpoint());
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>{});
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(core::load_checkpoint<double>(path), core::checkpoint_error);

  // Wrong element type.
  core::save_checkpoint(path, sample_checkpoint());
  EXPECT_THROW(core::load_checkpoint<float>(path), core::checkpoint_error);

  // Missing file.
  std::remove(path.c_str());
  EXPECT_THROW(core::load_checkpoint<double>(path), core::checkpoint_error);
}

TEST(Checkpoint, KilledRunRestoresToTheUninterruptedResult) {
  // The acceptance test of the issue: solve, kill rank 3 at the start of
  // sweep 1 via injected rank death, restore from the sweep-0 checkpoint,
  // and verify the restored run reproduces the uninterrupted solve exactly
  // (counter-based RNG + canonical-order reductions make sweeps bitwise
  // deterministic).
  const std::string ck_path = unique_tmp_path("rahooi_ck_restart.bin");
  auto x = random_tensor<double>({8, 7, 6}, 321);

  core::HooiOptions o;
  o.svd_method = core::SvdMethod::subspace_iteration;  // HOSI-DT
  o.use_dimension_tree = true;
  o.max_iters = 3;
  o.seed = 9;

  // NB: DistTensor keeps a pointer to its grid, so the grid must outlive it.
  const auto distribute = [&x](const dist::ProcessorGrid& grid) {
    return dist::DistTensor<double>::generate(
        grid, x.dims(),
        [&x](const std::vector<la::idx_t>& g) { return x.at(g); });
  };

  // Reference: uninterrupted solve.
  tensor::Tensor<double> clean_core;
  std::vector<double> clean_history;
  int clean_iterations = 0;
  comm::Runtime::run(4, [&](comm::Comm& world) {
    dist::ProcessorGrid grid(world, {2, 2, 1});
    auto xd = distribute(grid);
    auto res = core::hooi(xd, {3, 3, 3}, o);
    auto full = res.decomposition.core.allgather_full();
    if (world.rank() == 0) {  // results are replicated; one writer suffices
      clean_history = res.error_history;
      clean_iterations = res.iterations;
      clean_core = std::move(full);
    }
  });

  // Interrupted solve: checkpoint every sweep, rank 3 dies entering its
  // second sweep.
  {
    core::HooiOptions ck_opts = o;
    ck_opts.checkpoint_path = ck_path;
    fault::Plan plan = fault::Plan::parse("kill:sweep@3#1");
    fault::ScopedPlan installed(plan);
    EXPECT_THROW(comm::Runtime::run(4,
                                    [&](comm::Comm& world) {
                                      dist::ProcessorGrid grid(world,
                                                               {2, 2, 1});
                                      auto xd = distribute(grid);
                                      (void)core::hooi(xd, {3, 3, 3},
                                                       ck_opts);
                                    }),
                 fault::RankKilledError);
    EXPECT_EQ(plan.fired(0), 1u);
  }

  // Restore and finish.
  {
    core::HooiOptions restore_opts = o;
    restore_opts.restore_path = ck_path;
    comm::Runtime::run(4, [&](comm::Comm& world) {
      dist::ProcessorGrid grid(world, {2, 2, 1});
      auto xd = distribute(grid);
      auto res = core::hooi(xd, {3, 3, 3}, restore_opts);
      EXPECT_EQ(res.iterations, clean_iterations);
      ASSERT_EQ(res.error_history.size(), clean_history.size());
      for (std::size_t i = 0; i < clean_history.size(); ++i) {
        EXPECT_DOUBLE_EQ(res.error_history[i], clean_history[i]);
      }
      auto full = res.decomposition.core.allgather_full();
      if (world.rank() == 0) {
        ASSERT_EQ(full.size(), clean_core.size());
        for (la::idx_t i = 0; i < full.size(); ++i) {
          EXPECT_DOUBLE_EQ(full[i], clean_core[i]);
        }
      }
    });
  }
  std::remove(ck_path.c_str());
}

TEST(Checkpoint, RestoreRejectsMismatchedConfiguration) {
  // One case table over both solvers: each checkpointed solve is resumed
  // with one thing changed, and must be rejected by the matching check (the
  // message fragment pins which one fired), or resume to completion.
  const std::string hooi_ck = unique_tmp_path("rahooi_ck_mismatch_hooi.bin");
  const std::string ra_ck = unique_tmp_path("rahooi_ck_mismatch_ra.bin");
  comm::Runtime::run(1, [&](comm::Comm& world) {
    const dist::ProcessorGrid grid3(world, {1, 1, 1});
    const dist::ProcessorGrid grid4(world, {1, 1, 1, 1});
    const auto distribute = [](const dist::ProcessorGrid& grid,
                               const std::vector<la::idx_t>& dims) {
      const auto x = random_tensor<double>(dims, 11);
      return dist::DistTensor<double>::generate(
          grid, x.dims(),
          [&x](const std::vector<la::idx_t>& g) { return x.at(g); });
    };
    const auto xd = distribute(grid3, {6, 5, 4});
    const auto other_dims = distribute(grid3, {7, 5, 4});
    const auto other_order = distribute(grid4, {6, 5, 4, 3});
    const std::vector<la::idx_t> r3{2, 2, 2};
    const std::vector<la::idx_t> r4{2, 2, 2, 2};
    const std::vector<la::idx_t> other_ranks{3, 2, 2};

    core::RankAdaptiveOptions ra;
    ra.tolerance = 0.3;
    ra.max_iters = 2;
    ra.hooi.max_iters = 2;
    ra.hooi.checkpoint_path = hooi_ck;
    (void)core::hooi(xd, r3, ra.hooi);
    ra.hooi.checkpoint_path = ra_ck;
    (void)core::rank_adaptive_hooi(xd, r3, ra);
    ra.hooi.checkpoint_path.clear();

    struct Case {
      const char* name;
      bool adaptive;  ///< restore into rank_adaptive_hooi (else hooi)
      const std::string* checkpoint;
      const dist::DistTensor<double>* x;
      const std::vector<la::idx_t>* ranks;
      std::uint64_t seed;
      int max_iters;
      const char* rejected_for;  ///< message fragment; nullptr = resumes
    };
    const Case cases[] = {
        {"hooi: rank-adaptive checkpoint", false, &ra_ck, &xd, &r3, 1, 4,
         "written by rank_adaptive_hooi"},
        {"hooi: other seed", false, &hooi_ck, &xd, &r3, 999, 4,
         "seed differs"},
        {"hooi: other order", false, &hooi_ck, &other_order, &r4, 1, 4,
         "order differs"},
        {"hooi: other dims", false, &hooi_ck, &other_dims, &r3, 1, 4,
         "dims differ"},
        {"hooi: max_iters reached", false, &hooi_ck, &xd, &r3, 1, 2,
         "already ran max_iters"},
        {"hooi: other ranks", false, &hooi_ck, &xd, &other_ranks, 1, 4,
         "ranks differ"},
        {"hooi: valid resume", false, &hooi_ck, &xd, &r3, 1, 4, nullptr},
        {"ra: fixed-rank checkpoint", true, &hooi_ck, &xd, &r3, 1, 4,
         "written by fixed-rank hooi()"},
        {"ra: other seed", true, &ra_ck, &xd, &r3, 999, 4, "seed differs"},
        {"ra: other order", true, &ra_ck, &other_order, &r4, 1, 4,
         "order differs"},
        {"ra: other dims", true, &ra_ck, &other_dims, &r3, 1, 4,
         "dims differ"},
        {"ra: max_iters reached", true, &ra_ck, &xd, &r3, 1, 2,
         "already ran max_iters"},
        {"ra: valid resume", true, &ra_ck, &xd, &r3, 1, 4, nullptr},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      core::RankAdaptiveOptions o = ra;
      o.max_iters = o.hooi.max_iters = c.max_iters;
      o.hooi.seed = c.seed;
      o.hooi.restore_path = *c.checkpoint;
      // Returns the index of the last completed sweep / iteration.
      const auto resume = [&] {
        return c.adaptive
                   ? core::rank_adaptive_hooi(*c.x, *c.ranks, o)
                         .iterations.back()
                         .index
                   : core::hooi(*c.x, *c.ranks, o.hooi).iterations;
      };
      if (c.rejected_for == nullptr) {
        EXPECT_EQ(resume(), c.max_iters);
        continue;
      }
      try {
        (void)resume();
        ADD_FAILURE() << "restore was accepted";
      } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find(c.rejected_for),
                  std::string::npos)
            << e.what();
      }
    }
  });
  std::remove(hooi_ck.c_str());
  std::remove(ra_ck.c_str());
}

TEST(Checkpoint, PreemptedSolveLeavesAYieldMarkOnEveryRank) {
  // A pre-set yield flag preempts each solver at its first step boundary;
  // every rank's flight timeline must say why the world stopped.
  const auto x = random_tensor<double>({6, 5, 4}, 11);
  const std::atomic<int> yield{1};
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "rank_adaptive_hooi" : "hooi");
    std::vector<comm::RankFailure> failures;
    comm::RunOptions ro;
    ro.failures = &failures;
    EXPECT_THROW(
        comm::Runtime::run(
            2,
            [&](comm::Comm& world) {
              dist::ProcessorGrid grid(world, {2, 1, 1});
              const auto xd = dist::DistTensor<double>::generate(
                  grid, x.dims(),
                  [&x](const std::vector<la::idx_t>& g) { return x.at(g); });
              core::RankAdaptiveOptions o;
              o.hooi.yield_flag = &yield;
              if (adaptive) {
                (void)core::rank_adaptive_hooi(xd, {2, 2, 2}, o);
              } else {
                (void)core::hooi(xd, {2, 2, 2}, o.hooi);
              }
            },
            nullptr, nullptr, ro),
        core::PreemptedError);
    ASSERT_EQ(failures.size(), 2u);
    for (const comm::RankFailure& f : failures) {
      bool yielded = false;
      for (const obs::Record& r : f.flight.records) {
        yielded = yielded || r.kind == obs::RecordKind::yield;
      }
      EXPECT_TRUE(yielded) << "rank " << f.rank;
    }
  }
}

}  // namespace
}  // namespace rahooi
