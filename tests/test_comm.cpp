#include "comm/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <string>

#include "comm/runtime.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {
namespace {

TEST(Comm, SingleRankWorldIsTrivial) {
  Runtime::run(1, [](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    EXPECT_EQ(world.size(), 1);
    double v = 3.0;
    world.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 3.0);
  });
}

TEST(Comm, AllreduceMaxTakesElementwiseMaximum) {
  Runtime::run(4, [](Comm& world) {
    double v[2] = {static_cast<double>(world.rank()),
                   -static_cast<double>(world.rank())};
    world.allreduce_max(v, 2);
    EXPECT_DOUBLE_EQ(v[0], 3.0);   // max over ranks 0..3
    EXPECT_DOUBLE_EQ(v[1], 0.0);   // max of {0, -1, -2, -3}
  });
}

TEST(Comm, RanksAreDistinct) {
  std::atomic<int> mask{0};
  Runtime::run(4, [&](Comm& world) {
    mask.fetch_or(1 << world.rank());
    EXPECT_EQ(world.size(), 4);
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0}, after{0};
  Runtime::run(4, [&](Comm& world) {
    before.fetch_add(1);
    world.barrier();
    // All ranks must have incremented before any passes the barrier.
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(Comm, BcastDistributesRootBuffer) {
  Runtime::run(4, [](Comm& world) {
    std::vector<double> data(5, world.rank() == 2 ? 7.0 : 0.0);
    world.bcast(data.data(), 5, 2);
    for (double v : data) EXPECT_DOUBLE_EQ(v, 7.0);
  });
}

TEST(Comm, ReduceSumLandsOnRoot) {
  Runtime::run(3, [](Comm& world) {
    std::vector<int> in(4, world.rank() + 1);  // ranks contribute 1,2,3
    std::vector<int> out(4, -1);
    world.reduce_sum(in.data(), out.data(), 4, 0);
    if (world.rank() == 0) {
      for (int v : out) EXPECT_EQ(v, 6);
    }
  });
}

TEST(Comm, AllreduceSumEveryRankGetsTotal) {
  Runtime::run(5, [](Comm& world) {
    std::vector<double> data(3);
    for (int i = 0; i < 3; ++i) data[i] = world.rank() * 10.0 + i;
    world.allreduce_sum(data.data(), 3);
    // sum over r of (10r + i) = 10*10 + 5i
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(data[i], 100.0 + 5 * i);
  });
}

TEST(Comm, AllreduceScalar) {
  Runtime::run(4, [](Comm& world) {
    const double total = world.allreduce_scalar(world.rank() + 1.0);
    EXPECT_DOUBLE_EQ(total, 10.0);
  });
}

TEST(Comm, ReduceScatterSplitsTheSum) {
  Runtime::run(3, [](Comm& world) {
    // counts: 2, 1, 3 -> total 6
    const std::vector<idx_t> counts = {2, 1, 3};
    std::vector<double> in(6);
    for (int i = 0; i < 6; ++i) in[i] = world.rank() == 0 ? i : 1.0;
    std::vector<double> out(counts[world.rank()], -1.0);
    world.reduce_scatter_sum(in.data(), out.data(), counts);
    // sum over ranks: rank0 contributes i, ranks 1-2 contribute 1 each.
    const idx_t offset = world.rank() == 0 ? 0 : (world.rank() == 1 ? 2 : 3);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i],
                       static_cast<double>(offset + static_cast<idx_t>(i)) +
                           2.0);
    }
  });
}

TEST(Comm, AllgathervConcatenatesByRank) {
  Runtime::run(4, [](Comm& world) {
    const std::vector<idx_t> counts = {1, 2, 3, 4};
    std::vector<int> in(counts[world.rank()], world.rank());
    std::vector<int> out(10, -1);
    world.allgatherv(in.data(), out.data(), counts);
    const std::vector<int> expect = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
    EXPECT_EQ(out, expect);
  });
}

TEST(Comm, AllgatherEqualCounts) {
  Runtime::run(3, [](Comm& world) {
    std::vector<double> in(2, world.rank() + 0.5);
    std::vector<double> out(6);
    world.allgather(in.data(), out.data(), 2);
    for (int r = 0; r < 3; ++r) {
      EXPECT_DOUBLE_EQ(out[2 * r], r + 0.5);
      EXPECT_DOUBLE_EQ(out[2 * r + 1], r + 0.5);
    }
  });
}

TEST(Comm, AlltoallvTransposesBlocks) {
  // Rank s sends value 100*s + r to rank r.
  Runtime::run(4, [](Comm& world) {
    const int p = world.size();
    std::vector<int> send(p);
    std::vector<idx_t> sdispls(p), recvcounts(p, 1), rdispls(p);
    for (int r = 0; r < p; ++r) {
      send[r] = 100 * world.rank() + r;
      sdispls[r] = r;
      rdispls[r] = r;
    }
    std::vector<int> recv(p, -1);
    world.alltoallv(send.data(), sdispls, recv.data(), recvcounts, rdispls);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(recv[s], 100 * s + world.rank());
    }
  });
}

TEST(Comm, SendRecvTaggedMessages) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<double> a = {1, 2, 3};
      const std::vector<double> b = {9};
      // Send out of order; tags must disambiguate.
      world.send(b.data(), 1, 1, /*tag=*/7);
      world.send(a.data(), 3, 1, /*tag=*/5);
    } else {
      std::vector<double> a(3), b(1);
      world.recv(a.data(), 3, 0, /*tag=*/5);
      world.recv(b.data(), 1, 0, /*tag=*/7);
      EXPECT_DOUBLE_EQ(a[1], 2.0);
      EXPECT_DOUBLE_EQ(b[0], 9.0);
    }
  });
}

TEST(Comm, SplitByParity) {
  Runtime::run(6, [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Collectives work inside the subcommunicator.
    double v = world.rank();
    sub.allreduce_sum(&v, 1);
    const double expect = world.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_DOUBLE_EQ(v, expect);
  });
}

TEST(Comm, SplitKeyControlsRankOrder) {
  Runtime::run(4, [](Comm& world) {
    // Reverse order: key = -rank.
    Comm sub = world.split(0, -world.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - world.rank());
  });
}

TEST(Comm, SplitSingletonGroups) {
  Runtime::run(3, [](Comm& world) {
    Comm sub = world.split(world.rank(), 0);
    EXPECT_EQ(sub.size(), 1);
    EXPECT_EQ(sub.rank(), 0);
    double v = 5;
    sub.allreduce_sum(&v, 1);  // trivial but must not hang
    EXPECT_DOUBLE_EQ(v, 5.0);
  });
}

TEST(Comm, RepeatedSplitsDoNotInterfere) {
  Runtime::run(4, [](Comm& world) {
    Comm row = world.split(world.rank() / 2, world.rank());
    Comm col = world.split(world.rank() % 2, world.rank());
    double v = 1;
    row.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 2.0);
    v = 1;
    col.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 2.0);
  });
}

TEST(Comm, CommStatsRecorded) {
  std::vector<Stats> per_rank;
  Runtime::run(4, [](Comm& world) {
    std::vector<double> data(100, 1.0);
    world.allreduce_sum(data.data(), 100);
  }, &per_rank);
  ASSERT_EQ(per_rank.size(), 4u);
  const double expect = 2.0 * 100 * sizeof(double) * 3 / 4;  // 2n(P-1)/P
  for (const Stats& s : per_rank) {
    EXPECT_DOUBLE_EQ(
        s.comm_bytes[static_cast<int>(CollectiveKind::allreduce)], expect);
    EXPECT_EQ(s.messages[static_cast<int>(CollectiveKind::allreduce)], 1u);
  }
}

TEST(Comm, ExceptionInRankPropagates) {
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& world) {
                     world.barrier();
                     if (world.rank() == 1) {
                       throw std::runtime_error("rank failure");
                     }
                   }),
      std::runtime_error);
}

TEST(Comm, ManySmallCollectivesStressSlotReuse) {
  Runtime::run(4, [](Comm& world) {
    for (int iter = 0; iter < 50; ++iter) {
      double v = world.rank() + iter;
      world.allreduce_sum(&v, 1);
      EXPECT_DOUBLE_EQ(v, 6.0 + 4.0 * iter);
      std::vector<int> g(4);
      int mine = world.rank();
      world.allgather(&mine, g.data(), 1);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(g[r], r);
    }
  });
}


// ---------------------------------------------------------------------------
// Cross-ledger collective oracle. Every Comm entry point runs at P=1 and at
// P=3, with uneven counts and one empty contribution, and each rank's
// ledgers are checked against what that call must record:
//   * Stats: bytes and messages per CollectiveKind, and bytes by phase under
//     a phase-tagged span;
//   * metrics::Registry: calls, byte sum and timed-call count per kind;
//   * the flight recorder: one post edge per call and, for a charged call,
//     one complete edge carrying the bytes, both under the site name;
//   * prof spans: the call's span name with its byte and message deltas;
//   * the fault plan: a rule keyed on each site name fires.
// Nothing is charged on one rank.

/// One collective call as the ledgers must see it on one rank.
struct LedgerCall {
  std::string span;      ///< prof span name
  std::string site;      ///< flight op and fault site name
  bool charged = false;  ///< charged, with a flight complete
  double bytes = 0.0;    ///< bytes charged to the case's kind
};

struct OracleCase {
  const char* name;
  CollectiveKind kind;
  std::function<void(Comm&)> run;
  std::function<std::vector<LedgerCall>(int rank, int p)> expect;
};

LedgerCall uncharged(const char* span, const char* site) {
  return LedgerCall{span, site, false, 0.0};
}

/// A call that is charged only on a multi-rank communicator.
LedgerCall charged_if_multi(int p, const char* span, const char* site,
                            double bytes) {
  return p > 1 ? LedgerCall{span, site, true, bytes}
               : uncharged(span, site);
}

/// Uneven counts with an empty middle contribution ({2, 0, 3} at P=3).
std::vector<idx_t> uneven_counts(int p) {
  return p == 1 ? std::vector<idx_t>{3} : std::vector<idx_t>{2, 0, 3};
}

idx_t total_of(const std::vector<idx_t>& v) {
  return std::accumulate(v.begin(), v.end(), idx_t{0});
}

/// alltoallv send matrix: rank s sends (s + r) % 3 elements to rank r, so
/// rank 0 sends nothing to itself and every rank has one empty block.
idx_t a2a_count(int s, int r) { return (s + r) % 3; }

/// Point-to-point ring: rank s sends p2p_count(s) doubles to (s + 1) % p.
idx_t p2p_count(int s) { return s == 1 ? 0 : s + 2; }

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  cases.push_back({"barrier", CollectiveKind::count_,
                   [](Comm& w) { w.barrier(); },
                   [](int, int) {
                     return std::vector{uncharged("barrier", "barrier")};
                   }});
  cases.push_back({"bcast", CollectiveKind::bcast,
                   [](Comm& w) {
                     std::vector<double> v(5, double(w.rank()));
                     w.bcast(v.data(), 5, w.size() - 1);
                   },
                   [](int, int p) {
                     return std::vector{charged_if_multi(
                         p, "bcast", "bcast", 5.0 * 8)};
                   }});
  cases.push_back({"reduce", CollectiveKind::reduce,
                   [](Comm& w) {
                     std::vector<int> in(4, w.rank()), out(4);
                     w.reduce_sum(in.data(), out.data(), 4, 0);
                   },
                   [](int, int p) {
                     return std::vector{charged_if_multi(
                         p, "reduce", "reduce", 4.0 * 4)};
                   }});
  cases.push_back({"allreduce_sum", CollectiveKind::allreduce,
                   [](Comm& w) {
                     std::vector<double> v(3, 1.0);
                     w.allreduce_sum(v.data(), 3);
                   },
                   [](int, int p) {
                     return std::vector{charged_if_multi(
                         p, "allreduce", "allreduce",
                         2.0 * (3.0 * 8) * (p - 1) / p)};
                   }});
  cases.push_back({"allreduce_max", CollectiveKind::allreduce,
                   [](Comm& w) {
                     std::vector<float> v(2, float(w.rank()));
                     w.allreduce_max(v.data(), 2);
                   },
                   [](int, int p) {
                     return std::vector{charged_if_multi(
                         p, "allreduce", "allreduce",
                         2.0 * (2.0 * 4) * (p - 1) / p)};
                   }});
  cases.push_back({"reduce_scatter", CollectiveKind::reduce_scatter,
                   [](Comm& w) {
                     const auto counts = uneven_counts(w.size());
                     std::vector<double> in(total_of(counts), 1.0);
                     std::vector<double> out(counts[w.rank()]);
                     w.reduce_scatter_sum(in.data(), out.data(), counts);
                   },
                   [](int, int p) {
                     const double total = double(total_of(uneven_counts(p)));
                     return std::vector{charged_if_multi(
                         p, "reduce_scatter", "reduce_scatter",
                         total * 8 * (p - 1) / p)};
                   }});
  cases.push_back({"allgatherv", CollectiveKind::allgather,
                   [](Comm& w) {
                     const auto counts = uneven_counts(w.size());
                     std::vector<int> in(counts[w.rank()], w.rank());
                     std::vector<int> out(total_of(counts));
                     w.allgatherv(in.data(), out.data(), counts);
                   },
                   [](int rank, int p) {
                     const auto counts = uneven_counts(p);
                     const double received =
                         double(total_of(counts) - counts[rank]);
                     return std::vector{charged_if_multi(
                         p, "allgatherv", "allgather", received * 4)};
                   }});
  cases.push_back(
      {"alltoallv", CollectiveKind::alltoall,
       [](Comm& w) {
         const int p = w.size();
         std::vector<idx_t> sdispls(p), recvcounts(p), rdispls(p);
         idx_t sent = 0, received = 0;
         for (int r = 0; r < p; ++r) {
           sdispls[r] = sent;
           sent += a2a_count(w.rank(), r);
           recvcounts[r] = a2a_count(r, w.rank());
           rdispls[r] = received;
           received += recvcounts[r];
         }
         std::vector<double> in(sent, 1.0), out(received);
         w.alltoallv(in.data(), sdispls, out.data(), recvcounts, rdispls);
       },
       [](int rank, int p) {
         double off_rank = 0.0;
         for (int s = 0; s < p; ++s) {
           if (s != rank) off_rank += double(a2a_count(s, rank)) * 8;
         }
         return std::vector{
             charged_if_multi(p, "alltoallv", "alltoall", off_rank)};
       }});
  cases.push_back(
      {"send_recv", CollectiveKind::point_to_point,
       [](Comm& w) {
         const int p = w.size();
         const int from = (w.rank() + p - 1) % p;
         std::vector<double> out(p2p_count(w.rank()), 2.0);
         std::vector<double> in(p2p_count(from));
         w.send(out.data(), p2p_count(w.rank()), (w.rank() + 1) % p, 7);
         w.recv(in.data(), p2p_count(from), from, 7);
       },
       [](int rank, int p) {
         return std::vector{
             charged_if_multi(p, "send", "send", double(p2p_count(rank)) * 8),
             uncharged("recv", "recv")};
       }});
  cases.push_back({"split", CollectiveKind::count_,
                   [](Comm& w) {
                     const Comm sub = w.split(w.rank() % 2, -w.rank());
                     EXPECT_TRUE(sub.valid());
                   },
                   [](int, int) {
                     return std::vector{uncharged("split", "split")};
                   }});
  return cases;
}

void check_ledgers(const OracleCase& c, int p) {
  SCOPED_TRACE(std::string(c.name) + " at P=" + std::to_string(p));
  std::vector<Stats> stats;
  std::vector<prof::Recorder> traces;
  std::vector<metrics::Registry> regs;
  std::vector<std::vector<obs::Record>> flight(p);
  RunOptions opts;
  opts.rank_metrics = &regs;
  Runtime::run(
      p,
      [&](Comm& world) {
        {
          prof::TraceSpan tagged("oracle", Phase::ttm);
          c.run(world);
        }
        flight[world.rank()] = obs::flight_recorder()->snapshot();
      },
      &stats, &traces, opts);

  for (int r = 0; r < p; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const std::vector<LedgerCall> calls = c.expect(r, p);
    double bytes = 0.0;
    std::uint64_t messages = 0;
    for (const LedgerCall& call : calls) {
      if (!call.charged) continue;
      bytes += call.bytes;
      ++messages;
    }

    // Stats: only the case's kind, and only under the tagged phase.
    for (std::size_t k = 0; k < kCollectiveCount; ++k) {
      const bool mine = k == static_cast<std::size_t>(c.kind);
      EXPECT_DOUBLE_EQ(stats[r].comm_bytes[k], mine ? bytes : 0.0) << k;
      EXPECT_EQ(stats[r].messages[k], mine ? messages : 0u) << k;
      const metrics::CollectiveMetrics& m =
          regs[r].collective(static_cast<CollectiveKind>(k));
      EXPECT_EQ(m.calls, mine ? messages : 0u) << k;
      EXPECT_DOUBLE_EQ(m.bytes.sum, mine ? bytes : 0.0) << k;
      EXPECT_EQ(m.seconds.count, mine ? messages : 0u) << k;
    }
    for (std::size_t ph = 0; ph < kPhaseCount; ++ph) {
      EXPECT_DOUBLE_EQ(stats[r].comm_bytes_by_phase[ph],
                       ph == static_cast<std::size_t>(Phase::ttm) ? bytes
                                                                   : 0.0)
          << phase_name(static_cast<Phase>(ph));
    }

    // Flight recorder: post (+ complete) per call, in call order.
    std::vector<std::string> got_edges, want_edges;
    for (const obs::Record& rec : flight[r]) {
      if (rec.kind != obs::RecordKind::collective_post &&
          rec.kind != obs::RecordKind::collective_complete) {
        continue;
      }
      got_edges.push_back(std::string(obs::record_kind_name(rec.kind)) +
                          ":" + rec.op + ":" + std::to_string(rec.bytes));
    }
    for (const LedgerCall& call : calls) {
      want_edges.push_back(
          std::string(obs::record_kind_name(
              obs::RecordKind::collective_post)) +
          ":" + call.site + ":" + std::to_string(0.0));
      if (!call.charged) continue;
      want_edges.push_back(
          std::string(obs::record_kind_name(
              obs::RecordKind::collective_complete)) +
          ":" + call.site + ":" + std::to_string(call.bytes));
    }
    EXPECT_EQ(got_edges, want_edges);

    // Spans: one child of the tagged root per call, with its deltas.
    std::vector<const prof::TraceEvent*> children;
    for (const prof::TraceEvent& e : traces[r].events()) {
      if (e.depth == 1) children.push_back(&e);
    }
    ASSERT_EQ(children.size(), calls.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const prof::TraceEvent& e = *children[i];
      const bool charged = calls[i].charged;
      EXPECT_EQ(e.name, calls[i].span);
      EXPECT_EQ(e.path, "oracle/" + calls[i].span);
      EXPECT_DOUBLE_EQ(e.total_comm_bytes(), calls[i].bytes);
      if (charged) {
        EXPECT_DOUBLE_EQ(e.comm_bytes[static_cast<int>(c.kind)],
                         calls[i].bytes);
      }
      EXPECT_EQ(e.messages, charged ? 1u : 0u);
    }
  }
}

void check_fault_sites(const OracleCase& c, int p) {
  SCOPED_TRACE(std::string(c.name) + " at P=" + std::to_string(p));
  const std::vector<LedgerCall> calls = c.expect(0, p);
  fault::Plan plan;
  for (const LedgerCall& call : calls) {
    fault::Rule rule;
    rule.op = call.site;
    rule.action = fault::Action::delay;
    rule.delay_ms = 0.0;
    plan.add(rule);
  }
  RunOptions opts;
  opts.fault_plan = &plan;
  Runtime::run(p, c.run, nullptr, nullptr, opts);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(plan.fired(i), 1u) << calls[i].site;
  }
}

TEST(CommLedgers, EveryEntryPointRecordsExactlyItsCharge) {
  for (const OracleCase& c : oracle_cases()) {
    for (const int p : {1, 3}) check_ledgers(c, p);
  }
}

TEST(CommLedgers, FaultPlanMatchesEveryEntryPointSite) {
  for (const OracleCase& c : oracle_cases()) {
    for (const int p : {1, 3}) check_fault_sites(c, p);
  }
}

}  // namespace
}  // namespace rahooi::comm
