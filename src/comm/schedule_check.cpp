#include "comm/schedule_check.hpp"

#include <atomic>
#include <sstream>

#include "comm/context.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Chains one fingerprint into a rolling schedule hash. Every field
/// participates, so two histories agree iff their hashes agree (modulo
/// collisions) — the property the validator leans on when explaining where
/// schedules first drifted apart.
std::uint64_t chain(std::uint64_t h, const SchedFingerprint& fp) {
  h = fnv1a(h, static_cast<std::uint64_t>(fp.op));
  h = fnv1a(h, static_cast<std::uint64_t>(fp.dtype));
  h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(fp.root)));
  h = fnv1a(h, fp.bytes);
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

const char* collective_op_name(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::barrier: return "barrier";
    case CollectiveOp::bcast: return "bcast";
    case CollectiveOp::reduce: return "reduce";
    case CollectiveOp::allreduce: return "allreduce";
    case CollectiveOp::allreduce_max: return "allreduce_max";
    case CollectiveOp::reduce_scatter: return "reduce_scatter";
    case CollectiveOp::allgatherv: return "allgatherv";
    case CollectiveOp::alltoallv: return "alltoallv";
    case CollectiveOp::split: return "split";
    case CollectiveOp::send: return "send";
    case CollectiveOp::recv: return "recv";
  }
  return "?";
}

std::string sched_dtype_name(std::uint32_t tag) {
  if (tag == 0) return "-";
  const char kind = (tag & 0x100u) != 0 ? 'f' : ((tag & 0x200u) != 0 ? 'i' : 'u');
  return kind + std::to_string(tag & 0xffu);
}

ScheduleChecker::ScheduleChecker(int size) {
  static std::atomic<std::uint64_t> next_id{0};
  comm_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  slots_.resize(static_cast<std::size_t>(size));
  for (Slot& s : slots_) s.hash = kFnvOffset;
}

std::string ScheduleChecker::divergence_report(int rank_a, int rank_b) const {
  const auto describe = [&](int r) {
    const Slot& s = slots_[static_cast<std::size_t>(r)];
    std::ostringstream os;
    os << "  rank " << r;
    if (s.world_rank >= 0 && s.world_rank != r) {
      os << " (world rank " << s.world_rank << ")";
    }
    os << ": call #" << s.calls << " " << collective_op_name(s.fp.op)
       << "(dtype=" << sched_dtype_name(s.fp.dtype);
    if (s.fp.root >= 0) os << ", root=" << s.fp.root;
    if (s.fp.bytes > 0) os << ", bytes=" << s.fp.bytes;
    os << ") at span \"" << s.path << "\", schedule hash " << hex(s.hash);
    return os.str();
  };

  const Slot& a = slots_[static_cast<std::size_t>(rank_a)];
  const Slot& b = slots_[static_cast<std::size_t>(rank_b)];
  const std::uint64_t first_mismatch = std::min(a.calls, b.calls);
  std::ostringstream os;
  os << "collective schedule divergence on comm " << comm_id_
     << ", first mismatching call index #" << first_mismatch << ":\n"
     << describe(rank_a) << '\n'
     << describe(rank_b) << '\n';
  if (a.fp == b.fp && a.calls == b.calls) {
    os << "  (current fingerprints match; the rolling schedule hashes "
          "diverged at an earlier, unvalidated call)\n";
  }
  return os.str();
}

void ScheduleChecker::check(Context& ctx, int comm_rank,
                            const SchedFingerprint& fp) {
  Slot& mine = slots_[static_cast<std::size_t>(comm_rank)];
  mine.fp = fp;
  mine.hash = chain(mine.hash, fp);
  ++mine.calls;
  mine.world_rank = bound_world_rank();
  mine.path.clear();
  if (const prof::Recorder* rec = prof::recorder()) {
    mine.path = std::string(rec->current_path());
  }

  // Entry rendezvous (abort-aware: a peer that died before arriving must
  // release us via AbortedError, not leave us parked here forever). The
  // barrier's happens-before edges make all peer slots readable.
  ctx.barrier_wait();

  // Validate against rank 0: any pairwise divergence implies some rank
  // disagrees with rank 0, and every rank reads identical replicated slot
  // state, so every rank reaches the same verdict deterministically.
  std::string report;
  for (std::size_t r = 1; r < slots_.size(); ++r) {
    const Slot& peer = slots_[r];
    if (peer.fp != slots_[0].fp || peer.hash != slots_[0].hash ||
        peer.calls != slots_[0].calls) {
      report = divergence_report(0, static_cast<int>(r));
      break;
    }
  }

  // Exit rendezvous *before* throwing: it is a phase barrier every
  // participant is guaranteed to reach (validation never blocks), and it
  // retires the slot reads so a throwing rank cannot unwind state a peer is
  // still reading. Because the verdict is replicated, either every rank
  // throws here or none does — no rank is left waiting on a dead schedule.
  ctx.barrier_wait(Context::BarrierPhase::exit);
  if (!report.empty()) {
    const int origin = mine.world_rank >= 0 ? mine.world_rank : comm_rank;
    ctx.monitor()->raise_abort(origin, report);  // first raiser wins
    throw ScheduleDivergenceError(report);
  }
}

}  // namespace rahooi::comm
