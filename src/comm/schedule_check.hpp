#pragma once
// Dynamic collective-schedule divergence sanitizer (MUST-style; see
// docs/STATIC_ANALYSIS.md and DESIGN.md §10).
//
// The whole stack relies on every rank of a communicator executing the
// *same* sequence of collectives with compatible replicated arguments —
// fallback chains, rank-adaptive truncation decisions, and fault recovery
// are only safe because every such decision is a function of replicated
// data. Nothing enforces that invariant at runtime: a divergent schedule
// normally shows up as a deadlock (caught late by the watchdog) or, worse,
// as silently mismatched payloads.
//
// When enabled (RunOptions::comm_check / RAHOOI_COMM_CHECK), every
// collective entry records a fingerprint — op kind, communicator id, root,
// dtype, byte count — chained into a per-rank rolling FNV-1a schedule hash,
// and the fingerprints are cross-validated at an extra rendezvous before
// the collective runs. A mismatch aborts the world with a report naming
// both ranks' ops, prof span paths, and the first mismatching call index.
//
// Overhead when off: one relaxed atomic load per collective (the
// Monitor::comm_check flag), checked in Context::schedule_check. When on:
// one slot write plus two extra barriers per collective — strictly a
// debugging/CI mode.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace rahooi::comm {

class Context;

/// Comm entry points. Each has one row in the site table (comm.cpp), the
/// only place its span, fault-site and byte-accounting names are spelled.
/// The value order feeds the schedule hash. Tagged point-to-point send/recv
/// come last and are deliberately not fingerprinted: they involve only two
/// ranks, so a communicator-wide rendezvous on them would itself deadlock.
enum class CollectiveOp : std::uint8_t {
  barrier,
  bcast,
  reduce,
  allreduce,
  allreduce_max,
  reduce_scatter,
  allgatherv,
  alltoallv,
  split,
  send,
  recv,
};

const char* collective_op_name(CollectiveOp op);

/// Packed element-type tag: size byte plus float/signed flags. The same T
/// yields the same tag on every rank; distinct fundamental types used by the
/// collectives yield distinct tags.
template <typename T>
constexpr std::uint32_t sched_dtype_tag() {
  return static_cast<std::uint32_t>(sizeof(T)) |
         (std::is_floating_point_v<T> ? 0x100u : 0u) |
         (std::is_signed_v<T> ? 0x200u : 0u);
}

/// Render a tag for reports: "f8", "i4", "u2", ... ("-" for tag 0, ops
/// without a payload).
std::string sched_dtype_name(std::uint32_t tag);

/// The replicated-argument fingerprint of one collective call. Fields that
/// may legitimately differ across ranks (alltoallv per-rank counts, split
/// colors/keys) are excluded — zero means "not part of this op's contract".
struct SchedFingerprint {
  CollectiveOp op = CollectiveOp::barrier;
  std::uint32_t dtype = 0;   ///< sched_dtype_tag<T>(), 0 when no payload
  std::int32_t root = -1;    ///< root rank, -1 when the op has none
  std::uint64_t bytes = 0;   ///< replicated payload bytes, 0 otherwise

  bool operator==(const SchedFingerprint&) const = default;
};

/// Per-communicator sanitizer state: one slot per rank with its rolling
/// schedule hash, call count, and in-flight fingerprint + prof span path.
/// Owned by Context; all cross-rank slot accesses are ordered by the
/// context's rendezvous barriers, so the slots need no locks of their own.
class ScheduleChecker {
 public:
  explicit ScheduleChecker(int size);

  /// The sanitizer rendezvous run before a collective's own first barrier:
  /// records `fp` (chaining this rank's rolling hash), cross-validates every
  /// rank's fingerprint between an entry and an exit barrier of `ctx`, and —
  /// on any mismatch — raises the world abort and throws
  /// ScheduleDivergenceError on *every* rank after the exit barrier, so no
  /// peer is left parked in a rendezvous that cannot complete.
  void check(Context& ctx, int comm_rank, const SchedFingerprint& fp);

  std::uint64_t comm_id() const { return comm_id_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< rolling FNV-1a, seeded by the constructor
    std::uint64_t calls = 0;
    int world_rank = -1;
    SchedFingerprint fp;
    std::string path;  ///< prof span path at entry ("" without a Recorder)
  };

  std::string divergence_report(int rank_a, int rank_b) const;

  std::uint64_t comm_id_;
  std::vector<Slot> slots_;
};

}  // namespace rahooi::comm
