#pragma once
// Communicator handle: the MPI-like API the distributed tensor layer and the
// paper's algorithms are written against.
//
// Semantics mirror the MPI collectives TuckerMPI uses. All ranks of a
// communicator must call the same collective with compatible arguments
// (counts arrays must match across ranks, as in MPI). Collectives are
// blocking and bulk-synchronous. Every blocking wait underneath observes the
// world's sticky abort flag, so a dead rank releases its peers via
// AbortedError instead of deadlocking them (docs/ROBUSTNESS.md).
//
// Each entry point carries exactly one instrumentation statement, its
// CollectiveScope declaration; the scope's comment below is the contract.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "comm/context.hpp"
#include "comm/schedule_check.hpp"
#include "common/contracts.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"

namespace rahooi::comm {

using idx_t = std::int64_t;

/// The one instrumentation site of a Comm entry point, declared after
/// argument validation. Entry, in order: open the op's prof::TraceSpan;
/// park the rank for the hang watchdog (with the span path when armed),
/// record a flight collective_post and run the fault-injection entry hook
/// (transient faults retried with backoff); start the metrics timer, so the
/// timed wait excludes injected entry delays; on more than one rank, run
/// the schedule sanitizer on the call's replicated fingerprint
/// (docs/STATIC_ANALYSIS.md; point-to-point ops are not fingerprinted).
/// A normal exit charges `bytes` (this rank's volume under the standard
/// large-message algorithm: ring allgather, recursive-halving
/// reduce-scatter, Rabenseifner allreduce, binomial bcast/reduce; what the
/// Table 2 reproduction measures) to Stats (per kind and active phase), the
/// metrics registry and a flight collective_complete under the same site
/// name as the post. Nothing is charged while unwinding, by
/// barrier/recv/split, or on a one-rank communicator. The rank is unparked
/// on every exit but a throwing fault hook.
class CollectiveScope {
 public:
  /// `dtype`, `root` and `sched_bytes` complete the op's schedule
  /// fingerprint; `bytes` is what a normal exit charges.
  CollectiveScope(CollectiveOp op, Context* ctx, int comm_rank,
                  std::uint32_t dtype = 0, int root = -1,
                  std::uint64_t sched_bytes = 0, double bytes = 0.0);
  ~CollectiveScope();

  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

  /// World rank for fault-site matching (the communicator rank when the
  /// thread is not bound to a Runtime world).
  int world_rank() const { return world_rank_; }

 private:
  CollectiveOp op_;
  prof::TraceSpan span_;
  Monitor* mon_;  ///< park registry, nullptr when none
  int world_rank_;
  bool charged_ = false;  ///< a normal exit charges the ledgers
  int uncaught_ = 0;      ///< std::uncaught_exceptions() at entry
  metrics::Registry* reg_ = nullptr;
  double t0_ = 0.0;
  double bytes_;
};

class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<Context> ctx, int rank)
      : ctx_(std::move(ctx)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return ctx_ ? ctx_->size() : 1; }
  bool valid() const { return ctx_ != nullptr; }

  void barrier() const {
    const CollectiveScope scope(CollectiveOp::barrier, ctx_.get(), rank_);
    ctx_->barrier_wait();
  }

  /// Arms (or disarms, 0) the world's collective hang watchdog: any single
  /// collective wait exceeding the deadline dumps which ranks are parked in
  /// which collective and aborts the world with TimeoutError. Shared by all
  /// communicators split from the same world.
  void set_collective_timeout(double seconds) const {
    if (ctx_ != nullptr) ctx_->monitor()->set_timeout(seconds);
  }

  /// Root's buffer is copied to every rank.
  template <typename T>
  void bcast(T* data, idx_t n, int root) const {
    RAHOOI_REQUIRE(root >= 0 && root < size(), "bcast: bad root");
    const CollectiveScope scope =
        enter<T>(CollectiveOp::bcast, n, bytes_of<T>(n), root);
    if (size() == 1) return;
    ctx_->post(rank_, SlotEntry{data, data, nullptr, 0});
    ctx_->barrier_wait();
    if (rank_ != root) {
      const T* src = static_cast<const T*>(ctx_->slot(root).in);
      std::copy(src, src + n, data);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    fault::inject_payload("bcast", scope.world_rank(), data, sizeof(T) * n);
  }

  /// Element-wise sum of all ranks' `in` arrays lands in `out` on root.
  template <typename T>
  void reduce_sum(const T* in, T* out, idx_t n, int root) const {
    RAHOOI_REQUIRE(root >= 0 && root < size(), "reduce: bad root");
    const CollectiveScope scope =
        enter<T>(CollectiveOp::reduce, n, bytes_of<T>(n), root);
    if (size() == 1) {
      if (out != in) std::copy(in, in + n, out);
      return;
    }
    ctx_->post(rank_, SlotEntry{in, out, nullptr, 0});
    ctx_->barrier_wait();
    if (rank_ == root) {
      std::copy(in, in + n, out);
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        const T* src = static_cast<const T*>(ctx_->slot(r).in);
        for (idx_t i = 0; i < n; ++i) out[i] += src[i];
      }
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
  }

  /// In-place element-wise sum across all ranks; every rank gets the total.
  ///
  /// As required of MPI_Allreduce, every rank receives the *identical*
  /// result: the reduction runs in canonical rank order on each rank, so
  /// floating-point rounding cannot make replicated state (factor
  /// matrices, Gram spectra) diverge across ranks — divergence there would
  /// let ranks take different truncation decisions and desynchronize the
  /// subsequent collectives.
  template <typename T>
  void allreduce_sum(T* data, idx_t n) const {
    allreduce(CollectiveOp::allreduce, data, n,
              [](T acc, T v) {
                acc += v;
                return acc;
              });
  }

  /// Convenience scalar allreduce.
  double allreduce_scalar(double v) const {
    allreduce_sum(&v, 1);
    return v;
  }

  /// In-place element-wise max across all ranks; every rank receives the
  /// identical result. Max over a fixed rank order is exact (no rounding),
  /// so this collective can never desynchronize replicated state.
  template <typename T>
  void allreduce_max(T* data, idx_t n) const {
    allreduce(CollectiveOp::allreduce_max, data, n,
              [](T acc, T v) { return std::max(acc, v); });
  }

  /// Sums all ranks' full-length `in` arrays (length = sum of counts), then
  /// scatters: rank r receives segment r (length counts[r]) of the total
  /// into `out`. `counts` must be identical on all ranks.
  template <typename T>
  void reduce_scatter_sum(const T* in, T* out,
                          const std::vector<idx_t>& counts) const {
    RAHOOI_REQUIRE(static_cast<int>(counts.size()) == size(),
                   "reduce_scatter: counts size != communicator size");
    // `counts` is replicated, so the total is part of the schedule contract.
    // Recursive halving: n(P-1)/P per rank on the full input length.
    const idx_t total = std::accumulate(counts.begin(), counts.end(),
                                        idx_t{0});
    const CollectiveScope scope =
        enter<T>(CollectiveOp::reduce_scatter, total,
                 bytes_of<T>(total) * (size() - 1) / size());
    idx_t offset = 0;
    for (int r = 0; r < rank_; ++r) offset += counts[r];
    const idx_t mine = counts[rank_];
    if (size() == 1) {
      std::copy(in, in + mine, out);
      return;
    }
    ctx_->post(rank_, SlotEntry{in, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    std::fill(out, out + mine, T{});
    for (int r = 0; r < size(); ++r) {
      const T* src = static_cast<const T*>(ctx_->slot(r).in) + offset;
      for (idx_t i = 0; i < mine; ++i) out[i] += src[i];
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
  }

  /// Concatenates all ranks' `in` arrays (rank r contributes counts[r]
  /// elements) into `out` on every rank, ordered by rank. `counts` must be
  /// identical on all ranks.
  template <typename T>
  void allgatherv(const T* in, T* out, const std::vector<idx_t>& counts) const {
    RAHOOI_REQUIRE(static_cast<int>(counts.size()) == size(),
                   "allgatherv: counts size != communicator size");
    // Ring: each rank receives everyone else's contribution.
    const idx_t total =
        std::accumulate(counts.begin(), counts.end(), idx_t{0});
    const CollectiveScope scope =
        enter<T>(CollectiveOp::allgatherv, total,
                 bytes_of<T>(total - counts[rank_]));
    if (size() == 1) {
      std::copy(in, in + counts[0], out);
      return;
    }
    ctx_->post(rank_, SlotEntry{in, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    idx_t offset = 0;
    for (int r = 0; r < size(); ++r) {
      const T* src = static_cast<const T*>(ctx_->slot(r).in);
      std::copy(src, src + counts[r], out + offset);
      offset += counts[r];
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
  }

  /// Equal-count allgather convenience: every rank contributes n elements.
  template <typename T>
  void allgather(const T* in, T* out, idx_t n) const {
    allgatherv(in, out, std::vector<idx_t>(size(), n));
  }

  /// Personalized all-to-all: rank s sends sendcounts[r] elements starting
  /// at sdispls[r] to each rank r; rank r receives them at rdispls[s] in
  /// `out`. Requires sendcounts_s[r] == recvcounts_r[s], as in MPI.
  template <typename T>
  void alltoallv(const T* in, const std::vector<idx_t>& sdispls, T* out,
                 const std::vector<idx_t>& recvcounts,
                 const std::vector<idx_t>& rdispls) const {
    RAHOOI_REQUIRE(static_cast<int>(sdispls.size()) == size() &&
                       static_cast<int>(recvcounts.size()) == size() &&
                       static_cast<int>(rdispls.size()) == size(),
                   "alltoallv: argument arrays must have one entry per rank");
    // Per-rank counts may legitimately differ across ranks, so only the op
    // kind and dtype are part of the replicated schedule contract. Charged:
    // what this rank receives from the other ranks.
    const idx_t off_rank = std::accumulate(recvcounts.begin(), recvcounts.end(),
                                           idx_t{0}) - recvcounts[rank_];
    const CollectiveScope scope =
        enter<T>(CollectiveOp::alltoallv, 0, bytes_of<T>(off_rank));
    ctx_->post(rank_, SlotEntry{in, nullptr, sdispls.data(), 0});
    ctx_->barrier_wait();
    for (int s = 0; s < size(); ++s) {
      const auto& peer = ctx_->slot(s);
      const T* src =
          static_cast<const T*>(peer.in) + peer.meta[rank_];
      std::copy(src, src + recvcounts[s], out + rdispls[s]);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
  }

  /// Blocking tagged point-to-point.
  template <typename T>
  void send(const T* data, idx_t n, int dest, int tag) const {
    const CollectiveScope scope =
        enter<T>(CollectiveOp::send, 0, bytes_of<T>(n));
    ctx_->send_bytes(dest, rank_, tag, data, sizeof(T) * n);
  }

  /// The receiver is not charged: send already counts the message.
  template <typename T>
  void recv(T* data, idx_t n, int source, int tag) const {
    const CollectiveScope scope(CollectiveOp::recv, ctx_.get(), rank_);
    ctx_->recv_bytes(rank_, source, tag, data, sizeof(T) * n);
  }

  /// Partitions the communicator: ranks with equal `color` form a new
  /// communicator, ordered by (key, old rank). Collective over all ranks.
  Comm split(int color, int key) const;

 private:
  template <typename T>
  static double bytes_of(idx_t n) {
    return static_cast<double>(n) * sizeof(T);
  }

  /// Opens `op`'s scope for a call whose replicated payload is `sched_n`
  /// elements of T and whose normal exit charges `bytes`.
  template <typename T>
  CollectiveScope enter(CollectiveOp op, idx_t sched_n, double bytes,
                        int root = -1) const {
    return CollectiveScope(op, ctx_.get(), rank_, sched_dtype_tag<T>(), root,
                           static_cast<std::uint64_t>(sched_n) * sizeof(T),
                           bytes);
  }

  /// allreduce_sum / allreduce_max: every rank folds all ranks' arrays in
  /// rank order with `combine`, so every rank holds the identical result.
  template <typename T, typename Combine>
  void allreduce(CollectiveOp op, T* data, idx_t n, Combine combine) const {
    // Rabenseifner: reduce-scatter + allgather, 2n(P-1)/P per rank.
    const CollectiveScope scope =
        enter<T>(op, n, 2.0 * bytes_of<T>(n) * (size() - 1) / size());
    if (size() == 1) return;
    ctx_->post(rank_, SlotEntry{data, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    std::vector<T> acc(static_cast<const T*>(ctx_->slot(0).in),
                       static_cast<const T*>(ctx_->slot(0).in) + n);
    for (int r = 1; r < size(); ++r) {
      const T* src = static_cast<const T*>(ctx_->slot(r).in);
      for (idx_t i = 0; i < n; ++i) acc[i] = combine(acc[i], src[i]);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    if (n != 0) std::copy(acc.begin(), acc.end(), data);
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    if (op == CollectiveOp::allreduce) {
      fault::inject_payload("allreduce", scope.world_rank(), data,
                            sizeof(T) * n);
    }
  }

  std::shared_ptr<Context> ctx_;
  int rank_ = 0;
};

}  // namespace rahooi::comm
