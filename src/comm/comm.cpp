#include "comm/comm.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight_recorder.hpp"

namespace rahooi::comm {

namespace {

/// The names a Comm entry point goes by besides its CollectiveOp.
struct Site {
  std::string_view span;               ///< prof span name
  const char* site;                    ///< park, flight and fault site
  std::optional<CollectiveKind> kind;  ///< none: never charged
};

/// One row per CollectiveOp, in enum order; allreduce_max goes by
/// allreduce's names.
constexpr Site kSites[] = {
    {"barrier", "barrier", {}},
    {"bcast", "bcast", CollectiveKind::bcast},
    {"reduce", "reduce", CollectiveKind::reduce},
    {"allreduce", "allreduce", CollectiveKind::allreduce},
    {"allreduce", "allreduce", CollectiveKind::allreduce},
    {"reduce_scatter", "reduce_scatter", CollectiveKind::reduce_scatter},
    {"allgatherv", "allgather", CollectiveKind::allgather},
    {"alltoallv", "alltoall", CollectiveKind::alltoall},
    {"split", "split", {}},
    {"send", "send", CollectiveKind::point_to_point},
    {"recv", "recv", {}},
};
static_assert(std::size(kSites) == std::size_t(CollectiveOp::recv) + 1);

const Site& site_of(CollectiveOp op) {
  return kSites[static_cast<std::size_t>(op)];
}

}  // namespace

CollectiveScope::CollectiveScope(CollectiveOp op, Context* ctx, int comm_rank,
                                 std::uint32_t dtype, int root,
                                 std::uint64_t sched_bytes, double bytes)
    : op_(op),
      span_(site_of(op).span),
      mon_(bound_monitor()),
      world_rank_(fault_rank(comm_rank)),
      bytes_(bytes) {
  const Site& s = site_of(op);
  if (mon_ == nullptr && ctx != nullptr) mon_ = ctx->monitor().get();
  if (mon_ != nullptr) {
    // Copy the prof span path only when the watchdog is armed: that is the
    // only consumer, and the copy allocates.
    std::string path;
    if (mon_->timeout() > 0.0) {
      if (const prof::Recorder* rec = prof::recorder()) {
        path = std::string(rec->current_path());
      }
    }
    mon_->park(world_rank_, s.site, std::move(path));
  }
  if (obs::FlightRecorder* fr = obs::flight_recorder()) {
    fr->record(obs::RecordKind::collective_post, s.site);
  }
  // A throw here (retries exhausted, injected kill) leaves the rank parked.
  fault::with_retry([&] { fault::inject_point(s.site, world_rank_); });
  const int size = ctx != nullptr ? ctx->size() : 1;
  charged_ = s.kind.has_value() && size > 1;
  if (charged_) {
    uncaught_ = std::uncaught_exceptions();
    reg_ = metrics::registry();
    if (reg_ != nullptr) t0_ = stats::now();
  }
  if (op < CollectiveOp::send && size > 1) {  // p2p is not fingerprinted
    try {
      ctx->schedule_check(comm_rank,
                          SchedFingerprint{op, dtype, root, sched_bytes});
    } catch (...) {
      if (mon_ != nullptr) mon_->unpark(world_rank_);
      throw;
    }
  }
}

CollectiveScope::~CollectiveScope() {
  if (charged_ && std::uncaught_exceptions() == uncaught_) {
    const Site& s = site_of(op_);
    stats::add_comm(*s.kind, bytes_);
    if (obs::FlightRecorder* fr = obs::flight_recorder()) {
      fr->record(obs::RecordKind::collective_complete, s.site, bytes_);
    }
    if (reg_ != nullptr) {
      reg_->record_collective(*s.kind, bytes_, stats::now() - t0_);
    }
  }
  if (mon_ != nullptr) mon_->unpark(world_rank_);
}

Comm Comm::split(int color, int key) const {
  RAHOOI_REQUIRE(valid(), "split on an invalid communicator");
  // color/key legitimately differ per rank; only the op kind is replicated.
  const CollectiveScope scope(CollectiveOp::split, ctx_.get(), rank_);
  const int p = size();
  if (p == 1) return *this;

  // Publish (color, key) and collect everyone's.
  std::int64_t mine[2] = {color, key};
  ctx_->post(rank_, SlotEntry{nullptr, nullptr, mine, 0});
  ctx_->barrier_wait();
  std::vector<std::int64_t> colors(p), keys(p);
  for (int r = 0; r < p; ++r) {
    const std::int64_t* peer = ctx_->slot(r).meta;
    colors[r] = peer[0];
    keys[r] = peer[1];
  }
  ctx_->barrier_wait(Context::BarrierPhase::exit);

  // My group: ranks with my color, ordered by (key, parent rank).
  std::vector<int> members;
  for (int r = 0; r < p; ++r) {
    if (colors[r] == color) members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return keys[a] < keys[b];
  });
  const int leader = *std::min_element(members.begin(), members.end());
  int child_rank = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == rank_) child_rank = static_cast<int>(i);
  }

  // Leader creates the child context; members collect it. The child shares
  // the parent world's monitor so an abort anywhere poisons the whole world,
  // including waits inside sub-communicators.
  if (rank_ == leader) {
    ctx_->deposit_child(leader,
                        Context::create(static_cast<int>(members.size()),
                                        ctx_->monitor()));
  }
  ctx_->barrier_wait(Context::BarrierPhase::exit);
  std::shared_ptr<Context> child = ctx_->collect_child(leader);
  ctx_->barrier_wait(Context::BarrierPhase::exit);
  return Comm(std::move(child), child_rank);
}

}  // namespace rahooi::comm
