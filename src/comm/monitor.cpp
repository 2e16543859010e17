#include "comm/monitor.hpp"

#include <sstream>

#include "comm/context.hpp"
#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace rahooi::comm {

namespace {

thread_local Monitor* tls_monitor = nullptr;
thread_local int tls_world_rank = -1;

}  // namespace

Monitor::Monitor(int world_size)
    : world_size_(world_size),
      slots_(world_size),
      recorders_(world_size, nullptr) {
  RAHOOI_REQUIRE(world_size >= 1, "monitor needs at least one rank");
}

void Monitor::set_flight_recorder(int world_rank,
                                  const obs::FlightRecorder* fr) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  std::lock_guard lock(mutex_);
  recorders_[std::size_t(world_rank)] = fr;
}

bool Monitor::raise_abort(int origin_rank, const std::string& what) {
  {
    std::lock_guard lock(mutex_);
    if (aborted_.load(std::memory_order_relaxed)) return false;
    origin_rank_ = origin_rank;
    what_ = what;
    aborted_.store(true, std::memory_order_release);
  }
  wake_all();
  return true;
}

void Monitor::throw_aborted() const {
  std::lock_guard lock(mutex_);
  throw AbortedError(origin_rank_,
                     "world aborted (origin rank " +
                         std::to_string(origin_rank_) + "): " + what_);
}

void Monitor::park(int world_rank, const char* op, std::string path) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  ParkSlot& slot = slots_[world_rank];
  std::lock_guard lock(slot.m);
  slot.op = op;
  slot.since = stats::now();
  slot.path = std::move(path);
  ++slot.entered;
}

void Monitor::unpark(int world_rank) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  ParkSlot& slot = slots_[world_rank];
  std::lock_guard lock(slot.m);
  slot.op = nullptr;
  slot.path.clear();
}

std::string Monitor::park_report() const {
  const double now = stats::now();
  std::vector<const obs::FlightRecorder*> recorders;
  {
    std::lock_guard lock(mutex_);
    recorders = recorders_;
  }
  std::ostringstream os;
  for (int r = 0; r < world_size_; ++r) {
    const ParkSlot& slot = slots_[r];
    {
      std::lock_guard lock(slot.m);
      os << "  rank " << r << ": ";
      if (slot.op != nullptr) {
        os << "parked in " << slot.op << " for " << (now - slot.since) << "s";
        if (!slot.path.empty()) os << " at span " << slot.path;
      } else {
        os << "not in a collective (" << slot.entered
           << " collectives entered)";
      }
      os << '\n';
    }
    // Tail of the rank's flight-recorder ring: the last few span /
    // collective / fault records, newest last. Best-effort lock-free read —
    // the rank thread may still be writing.
    const obs::FlightRecorder* fr = recorders[std::size_t(r)];
    if (fr == nullptr) continue;
    const std::vector<obs::Record> records = fr->snapshot();
    if (records.empty()) continue;
    constexpr std::size_t kTail = 6;
    const std::size_t begin =
        records.size() > kTail ? records.size() - kTail : 0;
    os << "    flight tail (" << fr->total() << " recorded, "
       << fr->dropped() << " dropped):";
    for (std::size_t i = begin; i < records.size(); ++i) {
      const obs::Record& rec = records[i];
      os << ' ' << obs::record_kind_name(rec.kind);
      if (rec.op[0] != '\0') os << ':' << rec.op;
      os << "[" << rec.seq << "]";
    }
    os << '\n';
  }
  return os.str();
}

void Monitor::attach(std::weak_ptr<Context> ctx) {
  std::lock_guard lock(mutex_);
  contexts_.push_back(std::move(ctx));
}

void Monitor::wake_all() {
  std::vector<std::weak_ptr<Context>> contexts;
  {
    std::lock_guard lock(mutex_);
    contexts = contexts_;
  }
  for (const auto& weak : contexts) {
    if (const std::shared_ptr<Context> ctx = weak.lock()) ctx->wake_all();
  }
}

ScopedRankBinding::ScopedRankBinding(Monitor& monitor, int world_rank) {
  tls_monitor = &monitor;
  tls_world_rank = world_rank;
}

ScopedRankBinding::~ScopedRankBinding() {
  tls_monitor = nullptr;
  tls_world_rank = -1;
}

Monitor* bound_monitor() { return tls_monitor; }

int bound_world_rank() { return tls_world_rank; }

}  // namespace rahooi::comm
