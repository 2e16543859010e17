#include "prof/trace.hpp"

#include <numeric>
#include <vector>

#include "common/contracts.hpp"
#include "obs/flight_recorder.hpp"

namespace rahooi::prof {

namespace {

thread_local Recorder* tls_recorder = nullptr;

// One entry per open phase-tagged span on this thread: the wall time of the
// tagged spans nested in it, subtracted on close (innermost-wins).
thread_local std::vector<double> tls_phase_frames;

}  // namespace

double TraceEvent::total_comm_bytes() const {
  return std::accumulate(comm_bytes.begin(), comm_bytes.end(), 0.0);
}

void Recorder::clear() {
  path_.clear();
  open_.clear();
  events_.clear();
  phase_seconds_.fill(0.0);
}

std::size_t Recorder::open(std::string_view name, std::int64_t index) {
  OpenSpan os;
  os.path_len = path_.size();
  if (!path_.empty()) path_ += '/';
  const std::size_t name_start = path_.size();
  path_.append(name);
  if (index >= 0) {
    path_ += '[';
    path_ += std::to_string(index);
    path_ += ']';
  }
  os.name_len = path_.size() - name_start;
  open_.push_back(os);
  if (obs::FlightRecorder* fr = obs::flight_recorder()) {
    fr->record(obs::RecordKind::span_begin,
               std::string_view(path_).substr(name_start));
  }
  return open_.size() - 1;
}

void Recorder::close(double start, double seconds, double flops,
                     const std::array<double, kCollectiveCount>& comm_bytes,
                     std::uint64_t messages, int phase, double self_seconds) {
  RAHOOI_DEBUG_ASSERT(!open_.empty());
  const OpenSpan os = open_.back();
  TraceEvent e;
  e.path = path_;
  e.name = path_.substr(path_.size() - os.name_len);
  e.depth = static_cast<int>(open_.size()) - 1;
  e.phase = phase;
  e.start = start;
  e.seconds = seconds;
  e.flops = flops;
  e.comm_bytes = comm_bytes;
  e.messages = messages;
  events_.push_back(std::move(e));
  if (phase >= 0) phase_seconds_[phase] += self_seconds;
  if (obs::FlightRecorder* fr = obs::flight_recorder()) {
    fr->record(obs::RecordKind::span_end, events_.back().name);
  }
  path_.resize(os.path_len);
  open_.pop_back();
}

Recorder* recorder() { return tls_recorder; }

ScopedRecorder::ScopedRecorder(Recorder& r) : prev_(tls_recorder) {
  tls_recorder = &r;
}

ScopedRecorder::~ScopedRecorder() { tls_recorder = prev_; }

TraceSpan::TraceSpan(std::string_view name, std::int64_t index, int phase)
    : rec_(tls_recorder), phase_(phase) {
  if (rec_ == nullptr && phase_ < 0) return;  // tracing fully disabled
  if (phase_ >= 0) {
    prev_phase_ = stats::swap_phase(static_cast<Phase>(phase_));
    tls_phase_frames.push_back(0.0);
  }
  if (rec_ != nullptr) {
    rec_->open(name, index);
    if (const Stats* s = stats::current()) {
      flops0_ = s->total_flops();
      bytes0_ = s->comm_bytes;
      messages0_ = std::accumulate(s->messages.begin(), s->messages.end(),
                                   std::uint64_t{0});
    }
  }
  start_ = stats::now();
}

TraceSpan::~TraceSpan() {
  if (rec_ == nullptr && phase_ < 0) return;
  const double seconds = stats::now() - start_;
  double self_seconds = 0.0;
  if (phase_ >= 0) {
    const double nested = tls_phase_frames.back();
    tls_phase_frames.pop_back();
    if (!tls_phase_frames.empty()) tls_phase_frames.back() += seconds;
    self_seconds = seconds > nested ? seconds - nested : 0.0;
    if (Stats* s = stats::current()) s->seconds[phase_] += self_seconds;
    stats::swap_phase(prev_phase_);
  }
  if (rec_ != nullptr) {
    double flops = 0.0;
    std::array<double, kCollectiveCount> bytes{};
    std::uint64_t messages = 0;
    if (const Stats* s = stats::current()) {
      flops = s->total_flops() - flops0_;
      for (std::size_t k = 0; k < kCollectiveCount; ++k) {
        bytes[k] = s->comm_bytes[k] - bytes0_[k];
      }
      messages = std::accumulate(s->messages.begin(), s->messages.end(),
                                 std::uint64_t{0}) -
                 messages0_;
    }
    rec_->close(start_, seconds, flops, bytes, messages, phase_,
                self_seconds);
  }
}

}  // namespace rahooi::prof
