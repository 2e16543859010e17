#include "core/solve_session.hpp"

#include <string>

#include "comm/monitor.hpp"
#include "fault/fault.hpp"
#include "metrics/report.hpp"
#include "obs/flight_recorder.hpp"

namespace rahooi::core {

void count_fallback(SolveReport& report) {
  ++report.fallbacks;
  if (metrics::Registry* reg = metrics::registry()) {
    reg->count(metrics::Counter::solver_fallbacks);
  }
}

namespace {

std::uint64_t retries_now(const metrics::Registry* reg) {
  return reg != nullptr ? reg->counter(metrics::Counter::fault_retries) : 0;
}

}  // namespace

template <typename T>
SolveSession<T>::SolveSession(const dist::DistTensor<T>& x, const char* name,
                              HooiOptions options, SolveReport* report,
                              CheckpointKind kind)
    : x_(x),
      name_(name),
      options_(std::move(options)),
      report_(report),
      kind_(kind),
      mreg_(metrics::registry()),
      retries0_(retries_now(mreg_)),
      root_(name, Phase::other) {
  if (options_.collective_timeout_ms > 0.0) {
    x.grid().world().set_collective_timeout(options_.collective_timeout_ms /
                                            1000.0);
  }
  take_baseline();
}

template <typename T>
std::optional<SweepCheckpoint<T>> SolveSession<T>::restore(
    int max_iters) const {
  if (options_.restore_path.empty()) return std::nullopt;
  SweepCheckpoint<T> ck = load_checkpoint<T>(options_.restore_path);
  RAHOOI_REQUIRE(ck.kind == kind_,
                 std::string("restore: checkpoint was written by ") +
                     (ck.kind == CheckpointKind::hooi ? "fixed-rank hooi()"
                                                      : "rank_adaptive_hooi"));
  RAHOOI_REQUIRE(ck.seed == options_.seed,
                 "restore: checkpoint seed differs from the options' seed");
  RAHOOI_REQUIRE(static_cast<int>(ck.factors.size()) == x_.ndims(),
                 "restore: checkpoint order differs from the tensor");
  for (int j = 0; j < x_.ndims(); ++j) {
    RAHOOI_REQUIRE(ck.factors[j].rows() == x_.global_dim(j),
                   "restore: checkpoint dims differ from the tensor");
  }
  RAHOOI_REQUIRE(ck.sweeps_done < max_iters,
                 "restore: checkpointed solve already ran max_iters steps");
  return ck;
}

template <typename T>
void SolveSession<T>::begin_step(int done) {
  const comm::Comm& world = x_.grid().world();
  if (options_.yield_flag != nullptr) {
    int yield = (world.rank() == 0 &&
                 options_.yield_flag->load(std::memory_order_acquire) != 0)
                    ? 1
                    : 0;
    world.bcast(&yield, 1, 0);
    if (yield != 0) {
      if (obs::FlightRecorder* fr = obs::flight_recorder()) {
        fr->record(obs::RecordKind::yield, "sweep", double(done));
      }
      throw PreemptedError(std::string(name_) + " yielded after step " +
                           std::to_string(done));
    }
  }
  fault::inject_point("sweep", comm::fault_rank(world.rank()));
  step_ = done + 1;
  take_baseline();
}

template <typename T>
void SolveSession<T>::take_baseline() {
  st_ = stats::current();
  flops0_ = st_ != nullptr ? st_->total_flops() : 0.0;
  bytes0_ = st_ != nullptr ? st_->total_comm_bytes() : 0.0;
  step_retries0_ = retries_now(mreg_);
  step_fallbacks0_ = report_ != nullptr ? report_->fallbacks : 0;
  t0_ = stats::now();
}

template <typename T>
void SolveSession<T>::step_done(
    metrics::Event ev,
    const std::function<SweepCheckpoint<T>()>& make_checkpoint) {
  if (!options_.checkpoint_path.empty() && x_.grid().world().rank() == 0) {
    SweepCheckpoint<T> ck = make_checkpoint();
    ck.kind = kind_;
    ck.sweeps_done = step_;
    ck.seed = options_.seed;
    save_checkpoint(options_.checkpoint_path, ck);
  }
  if (mreg_ == nullptr) return;
  mreg_->count(metrics::Counter::solver_sweeps);
  ev.sweep = step_;
  ev.retries = retries_now(mreg_) - step_retries0_;
  ev.fallbacks = report_->fallbacks - step_fallbacks0_;
  ev.llsv_fallback = ev.fallbacks > 0;
  log(std::move(ev));
}

template <typename T>
void SolveSession<T>::log(metrics::Event ev) {
  if (mreg_ == nullptr) return;
  ev.solver = name_;
  if (st_ != nullptr) {
    ev.flops = st_->total_flops() - flops0_;
    ev.comm_bytes = st_->total_comm_bytes() - bytes0_;
  }
  mreg_->add_event(ev);
}

template <typename T>
void SolveSession<T>::finish() {
  if (mreg_ != nullptr) {
    report_->retries = retries_now(mreg_) - retries0_;
    report_->metrics_snapshot = metrics::snapshot(*mreg_);
  }
  report_->trace_id = obs::trace_id();
}

template class SolveSession<float>;
template class SolveSession<double>;

}  // namespace rahooi::core
