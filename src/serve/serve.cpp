#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "comm/errors.hpp"
#include "comm/runtime.hpp"
#include "core/checkpoint.hpp"
#include "core/rank_adaptive.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "io/tensor_io.hpp"
#include "model/cost_model.hpp"

namespace rahooi::serve {

namespace {

/// Modeled cost of spawning and joining one rank thread of a job world —
/// the multi-tenancy term the Table 1/2 formulas don't know about. It is
/// what stops the elastic planner from handing every tiny job the whole
/// pool: a job whose modeled solve time is comparable to the spawn cost
/// gains nothing from extra ranks but would still crowd out its neighbors.
constexpr double kWorldSpawnSeconds = 2e-4;

/// The serve job runner's input: the same parameters as
/// examples/driver_common.hpp make_input.
template <typename T>
dist::DistTensor<T> make_input(const io::ParamFile& params,
                               const dist::ProcessorGrid& grid,
                               const std::vector<idx_t>& dims,
                               const std::vector<idx_t>& ranks) {
  if (params.has("Input file")) {
    return io::read_dist_tensor<T>(grid, dims,
                                   params.get_string("Input file"));
  }
  return data::make_dataset<T>(
      params.get_string("Dataset", "synthetic"), grid, dims, ranks,
      params.get_double("Noise", 1e-4),
      static_cast<std::uint64_t>(params.get_int("Seed", 1)));
}

/// Solver options from the request parameters — the same mapping as
/// examples/hooi_driver.cpp, minus the terminal output.
core::HooiOptions hooi_options_from(const io::ParamFile& params,
                                    const std::vector<idx_t>& dims,
                                    const std::vector<idx_t>& decomposition,
                                    const std::vector<int>& gdims,
                                    double pool_timeout_s) {
  core::HooiOptions o;
  o.use_dimension_tree = params.get_bool("Dimension Tree Memoization", false);
  o.max_iters = static_cast<int>(params.get_int("HOOI max iters", 2));
  o.sketch.oversample = params.get_int("Sketch Oversample", 8);
  o.sketch.min_cols = params.get_int("Sketch Min Cols", 16);
  o.sketch.growth = params.get_double("Sketch Growth", 2.0);
  o.sketch.safety = params.get_double("Sketch Safety", 0.5);
  o.sketch.deterministic = params.get_bool("Sketch Deterministic", false);
  long long svd_method = params.get_int("SVD Method", 0);
  if (svd_method == -1) {
    model::Problem prob;
    prob.d = static_cast<int>(dims.size());
    for (const auto v : dims) prob.n = std::max(prob.n, double(v));
    for (const auto v : decomposition) prob.r = std::max(prob.r, double(v));
    prob.iters = o.max_iters;
    prob.grid = gdims;
    switch (model::pick_llsv_backend(prob, o.sketch.oversample,
                                     /*warm_start=*/true)) {
      case model::LlsvBackend::gram_evd: svd_method = 0; break;
      case model::LlsvBackend::subspace_iteration: svd_method = 2; break;
      case model::LlsvBackend::sketch: svd_method = 3; break;
    }
  }
  RAHOOI_REQUIRE(svd_method >= 0 && svd_method <= 4,
                 "'SVD Method' must be in [0, 4] or -1 (auto)");
  o.svd_method = static_cast<core::SvdMethod>(svd_method);
  o.seed = static_cast<std::uint64_t>(params.get_int("Seed", 1));
  // The pool-level watchdog and the per-request one compose as the larger
  // deadline: the request knows its solve, the operator knows the pool.
  o.collective_timeout_ms =
      std::max(params.get_double("Collective timeout ms", 0.0),
               pool_timeout_s * 1000.0);
  o.checkpoint_path = params.get_string("Checkpoint file", "");
  return o;
}

/// True when `path` names a readable file — how the dispatcher decides
/// whether a retrying/preempted job has a checkpoint to resume from.
bool file_exists(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f.good();
}

/// Everything a solve attempt needs beyond the request itself: the pool's
/// knobs plus the job's resilience plumbing (job-scoped fault plan,
/// checkpoint/restore paths, cooperative yield flag).
struct AttemptConfig {
  double pool_timeout_s = 0.0;
  int comm_check = -1;
  const fault::Plan* fault_plan = nullptr;  ///< scoped to this job's world
  std::string checkpoint_path;  ///< "" = no periodic checkpointing
  std::string restore_path;     ///< "" = fresh start
  const std::atomic<int>* yield_flag = nullptr;
  std::uint64_t trace_id = 0;   ///< job's trace context (RunOptions::trace_id)
};

/// Runs one solve attempt for a dispatched job inside its own
/// Runtime::run world and fills the result fields of job.report. Throws on
/// failure (the caller classifies it) — but a world is always fully joined
/// before the exception reaches us, so no rank is ever left parked.
template <typename T>
void run_typed(Scheduler::JobId, SolveRequest& req, RankPlan& plan,
               SolveReport& rep, const AttemptConfig& cfg) {
  const io::ParamFile& params = req.params;
  const auto dims = params.get_dims("Global dims");
  auto decomposition = params.get_dims("Decomposition Ranks");
  if (decomposition.empty()) decomposition = params.get_dims("Ranks");
  auto construction = params.get_dims("Construction Ranks");
  RAHOOI_REQUIRE(!dims.empty(), "'Global dims' is required");
  RAHOOI_REQUIRE(!decomposition.empty(),
                 "'Decomposition Ranks' (or 'Ranks') is required");
  if (construction.empty()) construction = decomposition;

  core::HooiOptions hooi_opts = hooi_options_from(
      params, dims, decomposition, plan.grid, cfg.pool_timeout_s);
  const double adapt = params.get_double("HOOI-Adapt Threshold", 0.0);
  if (!cfg.checkpoint_path.empty()) {
    hooi_opts.checkpoint_path = cfg.checkpoint_path;
  }
  hooi_opts.restore_path = cfg.restore_path;
  hooi_opts.yield_flag = cfg.yield_flag;

  auto result = std::make_shared<JobResult>();
  result->single = std::is_same_v<T, float>;

  comm::RunOptions ro;
  ro.comm_check = cfg.comm_check;
  // Job-scoped fault injection: the job's plan rides RunOptions::fault_plan
  // into the rank threads of *this* world only, so a concurrent neighbor
  // job can never match its rules (the process-wide ScopedPlan caveat of
  // DESIGN.md §13, now closed). The Plan is owned by the Job and shared
  // across attempts, so rule counters persist through retries.
  ro.fault_plan = cfg.fault_plan;
  ro.trace_id = cfg.trace_id;
  // Failure capture: when this attempt's world dies, every rank's flight
  // timeline lands in `failures` and the guard below moves them onto the
  // report while the exception unwinds through us — the post-mortem "what
  // was each rank doing" view (docs/OBSERVABILITY.md). A clean attempt
  // leaves `failures` empty and the report untouched, so the timelines of
  // the last absorbed fault survive a successful retry.
  std::vector<comm::RankFailure> failures;
  ro.failures = &failures;
  struct FlightCapture {
    std::vector<comm::RankFailure>& failures;
    SolveReport& rep;
    ~FlightCapture() {
      if (failures.empty()) return;
      rep.flight.clear();
      rep.flight.reserve(failures.size());
      for (comm::RankFailure& f : failures) {
        rep.flight.push_back(std::move(f.flight));
      }
    }
  } capture{failures, rep};
  comm::Runtime::run(
      plan.p,
      [&](comm::Comm& world) {
        dist::ProcessorGrid grid(world, plan.grid);
        auto x = make_input<T>(params, grid, dims, construction);
        world.barrier();
        if (adapt > 0.0) {
          core::RankAdaptiveOptions opt;
          opt.hooi = hooi_opts;
          opt.tolerance = adapt;
          opt.max_iters = hooi_opts.max_iters;
          opt.growth_factor = params.get_double("Rank growth factor", 1.5);
          const std::string init = params.get_string("RA Init", "random");
          RAHOOI_REQUIRE(init == "sketched" || init == "random",
                         "'RA Init' must be 'sketched' or 'random'");
          opt.init = init == "random" ? core::RaInit::random_factors
                                      : core::RaInit::sketched_sthosvd;
          auto res = core::rank_adaptive_hooi(x, decomposition, opt);
          if (world.rank() == 0) {
            rep.tucker_ranks = res.tucker.ranks();
            rep.rel_error = res.rel_error;
            rep.compressed_size = res.compressed_size;
            rep.solve = std::move(res.report);
            if constexpr (std::is_same_v<T, float>) {
              result->tucker_f = std::move(res.tucker);
            } else {
              result->tucker_d = std::move(res.tucker);
            }
          }
        } else {
          auto res = core::hooi(x, decomposition, hooi_opts);
          auto tucker = res.decomposition.replicated();  // collective
          if (world.rank() == 0) {
            rep.tucker_ranks = tucker.ranks();
            rep.rel_error = res.decomposition.relative_error();
            rep.compressed_size = tucker.compressed_size();
            rep.solve = std::move(res.report);
            if constexpr (std::is_same_v<T, float>) {
              result->tucker_f = std::move(tucker);
            } else {
              result->tucker_d = std::move(tucker);
            }
          }
        }
      },
      nullptr, nullptr, ro);
  rep.result = std::move(result);
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::low: return "low";
    case Priority::normal: return "normal";
    case Priority::high: return "high";
  }
  return "unknown";
}

Priority priority_from_name(const std::string& name) {
  if (name == "low") return Priority::low;
  if (name == "normal") return Priority::normal;
  if (name == "high") return Priority::high;
  throw precondition_error("'Serve priority' must be low, normal, or high: " +
                           name);
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::completed: return "completed";
    case Outcome::cache_hit: return "cache_hit";
    case Outcome::shed: return "shed";
    case Outcome::deadline_miss: return "deadline_miss";
    case Outcome::failed: return "failed";
  }
  return "unknown";
}

RankPlan plan_ranks(const io::ParamFile& params, int pool_ranks) {
  RAHOOI_REQUIRE(pool_ranks >= 1, "serve pool must own at least one rank");
  const auto dims = params.get_dims("Global dims");
  RAHOOI_REQUIRE(!dims.empty(), "'Global dims' is required");
  const int d = static_cast<int>(dims.size());

  const auto gdims = params.get_ints("Processor grid dims");
  if (!gdims.empty()) {
    RAHOOI_REQUIRE(static_cast<int>(gdims.size()) == d,
                   "'Processor grid dims' order must match 'Global dims'");
    int p = 1;
    for (const int g : gdims) {
      RAHOOI_REQUIRE(g >= 1, "'Processor grid dims' must be positive");
      p *= g;
    }
    RAHOOI_REQUIRE(p <= pool_ranks,
                   "requested grid needs " + std::to_string(p) +
                       " ranks but the serve pool owns only " +
                       std::to_string(pool_ranks));
    return RankPlan{p, gdims, /*elastic=*/false};
  }

  // Elastic sizing: model every power-of-two world size up to the pool,
  // with the best grid per size, and charge each candidate the world-spawn
  // overhead its extra ranks cost. Then take the smallest world within 15%
  // of the fastest — modeled speedups flatten long before the pool is
  // exhausted, and leftover ranks serve the next tenant.
  model::Problem prob;
  prob.d = d;
  for (const auto v : dims) prob.n = std::max(prob.n, double(v));
  auto ranks = params.get_dims("Decomposition Ranks");
  if (ranks.empty()) ranks = params.get_dims("Ranks");
  for (const auto v : ranks) prob.r = std::max(prob.r, double(v));
  if (prob.r <= 0.0) prob.r = std::max(1.0, prob.n / 8.0);
  prob.iters = static_cast<int>(params.get_int("HOOI max iters", 2));

  const bool tree = params.get_bool("Dimension Tree Memoization", false);
  const bool subspace = params.get_int("SVD Method", 0) != 0;
  const model::Algorithm algo =
      tree ? (subspace ? model::Algorithm::hosi_dt : model::Algorithm::hooi_dt)
           : (subspace ? model::Algorithm::hosi : model::Algorithm::hooi);

  const model::MachineRates rates;
  struct Candidate {
    int p;
    std::vector<int> grid;
    double seconds;
  };
  std::vector<Candidate> candidates;
  for (int p = 1; p <= pool_ranks; p *= 2) {
    Candidate c;
    c.p = p;
    c.grid = model::best_grid(algo, d, prob.n, prob.r, prob.iters, p, rates);
    prob.grid = c.grid;
    c.seconds = model::modeled_seconds_roofline(model::predict(algo, prob),
                                                rates, p) +
                kWorldSpawnSeconds * p;
    candidates.push_back(std::move(c));
  }
  double fastest = candidates.front().seconds;
  for (const Candidate& c : candidates) fastest = std::min(fastest, c.seconds);
  for (const Candidate& c : candidates) {
    if (c.seconds <= 1.15 * fastest) {
      return RankPlan{c.p, c.grid, /*elastic=*/true};
    }
  }
  return RankPlan{candidates.back().p, candidates.back().grid, true};
}

std::uint64_t request_fingerprint(const io::ParamFile& params) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1fu;  // field separator
    h *= 1099511628211ull;
  };
  for (const io::ParamKey& k : io::param_key_table()) {
    if (!k.cache_key || !params.has(k.key)) continue;
    mix(k.key);
    mix(params.get_string(k.key));
  }
  return h;
}

Scheduler::Scheduler(ServeOptions options) : options_(options) {
  RAHOOI_REQUIRE(options_.pool_ranks >= 1,
                 "ServeOptions::pool_ranks must be >= 1");
  RAHOOI_REQUIRE(options_.workers >= 1, "ServeOptions::workers must be >= 1");
  RAHOOI_REQUIRE(options_.max_queue >= 1,
                 "ServeOptions::max_queue must be >= 1");
  free_ranks_ = options_.pool_ranks;
  paused_ = options_.start_paused;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    // Shed what never ran — reported, not dropped: a caller still blocked in
    // wait() gets a well-formed shed report instead of a hang.
    const std::vector<std::shared_ptr<Job>> pending = queue_;
    queue_.clear();
    for (const auto& job : pending) {
      registry_.serve_queue_sub(1.0);
      finish_locked(job, Outcome::shed, "scheduler shutdown");
    }
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
}

Scheduler::JobId Scheduler::submit(SolveRequest req) {
  std::unique_lock<std::mutex> lock(mu_);
  const JobId id = ++next_id_;
  auto job = std::make_shared<Job>();
  job->id = id;
  job->req = std::move(req);
  job->submit_time = stats::now();
  job->report.id = id;
  job->report.name = job->req.name;
  // Mint the job's trace context now, before admission can shed it: every
  // report names its trace id, even one that never ran a world. The id here
  // doubles as the submit sequence (ids are dense per scheduler), so the
  // mint is stable across replays of one submission order.
  job->trace_id = obs::mint_trace_id(id, id);
  job->report.trace_id = job->trace_id;
  jobs_[id] = job;
  registry_.count(metrics::Counter::serve_submitted);

  try {
    const io::ParamFile& params = job->req.params;
    if (params.has("Serve priority")) {
      job->req.priority =
          priority_from_name(params.get_string("Serve priority"));
    }
    job->deadline_s =
        params.get_double("Serve deadline s", job->req.deadline_s);
    RAHOOI_REQUIRE(job->deadline_s >= 0.0,
                   "'Serve deadline s' must be >= 0");
    job->plan = plan_ranks(params, options_.pool_ranks);
    if (job->plan.elastic) {
      // Canonicalize the chosen grid into the params so the fingerprint of
      // an elastic request matches an explicit request for the same grid.
      std::string joined;
      for (std::size_t j = 0; j < job->plan.grid.size(); ++j) {
        joined += (j == 0 ? "" : " ") + std::to_string(job->plan.grid[j]);
      }
      job->req.params.set("Processor grid dims", joined);
    }
    job->retry.max_attempts =
        static_cast<int>(params.get_int("Serve max attempts", 1));
    RAHOOI_REQUIRE(job->retry.max_attempts >= 1,
                   "'Serve max attempts' must be >= 1");
    job->retry.backoff_base_ms =
        params.get_double("Serve retry backoff ms", 0.0);
    job->retry.jitter_ms = params.get_double("Serve retry jitter ms", 0.0);
    RAHOOI_REQUIRE(
        job->retry.backoff_base_ms >= 0.0 && job->retry.jitter_ms >= 0.0,
        "'Serve retry backoff ms' / 'Serve retry jitter ms' must be >= 0");
    job->keep_checkpoint = options_.keep_checkpoints ||
                           params.get_bool("Serve keep checkpoint", false);
    job->checkpoint_path = params.get_string("Checkpoint file", "");
    if (job->checkpoint_path.empty() && !options_.checkpoint_dir.empty()) {
      job->checkpoint_path = options_.checkpoint_dir + "/job-" +
                             std::to_string(id) + ".rhk";
    }
    job->report.priority = job->req.priority;
    job->report.grid = job->plan.grid;
    job->report.elastic_grid = job->plan.elastic;
    job->report.fingerprint = request_fingerprint(job->req.params);
  } catch (const std::exception& e) {
    finish_locked(job, Outcome::failed, std::string("rejected: ") + e.what());
    return id;
  }

  if (stopping_) {
    finish_locked(job, Outcome::shed, "scheduler shutting down");
    return id;
  }
  if (queue_.size() >= options_.max_queue) {
    // Backpressure. The queue is sorted (priority desc, id asc), so the
    // back is the lowest-priority, latest-submitted job: evict it when the
    // newcomer strictly outranks it, otherwise shed the newcomer.
    const std::shared_ptr<Job> victim = queue_.back();
    if (victim->req.priority < job->req.priority) {
      queue_.pop_back();
      registry_.serve_queue_sub(1.0);
      finish_locked(victim, Outcome::shed,
                    "evicted by higher-priority job '" + job->req.name + "'");
    } else {
      finish_locked(job, Outcome::shed,
                    "queue full (" + std::to_string(options_.max_queue) +
                        " jobs) and no lower-priority job to evict");
      return id;
    }
  }
  enqueue_locked(job);
  registry_.serve_queue_add(1.0);
  work_cv_.notify_all();
  return id;
}

void Scheduler::enqueue_locked(const std::shared_ptr<Job>& job) {
  auto it = std::upper_bound(
      queue_.begin(), queue_.end(), job,
      [](const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
        if (a->req.priority != b->req.priority) {
          return a->req.priority > b->req.priority;
        }
        return a->id < b->id;
      });
  queue_.insert(it, job);
}

SolveReport Scheduler::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  RAHOOI_REQUIRE(it != jobs_.end(),
                 "unknown serve job id: " + std::to_string(id));
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return job->done; });
  return job->report;
}

std::vector<SolveReport> Scheduler::drain() {
  std::vector<JobId> ids;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::vector<SolveReport> reports;
  reports.reserve(ids.size());
  for (const JobId id : ids) reports.push_back(wait(id));
  return reports;
}

void Scheduler::start() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

metrics::Registry Scheduler::metrics() const {
  std::unique_lock<std::mutex> lock(mu_);
  return registry_;
}

obs::Status Scheduler::status() const {
  std::unique_lock<std::mutex> lock(mu_);
  obs::Status s;
  s.time = stats::now();
  s.queue_depth = queue_.size();
  s.cache_entries = cache_.size();
  s.cache_capacity = options_.cache_capacity;
  s.free_ranks = free_ranks_;
  s.pool_ranks = options_.pool_ranks;
  s.paused = paused_;
  s.stopping = stopping_;
  const auto row = [&s](const Job& j, const char* stage) {
    obs::JobStatus js;
    js.id = j.id;
    js.name = j.req.name;
    js.trace_id = j.trace_id;
    js.priority = priority_name(j.req.priority);
    js.stage = stage;
    js.attempts = j.attempts;
    js.world = j.plan.p;
    return js;
  };
  for (const auto& job : queue_) {
    ++s.queued_by_priority[static_cast<int>(job->req.priority)];
    obs::JobStatus js = row(*job, "queued");
    js.elapsed_s = std::max(0.0, s.time - job->submit_time);
    s.jobs.push_back(std::move(js));
  }
  for (const auto& job : running_) {
    obs::JobStatus js = row(*job, "running");
    js.elapsed_s = std::max(0.0, s.time - job->dispatch_time);
    s.jobs.push_back(std::move(js));
  }
  return s;
}

const Scheduler::Job* Scheduler::cache_find_locked(std::uint64_t key) const {
  for (const CacheEntry& e : cache_) {
    if (e.key == key) return e.source.get();
  }
  return nullptr;
}

void Scheduler::cache_insert_locked(const std::shared_ptr<Job>& job) {
  if (options_.cache_capacity == 0) return;
  const std::uint64_t key = job->report.fingerprint;
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].key == key) {
      cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (cache_.size() >= options_.cache_capacity) cache_.erase(cache_.begin());
  cache_.push_back(CacheEntry{key, job});
}

void Scheduler::finish_locked(const std::shared_ptr<Job>& job, Outcome outcome,
                              std::string error) {
  Job& j = *job;
  SolveReport& r = j.report;
  r.outcome = outcome;
  if (r.error.empty()) r.error = std::move(error);
  r.total_seconds = stats::now() - j.submit_time;
  r.queue_seconds = std::max(0.0, r.total_seconds - r.solve_seconds);
  if (outcome == Outcome::completed && j.deadline_s > 0.0 &&
      r.total_seconds > j.deadline_s) {
    r.deadline_overrun = true;
  }

  switch (outcome) {
    case Outcome::completed:
      registry_.count(metrics::Counter::serve_completed);
      cache_insert_locked(job);
      break;
    case Outcome::cache_hit:
      registry_.count(metrics::Counter::serve_cache_hits);
      break;
    case Outcome::shed:
      registry_.count(metrics::Counter::serve_shed);
      break;
    case Outcome::deadline_miss:
      registry_.count(metrics::Counter::serve_deadline_misses);
      break;
    case Outcome::failed:
      registry_.count(metrics::Counter::serve_failed);
      break;
  }
  if (r.deadline_overrun) {
    registry_.count(metrics::Counter::serve_deadline_misses);
  }

  registry_.record_serve_stage(metrics::ServeStage::queue, r.queue_seconds);
  registry_.record_serve_stage(metrics::ServeStage::solve, r.solve_seconds);
  registry_.record_serve_stage(metrics::ServeStage::total, r.total_seconds);

  metrics::Event e;
  e.solver = "serve";
  e.kind = "solve";
  e.sweep = static_cast<int>(++finished_seq_);  // completion order
  e.ranks = r.tucker_ranks;
  e.rel_error = r.rel_error;
  e.seconds = r.total_seconds;
  e.compressed_size = r.compressed_size;
  e.fallbacks = r.solve.fallbacks;
  e.retries = r.solve.retries;
  e.satisfied = r.ok();
  // Stamped explicitly: the dispatcher thread runs outside any world, so
  // add_event's thread-local trace fallback would see no context here.
  e.trace_id = j.trace_id;
  e.detail = std::string(outcome_name(outcome)) + ":" + r.name;
  registry_.add_event(std::move(e));

  j.done = true;
  done_cv_.notify_all();
}

void Scheduler::maybe_preempt_locked(const Job& head) {
  // Only a high-priority arrival justifies interrupting running work; a
  // normal job waiting on ranks just waits (head-of-line, nothing starves).
  if (head.req.priority != Priority::high) return;
  std::shared_ptr<Job> victim;
  for (const auto& j : running_) {
    // One outstanding request at a time: the head is already waiting for
    // this victim's ranks, and signalling more would thrash the pool.
    if (j->preempt_requested) return;
    if (j->req.priority >= head.req.priority) continue;
    if (j->checkpoint_path.empty()) continue;  // nowhere to save its state
    if (victim == nullptr || j->req.priority < victim->req.priority ||
        (j->req.priority == victim->req.priority && j->id > victim->id)) {
      victim = j;  // lowest priority; among equals, least sunk cost
    }
  }
  if (victim == nullptr) return;
  victim->preempt_requested = true;
  // The solver loop reads this at the next sweep boundary, broadcasts the
  // verdict, and every rank throws core::PreemptedError — the previous
  // boundary's checkpoint is already on disk (core/options.hpp yield_flag).
  victim->yield->store(1, std::memory_order_release);
}

Scheduler::RunStatus Scheduler::run_job(Job& job, bool restore) {
  SolveReport& r = job.report;
  const double t0 = stats::now();
  RunStatus status = RunStatus::completed;
  ++job.attempts;
  try {
    r.ranks_used = job.plan.p;
    ++r.attempts;
    if (restore) ++r.resumes;

    // Parse the job's fault plan once (first attempt), not once per
    // attempt: the shared rule counters make "kill:sweep@1%1" fire exactly
    // once, so the retry of that job survives the sweep that killed it.
    const std::string fault_spec =
        job.req.params.get_string("Fault plan", "");
    if (!fault_spec.empty() && !job.fault_plan.has_value()) {
      job.fault_plan.emplace(fault::Plan::parse(
          fault_spec,
          static_cast<std::uint64_t>(job.req.params.get_int("Fault seed", 1))));
    }

    AttemptConfig cfg;
    cfg.pool_timeout_s = options_.collective_timeout_s;
    cfg.comm_check = options_.comm_check;
    cfg.fault_plan = job.fault_plan.has_value() ? &*job.fault_plan : nullptr;
    cfg.checkpoint_path = job.checkpoint_path;
    if (restore) cfg.restore_path = job.checkpoint_path;
    cfg.yield_flag = job.yield.get();
    cfg.trace_id = job.trace_id;

    if (job.req.params.get_bool("Single precision", true)) {
      run_typed<float>(job.id, job.req, job.plan, r, cfg);
    } else {
      run_typed<double>(job.id, job.req, job.plan, r, cfg);
    }
    r.outcome = Outcome::completed;
    r.error.clear();  // forget the transient failures the retries absorbed
  } catch (const core::PreemptedError&) {
    // Cooperative yield, not a failure: state is checkpointed, the world is
    // joined, and the attempt doesn't count against the retry budget.
    --job.attempts;
    --r.attempts;
    if (restore) --r.resumes;
    r.result.reset();
    status = RunStatus::preempted;
  } catch (const comm::TimeoutError& e) {
    r.error = e.what();
    r.result.reset();
    status = RunStatus::transient;  // watchdog: hang, not a wrong answer
  } catch (const comm::AbortedError& e) {
    r.error = e.what();
    r.result.reset();
    status = RunStatus::transient;  // secondary casualty of a world fault
  } catch (const fault::RankKilledError& e) {
    // Never retried *within* a world (with_retry's rule) — but the job
    // level spawns a fresh world per attempt, which is exactly the
    // fail-stop recovery a kill models. Transient.
    r.error = e.what();
    r.result.reset();
    status = RunStatus::transient;
  } catch (const comm::CommError& e) {
    r.error = e.what();
    r.result.reset();
    status = RunStatus::transient;  // injected comm fault that leaked past
                                    // the collective's own with_retry
  } catch (const std::exception& e) {
    // Deterministic failures — precondition_error (bad request),
    // numerical_error, checkpoint corruption, ScheduleDivergenceError —
    // would fail identically on every attempt: never retried. The job's
    // world is already fully joined (Runtime::run's contract) whatever
    // unwound, so the failure is contained to this report either way.
    r.error = e.what();
    r.result.reset();
    status = RunStatus::failed;
  }
  r.solve_seconds += stats::now() - t0;  // accumulates across attempts
  return status;
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;  // destructor already shed the queue
    if (paused_ || queue_.empty()) {
      work_cv_.wait(lock);
      continue;
    }

    // Head-of-line dispatch: the front job is the only candidate. It is
    // dispatchable when its ranks fit — or when it will not run a world at
    // all (expired deadline, cache hit), which needs no ranks.
    {
      const Job& front = *queue_.front();
      const double now = stats::now();
      const bool expired = front.deadline_s > 0.0 &&
                           now - front.submit_time > front.deadline_s;
      const bool cached =
          cache_find_locked(front.report.fingerprint) != nullptr;
      if (!expired && !cached) {
        if (now < front.not_before) {
          // Retry backoff: sleep-free by construction (src/ forbids
          // sleeps) — a timed wait on the work cv, re-checked on wake.
          work_cv_.wait_for(
              lock, std::chrono::duration<double>(front.not_before - now));
          continue;
        }
        if (front.plan.p > free_ranks_) {
          // Not enough ranks. A high-priority head may checkpoint-preempt
          // the lowest-priority running job; otherwise wait for a finish.
          maybe_preempt_locked(front);
          work_cv_.wait(lock);
          continue;
        }
      }
    }

    const std::shared_ptr<Job> job = queue_.front();
    queue_.erase(queue_.begin());
    registry_.serve_queue_sub(1.0);

    const double now = stats::now();
    if (job->deadline_s > 0.0 &&
        now - job->submit_time > job->deadline_s) {
      finish_locked(job, Outcome::deadline_miss,
                    "deadline of " + std::to_string(job->deadline_s) +
                        "s expired before dispatch");
      continue;
    }
    if (const Job* src = cache_find_locked(job->report.fingerprint)) {
      // Result reuse: alias the cached JobResult, so the returned factors
      // are bitwise-identical to the original solve's (same memory).
      const SolveReport& cached = src->report;
      job->report.result = cached.result;
      job->report.tucker_ranks = cached.tucker_ranks;
      job->report.rel_error = cached.rel_error;
      job->report.compressed_size = cached.compressed_size;
      job->report.solve = cached.solve;
      finish_locked(job, Outcome::cache_hit, "");
      continue;
    }

    // Resume only state this job itself wrote: a checkpoint file can exist
    // on the first attempt (the request pointed at a stale path) and must
    // not silently seed the solve then.
    const bool restore =
        (job->attempts > 0 || job->report.preemptions > 0) &&
        !job->checkpoint_path.empty() && file_exists(job->checkpoint_path);
    if (restore) registry_.count(metrics::Counter::serve_resumes);

    job->dispatch_time = now;
    free_ranks_ -= job->plan.p;
    running_.push_back(job);
    lock.unlock();
    const RunStatus status = run_job(*job, restore);
    lock.lock();
    free_ranks_ += job->plan.p;
    running_.erase(std::find(running_.begin(), running_.end(), job));

    switch (status) {
      case RunStatus::completed:
        finish_locked(job, Outcome::completed, "");
        if (!job->checkpoint_path.empty() && !job->keep_checkpoint) {
          // The checkpoint only existed to survive faults; done surviving.
          std::remove(job->checkpoint_path.c_str());
        }
        break;
      case RunStatus::failed:
        finish_locked(job, Outcome::failed, job->report.error);
        break;
      case RunStatus::transient:
        if (job->attempts < job->retry.max_attempts && !stopping_) {
          registry_.count(metrics::Counter::serve_retries);
          // Exponential backoff with deterministic jitter, keyed by
          // (job id, attempt) so a soak replays bit-for-bit.
          const double backoff_ms =
              job->retry.backoff_base_ms *
                  std::pow(2.0, double(job->attempts - 1)) +
              CounterRng(job->id).stream(0x5e12e7ull).uniform(
                  static_cast<std::uint64_t>(job->attempts), 0.0,
                  job->retry.jitter_ms);
          job->not_before = stats::now() + backoff_ms * 1e-3;
          job->report.error.clear();  // absorbed unless the budget runs out
          enqueue_locked(job);
          registry_.serve_queue_add(1.0);
        } else {
          finish_locked(job, Outcome::failed, job->report.error);
        }
        break;
      case RunStatus::preempted:
        job->yield->store(0, std::memory_order_release);
        job->preempt_requested = false;
        if (stopping_) {
          finish_locked(job, Outcome::shed,
                        "scheduler shutdown while preempted");
          break;
        }
        registry_.count(metrics::Counter::serve_preemptions);
        ++job->report.preemptions;
        enqueue_locked(job);  // resumes from its checkpoint when ranks free
        registry_.serve_queue_add(1.0);
        break;
    }
    work_cv_.notify_all();  // freed ranks may unblock the next job
  }
}

}  // namespace rahooi::serve
