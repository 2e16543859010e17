// The serve probe of every traced run: one generator thread drives
// serve::Scheduler in a closed loop with a fixed number of jobs outstanding
// (README.md, "The serve probe").
//
// New requests are small HOSI-DT fixed-rank jobs or larger RA-HOSI-DT jobs
// on synthetic Tucker tensors; about one request in four repeats a recently
// completed one, which the result cache answers. Requests carry no grid, so
// serve::plan_ranks sizes every world. After the loop every report is
// checked: well-formed, cold results re-verified by explicit reconstruction
// of a regenerated input, cache hits bitwise equal to their cold result.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "la/qr.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace rahooi;
using la::idx_t;

namespace {

constexpr int kOutstanding = 4;
constexpr double kEps = 0.01;
constexpr std::size_t kRepeatWindow = 8;  ///< repeats pick among the last 8

/// One distinct request of the mix.
struct JobSpec {
  bool heavy = false;  ///< RA-HOSI-DT at eps, else fixed-rank HOSI-DT
  idx_t n = 0;
  idx_t construction_rank = 0;
  idx_t decomposition_rank = 0;
  std::uint64_t data_seed = 0;

  std::vector<idx_t> dims() const { return {n, n, n}; }
  std::vector<idx_t> construction() const {
    return {construction_rank, construction_rank, construction_rank};
  }

  io::ParamFile params() const {
    const std::string r = std::to_string(decomposition_rank);
    const std::string c = std::to_string(construction_rank);
    const std::string d = std::to_string(n);
    std::string text = "Global dims = " + d + " " + d + " " + d + "\n" +
                       "Construction Ranks = " + c + " " + c + " " + c +
                       "\nDecomposition Ranks = " + r + " " + r + " " + r +
                       "\nNoise = 0.001\nSVD Method = 2\n"
                       "Dimension Tree Memoization = true\n"
                       "Seed = " + std::to_string(data_seed) + "\n";
    text += heavy ? "HOOI-Adapt Threshold = 0.01\nHOOI max iters = 3\n"
                  : "HOOI max iters = 2\n";
    return io::ParamFile::parse(text);
  }
};

JobSpec new_job(bool tiny, bool heavy, std::uint64_t data_seed) {
  JobSpec j;
  j.heavy = heavy;
  j.n = heavy ? (tiny ? 32 : 96) : (tiny ? 24 : 64);
  // The RA jobs start below the construction rank and must grow to meet
  // eps; the fixed-rank jobs solve at the construction rank.
  j.construction_rank = heavy ? 6 : 8;
  j.decomposition_rank = heavy ? 4 : 8;
  j.data_seed = data_seed;
  return j;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.pool_ranks = 4;
  o.workers = 2;
  o.max_queue = 32;
  o.cache_capacity = 16;
  return o;
}

struct Done {
  std::size_t spec = 0;  ///< index into the unique specs
  bool repeat = false;
  serve::SolveReport report;
};

/// The closed loop. Returns the reports in completion-wait order.
struct Loop {
  std::vector<JobSpec> specs;
  std::vector<Done> done;
  double wall_s = 0.0;
  std::size_t repeats = 0;
  double queue_peak = 0.0;
};

Loop closed_loop(const Args& args, serve::Scheduler& sched) {
  Loop loop;
  const CounterRng rng(derive_seed(args.seed, kMixSeed));
  std::uint64_t draw = 0;
  const std::size_t jobs = args.tiny ? 40 : 240;
  std::vector<std::size_t> completed_unique;  // spec indices, oldest first
  struct Pending {
    serve::Scheduler::JobId id;
    std::size_t spec;
    bool repeat;
  };
  std::deque<Pending> pending;
  std::size_t submitted = 0;
  const double t0 = stats::now();
  for (;;) {
    while (pending.size() < kOutstanding && submitted < jobs) {
      const bool repeat =
          !completed_unique.empty() && rng.uniform(draw++) < 0.25;
      std::size_t spec = 0;
      if (repeat) {
        const std::size_t window =
            std::min(kRepeatWindow, completed_unique.size());
        const auto pick = static_cast<std::size_t>(
            rng.uniform(draw++) * double(window));
        spec = completed_unique[completed_unique.size() - 1 - pick];
      } else {
        const bool heavy = rng.uniform(draw++) < 1.0 / 3.0;
        spec = loop.specs.size();
        loop.specs.push_back(new_job(
            args.tiny, heavy, derive_seed(args.seed, kDataSeed, spec)));
      }
      serve::SolveRequest req;
      req.name = "job" + std::to_string(submitted);
      req.params = loop.specs[spec].params();
      pending.push_back({sched.submit(std::move(req)), spec, repeat});
      ++submitted;
    }
    if (pending.empty()) break;
    const Pending p = pending.front();
    pending.pop_front();
    Done d{p.spec, p.repeat, sched.wait(p.id)};
    if (!p.repeat && d.report.outcome == serve::Outcome::completed) {
      completed_unique.push_back(p.spec);
    }
    loop.repeats += p.repeat ? 1 : 0;
    loop.done.push_back(std::move(d));
  }
  loop.wall_s = stats::now() - t0;
  loop.queue_peak = sched.metrics().serve_queue().peak;
  return loop;
}

const tensor::TuckerTensor<float>& tucker_of(const serve::SolveReport& r) {
  return r.result->tucker_f;
}

bool bitwise_equal(const tensor::TuckerTensor<float>& a,
                   const tensor::TuckerTensor<float>& b) {
  if (a.core.dims() != b.core.dims() || a.factors.size() != b.factors.size()) {
    return false;
  }
  if (std::memcmp(a.core.data(), b.core.data(),
                  sizeof(float) * std::size_t(a.core.size())) != 0) {
    return false;
  }
  for (std::size_t j = 0; j < a.factors.size(); ++j) {
    const auto& u = a.factors[j];
    const auto& v = b.factors[j];
    if (u.rows() != v.rows() || u.cols() != v.cols() ||
        std::memcmp(u.data(), v.data(),
                    sizeof(float) * std::size_t(u.rows() * u.cols())) != 0) {
      return false;
    }
  }
  return true;
}

/// Checks one report; returns "" when it passes. `reconstruct` adds the
/// explicit-reconstruction check of a cold result, whose |explicit -
/// reported| relative error raises `*disagreement`.
std::string verify(const Done& d, const JobSpec& spec,
                   const std::map<std::size_t, const serve::SolveReport*>& cold,
                   std::size_t index, bool reconstruct, double* disagreement) {
  const serve::SolveReport& r = d.report;
  std::string why;
  if (!r.ok()) return " outcome " + std::string(serve::outcome_name(r.outcome)) +
                      " (" + r.error + ")";
  if (!r.error.empty() || !r.result || r.result->single != true ||
      r.name != "job" + std::to_string(index) || r.fingerprint == 0 ||
      r.trace_id == 0 || r.compressed_size <= 0 || r.queue_seconds < 0.0 ||
      r.solve_seconds < 0.0 || r.total_seconds + 1e-9 < r.solve_seconds ||
      r.tucker_ranks != tucker_of(r).ranks() ||
      (r.outcome == serve::Outcome::completed && r.ranks_used < 1)) {
    why += " malformed report;";
  }
  if (!r.result) return why;
  const tensor::TuckerTensor<float>& t = tucker_of(r);
  if (r.outcome == serve::Outcome::cache_hit) {
    const auto it = cold.find(d.spec);
    if (it == cold.end() || !bitwise_equal(t, tucker_of(*it->second))) {
      why += " cache hit differs from its cold result;";
    }
    return why;
  }
  if (!(r.rel_error >= 0.0 && r.rel_error <= kEps)) {
    why += " reported rel error " + std::to_string(r.rel_error) + " > eps;";
  }
  for (const auto& u : t.factors) {
    if (!(la::orthogonality_error<float>(u.cref()) <= 1e-4)) {
      why += " factor not orthonormal;";
    }
  }
  if (!reconstruct) return why;
  // Explicit reconstruction against the regenerated input.
  const tensor::Tensor<float> x = data::synthetic_tucker_serial<float>(
      spec.dims(), spec.construction(), 1e-3, spec.data_seed);
  const double rel = tensor::relative_error(x, t);
  if (!(rel <= kEps)) why += " explicit rel error " + std::to_string(rel) +
                             " > eps;";
  *disagreement = std::max(*disagreement, std::abs(rel - r.rel_error));
  if (!(std::abs(rel - r.rel_error) <= kAgreement * kEps)) {
    why += " reported rel error " + std::to_string(r.rel_error) +
           " != explicit " + std::to_string(rel) + ";";
  }
  return why;
}

}  // namespace

void run_serve_probe(const Args& args, Result& result) {
  serve::Scheduler sched(serve_options());
  const Loop loop = closed_loop(args, sched);

  // Checks, after the loop so they never slow the generator.
  std::map<std::size_t, const serve::SolveReport*> cold;
  for (const Done& d : loop.done) {
    if (!d.repeat && d.report.outcome == serve::Outcome::completed) {
      cold.emplace(d.spec, &d.report);
    }
  }
  std::vector<double> latency, queue_s, solve_s;
  double ranks_sum = 0.0;
  std::size_t hits = 0, hits_on_repeat = 0, reconstructed = 0;
  double disagreement = 0.0;
  // Explicit reconstruction re-generates the input, which costs about as
  // much as the job: do it for an evenly spread sample of the cold results.
  const std::size_t stride = std::max<std::size_t>(1, cold.size() / 48);
  for (std::size_t i = 0; i < loop.done.size(); ++i) {
    const Done& d = loop.done[i];
    const serve::SolveReport& r = d.report;
    const bool reconstruct = !d.repeat && d.spec % stride == 0;
    reconstructed += reconstruct ? 1 : 0;
    const std::string why =
        verify(d, loop.specs[d.spec], cold, i, reconstruct, &disagreement);
    result.outcome(why.empty(), r.name + ":" + why);
    latency.push_back(r.total_seconds);
    queue_s.push_back(r.queue_seconds);
    if (r.outcome == serve::Outcome::cache_hit) {
      ++hits;
      hits_on_repeat += d.repeat ? 1 : 0;
    } else if (r.outcome == serve::Outcome::completed) {
      solve_s.push_back(r.solve_seconds);
      ranks_sum += r.ranks_used;
    }
  }

  // Seed check: seed + 1 must give another job mix and other inputs.
  const JobSpec mine =
      new_job(args.tiny, false, derive_seed(args.seed, kDataSeed));
  const JobSpec next =
      new_job(args.tiny, false, derive_seed(args.seed + 1, kDataSeed));
  result.outcome(serve::request_fingerprint(mine.params()) !=
                         serve::request_fingerprint(next.params()) &&
                     derive_seed(args.seed, kMixSeed) !=
                         derive_seed(args.seed + 1, kMixSeed),
                 "seed and seed + 1 give the same job mix");
  const std::size_t n = latency.size();
  const std::size_t cold_n = solve_s.size();
  result.outcome(hits > 0 && cold_n > 0,
                 "the serve mix must have both cache hits and cold solves");

  result.record("serve_jobs", double(n));
  result.record("serve_cold_jobs", double(cold_n));
  result.record("serve_cache_hits", double(hits));
  result.record("serve_cold_jobs_reconstructed", double(reconstructed));
  result.record("serve_rel_error_max_disagreement", disagreement);
  result.record("serve_repeats", double(loop.repeats));
  result.record("serve_job_latency_p95_samples_beyond",
                double(samples_beyond(n, 0.95)));

  std::vector<double> plan_s;
  for (const JobSpec& spec : loop.specs) {
    const io::ParamFile p = spec.params();
    const double t0 = stats::now();
    (void)serve::plan_ranks(p, 4);
    plan_s.push_back(stats::now() - t0);
  }
  result.metric("model.plan_s", median(plan_s), "s", plan_s.size());
  result.metric("serve.jobs_per_s", double(n) / loop.wall_s, "1/s", n);
  result.metric("serve.job_latency_p50_s", median(latency), "s", n);
  result.metric("serve.job_latency_p95_s", percentile(latency, 0.95), "s", n);
  result.metric("serve.queue_wait_p50_s", median(queue_s), "s", n);
  result.metric("serve.queue_peak", loop.queue_peak, "count", 1);
  result.metric("serve.solve_p50_s", median(solve_s), "s", cold_n);
  result.metric("serve.ranks_used_mean", cold_n ? ranks_sum / cold_n : 0.0,
                "count", cold_n);
  result.metric("serve.cache_hit_ratio",
                loop.repeats ? double(hits_on_repeat) / double(loop.repeats)
                             : 0.0,
                "ratio", loop.repeats);
}

}  // namespace e2e
