#pragma once
// obs::Exporter — the live half of the observability plane
// (docs/OBSERVABILITY.md "The live plane").
//
// A background thread that every `interval_ms` asks its producer for a
// (metrics::Registry, obs::Status) snapshot — for serve that is
// Scheduler::metrics() + Scheduler::status(), both taken under the
// scheduler lock — renders two views and atomically publishes them with the
// checkpoint tmp+rename discipline, so a concurrent scraper (curl, watch,
// the obs-smoke validator) never observes a partial file:
//
//  * `exposition_path`  — Prometheus-style text exposition: one
//    `name{labels} value` line per metric (dots in metric names become
//    underscores), framed by `# rahooi-exposition v1 seq=N` /
//    `# end rahooi-exposition seq=N` so even a non-atomic reader can detect
//    a torn scrape, plus the live scheduler gauges (queue depth by
//    priority, running jobs, cache occupancy, free ranks).
//  * `status_path` — a human `watch -n1 cat`-able table: one header block
//    and one row per queued/running job with stage, attempt, world size,
//    trace id, and elapsed time.
//
// The exporter owns no scheduler state and holds no lock while writing:
// snapshot under the producer's lock, render + publish outside it. Enforced
// invariant (rahooi_analyze `raw-status-write`): status/exposition files are
// only ever written through obs::write_atomic.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"

namespace rahooi::obs {

/// One queued or running job in a Status snapshot.
struct JobStatus {
  std::uint64_t id = 0;
  std::string name;
  std::uint64_t trace_id = 0;
  std::string priority;   ///< "low" | "normal" | "high"
  std::string stage;      ///< "queued" | "running"
  int attempts = 0;       ///< solve attempts started so far
  int world = 0;          ///< planned/actual world size (ranks)
  double elapsed_s = 0.0; ///< since submit (queued) / since dispatch (running)
};

/// Point-in-time scheduler introspection (serve::Scheduler::status()).
struct Status {
  double time = 0.0;  ///< stats::now() at snapshot
  std::size_t queue_depth = 0;
  std::array<std::size_t, 3> queued_by_priority{};  ///< [low, normal, high]
  std::vector<JobStatus> jobs;  ///< queued + running, queue order first
  std::size_t cache_entries = 0;
  std::size_t cache_capacity = 0;
  int free_ranks = 0;
  int pool_ranks = 0;
  bool paused = false;
  bool stopping = false;

  std::size_t running_jobs() const {
    std::size_t n = 0;
    for (const JobStatus& j : jobs) {
      if (j.stage == "running") ++n;
    }
    return n;
  }
};

/// Atomically replaces `path` with `content`: write to a unique sibling tmp
/// file, fsync-free std::rename into place (same discipline as checkpoint
/// save — a reader either sees the old complete file or the new one, never
/// a prefix). Throws precondition_error on IO failure.
void write_atomic(const std::string& path, const std::string& content);

/// Exposition sample name for a flat metrics key: dots in the name part
/// (before any '{') become underscores; labels pass through verbatim.
/// "serve.queue.depth" -> "serve_queue_depth",
/// "comm.seconds{op=\"reduce\"}" -> "comm_seconds{op=\"reduce\"}".
std::string exposition_name(const std::string& key);

/// Renders the Prometheus-style text exposition of one registry snapshot
/// plus the live status gauges. `seq` is the scrape sequence number,
/// embedded in the header/trailer frame for torn-read detection.
std::string exposition_text(const metrics::Registry& r, const Status& s,
                            std::uint64_t seq);

/// Renders the human status table.
std::string status_table(const Status& s, std::uint64_t seq);

/// Structural validation of an exposition document: version-1 header, every
/// sample line `name{labels}? value` with a parsable finite value, an
/// `obs_scrape_seq` sample, and a trailer whose seq matches the header
/// (a torn or interleaved scrape fails here). Returns false and fills
/// `error` (if non-null) on the first violation.
bool validate_exposition(const std::string& text, std::string* error = nullptr);

/// Looks up a sample by raw (dotted) key or exposition name, with or
/// without labels, and parses its value. Returns false when absent.
bool exposition_value(const std::string& text, const std::string& key,
                      double* value);

/// Background publisher. Construction starts the thread; stop() (or the
/// destructor) joins it after one final publish, so the files always end at
/// the terminal snapshot.
class Exporter {
 public:
  struct Options {
    std::string exposition_path;  ///< "" = skip the exposition file
    std::string status_path;      ///< "" = skip the status table
    double interval_ms = 250.0;   ///< publish period
  };

  /// Producer callback: fill the registry copy and status under whatever
  /// lock owns them. Runs on the exporter thread.
  using SnapshotFn = std::function<void(metrics::Registry*, Status*)>;

  Exporter(Options options, SnapshotFn snapshot);
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Stops the thread after one final publish. Idempotent.
  void stop();

  /// Completed publishes so far.
  std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_acquire);
  }

 private:
  void loop();
  void publish();

  Options options_;
  SnapshotFn snapshot_;
  std::atomic<std::uint64_t> scrapes_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;     ///< under mu_
  std::thread thread_;    ///< last member: starts after everything is ready
};

}  // namespace rahooi::obs
