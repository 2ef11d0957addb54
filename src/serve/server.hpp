// The simulation server: request admission, single-flight dedupe, result
// caching, batched execution on the exec thread pool, sweep jobs with
// checkpoint/resume, and the query surface over the results store.
//
// Protocol: one JSON object per line in, one JSON object per line out
// (docs/serving.md), through LineService::handle_line (serve/service.hpp).
//
// Execution model: a `run` request resolves in order against (1) the LRU
// result cache, (2) the durable results store, (3) the in-flight table —
// identical concurrent requests coalesce onto one simulation
// (single-flight) — and only then (4) enters the bounded admission queue.
// A dedicated scheduler thread drains the queue in batches and fans each
// batch out over the process-wide exec::ThreadPool, so the daemon's
// simulation concurrency equals the simulator's own --threads width.
// Rejections are typed (`overloaded`, `draining`) and immediate; waiting
// requests honour a per-request deadline (`timeout`) while the
// simulation itself keeps running and still lands in the cache/store.
//
// Sweeps (`sweep` op) expand into cells with the shared planner
// (serve/sweep.hpp), skip every cell already checkpointed in the store,
// and run the missing ones with per-cell store checkpoints — killing the
// daemon mid-sweep and resubmitting the sweep completes only the missing
// cells.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/serde.hpp"
#include "obs/counters.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"

namespace respin::serve {

struct ServerConfig {
  /// JSONL results-store path; empty = ephemeral (no checkpoint/resume).
  std::string store_path;
  /// LRU result-cache entries (0 disables the cache; the store still
  /// answers repeats when persistent).
  std::size_t cache_capacity = 1024;
  /// Admission bound: maximum queued-but-not-yet-running unique
  /// simulations. Submissions beyond it get a typed `overloaded` reject.
  std::size_t queue_depth = 256;
  /// Default wait deadline for `run` requests, milliseconds; 0 = wait
  /// indefinitely. A request's own "deadline_ms" field overrides it.
  std::int64_t default_deadline_ms = 0;
  /// Reported by the `version` op (daemon provenance string).
  std::string version = "respin_serve (unversioned)";
};

/// Histogram of milliseconds spent queued before execution, exported as
/// serve.queue_wait_ms.* counters — the queue-health signal a sharded
/// tier is balanced by (docs/serving.md). Buckets are cumulative
/// less-than-or-equal thresholds plus an overflow bucket.
class QueueWaitHistogram {
 public:
  static constexpr std::array<double, 6> kBucketsMs = {1, 4, 16, 64, 256,
                                                      1024};

  void record(double wait_ms);
  /// Appends queue_wait_ms.le_*/inf/count/sum_ms under `prefix`.
  void export_counters(obs::CounterSet& set, const std::string& prefix) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketsMs.size() + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};  ///< Microseconds: exact sums.
};

class Server : public LineService {
 public:
  explicit Server(const ServerConfig& config);
  /// Drains and joins the scheduler.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// begin_drain() plus blocking until the scheduler has retired every
  /// accepted job.
  void drain() override;

  /// Live service counters (serve.* taxonomy, docs/observability.md):
  /// queue depth, in-flight sims, cache hit/miss, coalesced requests,
  /// rejects, sweep cells — exported by the `stats` op, the daemon's
  /// --metrics dump, and the tests.
  obs::CounterSet counters() const;

  const ResultStore& store() const { return store_; }

 private:
  struct Flight;
  struct Job;

  obs::json::Value handle_request(const std::string& op,
                                  const obs::json::Value& request,
                                  const std::string& line,
                                  const Emit& emit) override;
  obs::json::Value do_run(const obs::json::Value& request);
  obs::json::Value do_sweep(const obs::json::Value& request);
  obs::json::Value do_get(const obs::json::Value& request);
  obs::json::Value do_merge(const obs::json::Value& request);
  obs::json::Value do_compact();

  /// Executes one simulation, stores + caches the result, and completes
  /// `flight`. Exceptions are captured into the flight (a failed cell
  /// must never strand its waiters or skip the rest of a batch).
  void execute_job(const Job& job);
  void scheduler_main();

  ServerConfig config_;
  ResultStore store_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< Scheduler wake-up.
  std::condition_variable idle_cv_;   ///< drain() completion.
  LruCache cache_;
  std::deque<Job> queue_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  std::size_t running_ = 0;  ///< Jobs handed to the pool, not yet retired.
  bool stop_ = false;

  // serve.* counters. Relaxed atomics: each is a statistic, not a
  // synchronization point.
  std::atomic<std::uint64_t> run_requests_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> sims_run_{0};
  std::atomic<std::uint64_t> sims_failed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> deadline_timeouts_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> sweep_cells_total_{0};
  std::atomic<std::uint64_t> sweep_cells_run_{0};
  std::atomic<std::uint64_t> sweep_cells_resumed_{0};
  std::atomic<std::uint64_t> sweep_cells_failed_{0};
  std::atomic<std::uint64_t> store_merges_{0};
  std::atomic<std::uint64_t> store_compactions_{0};

  QueueWaitHistogram queue_wait_;

  std::thread scheduler_;
};

}  // namespace respin::serve
