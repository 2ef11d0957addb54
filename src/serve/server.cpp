#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "serve/sweep.hpp"
#include "trace/replay.hpp"
#include "util/require.hpp"
#include "workload/workload.hpp"

namespace respin::serve {

namespace obsj = obs::json;

/// One queued-or-running unique simulation; every coalesced waiter holds
/// the same Flight and wakes when it completes.
struct Server::Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const core::SimResult> result;  ///< Null on failure.
  std::string error;
};

struct Server::Job {
  std::string key;
  core::RequestSpec spec;
  std::shared_ptr<Flight> flight;
  std::chrono::steady_clock::time_point enqueued;
};

void QueueWaitHistogram::record(double wait_ms) {
  std::size_t bucket = kBucketsMs.size();  // Overflow by default.
  for (std::size_t i = 0; i < kBucketsMs.size(); ++i) {
    if (wait_ms <= kBucketsMs[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<std::uint64_t>(wait_ms * 1000.0),
                    std::memory_order_relaxed);
}

void QueueWaitHistogram::export_counters(obs::CounterSet& set,
                                         const std::string& prefix) const {
  // Cumulative buckets (Prometheus-style le_*): each includes everything
  // below it, so a reader can take quantiles without re-summing.
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketsMs.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    set.add(prefix + ".le_" +
                std::to_string(static_cast<std::uint64_t>(kBucketsMs[i])),
            cumulative);
  }
  set.add(prefix + ".count", count_.load(std::memory_order_relaxed));
  set.add(prefix + ".sum_ms",
          static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
              1000.0);
}

Server::Server(const ServerConfig& config)
    : config_(config),
      store_(config.store_path),
      cache_(config.cache_capacity),
      scheduler_([this] { scheduler_main(); }) {}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  scheduler_.join();
}

void Server::drain() {
  begin_drain();
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

obsj::Value Server::handle_request(const std::string& op,
                                   const obsj::Value& request,
                                   const std::string&, const Emit&) {
  if (op == "version") {
    obsj::Value v = ok_response("version");
    v.set("version", obsj::Value::str(config_.version));
    return v;
  }
  if (op == "run") return do_run(request);
  if (op == "sweep") return do_sweep(request);
  if (op == "get") return do_get(request);
  if (op == "list") return list_response(store_.list());
  if (op == "pareto") {
    const auto [x, y] = pareto_axes(request);
    return pareto_response(x, y, store_.pareto(x, y));
  }
  if (op == "stats") {
    obsj::Value v = ok_response("stats");
    v.set("counters", counters_to_json(counters()));
    return v;
  }
  if (op == "merge") return do_merge(request);
  if (op == "compact") return do_compact();
  // "shutdown", the one op left: the envelope admits no unknown op.
  begin_drain();
  obsj::Value v = ok_response("shutdown");
  v.set("draining", obsj::Value::boolean(true));
  return v;
}

obsj::Value Server::do_run(const obsj::Value& request) {
  run_requests_.fetch_add(1, std::memory_order_relaxed);
  core::RequestSpec spec = core::request_spec_from_json(request);
  if (spec.trace_file.empty() && spec.profile_file.empty()) {
    require_known_benchmark(spec.benchmark);
  }
  const std::string key = core::canonical_key(spec);

  std::int64_t deadline_ms = config_.default_deadline_ms;
  if (const obsj::Value* d = request.find("deadline_ms")) {
    deadline_ms = d->as_i64();
    RESPIN_REQUIRE(deadline_ms >= 0, "deadline_ms must be >= 0");
  }

  std::shared_ptr<const core::SimResult> result;
  std::shared_ptr<Flight> flight;
  const char* source = "sim";
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (auto hit = cache_.get(key)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      result = std::move(hit);
      source = "cache";
    } else if (auto stored = store_.get(key)) {
      // Cold cache but durable store (daemon restart): promote.
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      result = std::make_shared<core::SimResult>(*std::move(stored));
      cache_.put(key, result);
      source = "store";
    } else if (const auto it = inflight_.find(key); it != inflight_.end()) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      flight = it->second;
      source = "coalesced";
    } else if (draining()) {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      return error_response("run", "draining",
                            "server is draining; not accepting new work");
    } else if (queue_.size() >= config_.queue_depth) {
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      return error_response(
          "run", "overloaded",
          "admission queue is full (depth " +
              std::to_string(config_.queue_depth) + "); retry later");
    } else {
      flight = std::make_shared<Flight>();
      inflight_.emplace(key, flight);
      queue_.push_back(
          Job{key, std::move(spec), flight, std::chrono::steady_clock::now()});
      enqueued_.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
    }
  }

  if (result == nullptr) {
    std::unique_lock<std::mutex> fl(flight->mu);
    if (deadline_ms > 0) {
      const bool done = flight->cv.wait_for(
          fl, std::chrono::milliseconds(deadline_ms),
          [&] { return flight->done; });
      if (!done) {
        deadline_timeouts_.fetch_add(1, std::memory_order_relaxed);
        obsj::Value v = error_response(
            "run", "timeout",
            "deadline of " + std::to_string(deadline_ms) +
                " ms elapsed; the simulation continues and will be cached");
        v.set("key", obsj::Value::str(key));
        return v;
      }
    } else {
      flight->cv.wait(fl, [&] { return flight->done; });
    }
    if (flight->result == nullptr) {
      return error_response("run", "run_failed", flight->error);
    }
    result = flight->result;
  }

  obsj::Value v = ok_response("run");
  v.set("key", obsj::Value::str(key));
  v.set("hash", obsj::Value::str(core::key_hash_hex(key)));
  v.set("source", obsj::Value::str(source));
  v.set("cached", obsj::Value::boolean(source == std::string("cache") ||
                                       source == std::string("store")));
  v.set("result", core::result_to_json(*result));
  return v;
}

obsj::Value Server::do_sweep(const obsj::Value& request) {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (draining()) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    return error_response("sweep", "draining",
                          "server is draining; not accepting new work");
  }
  // Resume: a cell already checkpointed in the store is never re-run.
  const std::vector<SweepCell> cells = plan_sweep(request);
  std::vector<const SweepCell*> missing;
  for (const SweepCell& cell : cells) {
    if (!store_.contains(cell.key)) missing.push_back(&cell);
  }
  const std::size_t total = cells.size();
  const std::size_t resumed = total - missing.size();
  sweep_cells_total_.fetch_add(total, std::memory_order_relaxed);
  sweep_cells_resumed_.fetch_add(resumed, std::memory_order_relaxed);

  // Run the missing cells as one pool fan-out, checkpointing each cell to
  // the store the moment it completes (the resume contract). A failed
  // cell is counted and reported but does not abort its siblings.
  const std::vector<int> outcomes =
      exec::parallel_map_n(missing.size(), [&](std::size_t i) -> int {
        const SweepCell& cell = *missing[i];
        try {
          obs::ScopedProbe probe("serve.sweep_cell");
          auto result =
              std::make_shared<core::SimResult>(trace::run_request(cell.spec));
          store_.put(cell.key, *result);
          {
            std::lock_guard<std::mutex> lock(mu_);
            cache_.put(cell.key, result);
          }
          sweep_cells_run_.fetch_add(1, std::memory_order_relaxed);
          return 1;
        } catch (const std::exception&) {
          sweep_cells_failed_.fetch_add(1, std::memory_order_relaxed);
          return 0;
        }
      });
  const std::size_t ran = static_cast<std::size_t>(
      std::count(outcomes.begin(), outcomes.end(), 1));

  obsj::Value v = ok_response("sweep");
  v.set("cells", number_u64(total));
  v.set("ran", number_u64(ran));
  v.set("resumed", number_u64(resumed));
  v.set("failed", number_u64(missing.size() - ran));
  v.set("store_size", number_u64(store_.size()));
  return v;
}

obsj::Value Server::do_get(const obsj::Value& request) {
  const std::string key = request_key(request);
  const std::optional<core::SimResult> stored = store_.get(key);
  if (!stored.has_value()) {
    obsj::Value v = error_response("get", "not_found",
                                   "no stored result for this key");
    v.set("key", obsj::Value::str(key));
    return v;
  }
  obsj::Value v = ok_response("get");
  v.set("key", obsj::Value::str(key));
  v.set("hash", obsj::Value::str(core::key_hash_hex(key)));
  v.set("result", core::result_to_json(*stored));
  return v;
}

obsj::Value Server::do_merge(const obsj::Value& request) {
  const obsj::Value* path = request.find("path");
  if (path == nullptr) {
    throw std::logic_error("merge needs a 'path' (JSONL store log to merge)");
  }
  const StoreMergeStats stats = store_.merge_from(path->as_string());
  store_merges_.fetch_add(1, std::memory_order_relaxed);
  obsj::Value v = ok_response("merge");
  v.set("path", *path);
  v.set("scanned", number_u64(stats.scanned));
  v.set("inserted", number_u64(stats.inserted));
  v.set("superseded", number_u64(stats.superseded));
  v.set("ignored", number_u64(stats.ignored));
  v.set("skipped_lines", number_u64(stats.skipped_lines));
  v.set("store_size", number_u64(store_.size()));
  return v;
}

obsj::Value Server::do_compact() {
  const std::size_t kept = store_.compact();
  store_compactions_.fetch_add(1, std::memory_order_relaxed);
  obsj::Value v = ok_response("compact");
  v.set("records", number_u64(kept));
  v.set("generation", obsj::Value::number(store_.generation()));
  return v;
}

obs::CounterSet Server::counters() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  obs::CounterSet set;
  set.add("serve.requests_total", requests_total());
  set.add("serve.protocol_errors", protocol_errors());
  set.add("serve.run_requests", load(run_requests_));
  set.add("serve.cache_hits", load(cache_hits_));
  set.add("serve.store_hits", load(store_hits_));
  set.add("serve.coalesced", load(coalesced_));
  set.add("serve.enqueued", load(enqueued_));
  set.add("serve.sims_run", load(sims_run_));
  set.add("serve.sims_failed", load(sims_failed_));
  set.add("serve.rejected_overload", load(rejected_overload_));
  set.add("serve.rejected_draining", load(rejected_draining_));
  set.add("serve.deadline_timeouts", load(deadline_timeouts_));
  set.add("serve.batches", load(batches_));
  set.add("serve.max_batch", load(max_batch_));
  set.add("serve.sweeps", load(sweeps_));
  set.add("serve.sweep_cells_total", load(sweep_cells_total_));
  set.add("serve.sweep_cells_run", load(sweep_cells_run_));
  set.add("serve.sweep_cells_resumed", load(sweep_cells_resumed_));
  set.add("serve.sweep_cells_failed", load(sweep_cells_failed_));
  set.add("serve.store_merges", load(store_merges_));
  set.add("serve.store_compactions", load(store_compactions_));
  set.add("serve.draining", std::uint64_t{draining() ? 1u : 0u});
  set.add("serve.store_size", static_cast<std::uint64_t>(store_.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    set.add("serve.queue_depth", static_cast<std::uint64_t>(queue_.size()));
    set.add("serve.running", static_cast<std::uint64_t>(running_));
    // Queued + handed to the pool: the per-worker load gauge the router's
    // sharding decisions are debugged against.
    set.add("serve.backlog",
            static_cast<std::uint64_t>(queue_.size() + running_));
    set.add("serve.inflight", static_cast<std::uint64_t>(inflight_.size()));
    set.add("serve.cache_size", static_cast<std::uint64_t>(cache_.size()));
  }
  queue_wait_.export_counters(set, "serve.queue_wait_ms");
  set.add("serve.cache_capacity",
          static_cast<std::uint64_t>(config_.cache_capacity));
  set.add("serve.queue_capacity",
          static_cast<std::uint64_t>(config_.queue_depth));
  return set;
}

void Server::execute_job(const Job& job) {
  queue_wait_.record(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - job.enqueued)
          .count());
  std::shared_ptr<core::SimResult> result;
  std::string error;
  try {
    obs::ScopedProbe probe("serve.sim");
    result = std::make_shared<core::SimResult>(trace::run_request(job.spec));
    sims_run_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    error = e.what();
    sims_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (result != nullptr) {
    store_.put(job.key, *result);  // Checkpoint before anyone can observe.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result != nullptr) cache_.put(job.key, result);
    inflight_.erase(job.key);
  }
  {
    std::lock_guard<std::mutex> fl(job.flight->mu);
    job.flight->result = result;
    job.flight->error = std::move(error);
    job.flight->done = true;
  }
  job.flight->cv.notify_all();
}

void Server::scheduler_main() {
  while (true) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      // Take everything that accumulated while the previous batch ran:
      // the natural batching window of a busy service.
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      running_ += batch.size();
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (batch.size() > max_batch_.load(std::memory_order_relaxed)) {
      max_batch_.store(batch.size(), std::memory_order_relaxed);
    }
    {
      obs::ScopedProbe probe("serve.batch");
      probe.add("jobs", static_cast<std::int64_t>(batch.size()));
      exec::parallel_map_n(batch.size(), [&](std::size_t i) -> int {
        execute_job(batch[i]);
        return 0;
      });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ -= batch.size();
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace respin::serve
