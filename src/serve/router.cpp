#include "serve/router.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/config.hpp"
#include "core/serde.hpp"
#include "serve/sweep.hpp"

namespace respin::serve {

namespace obsj = respin::obs::json;

namespace {

/// A sweep cell's workload as progress events and the cost model name it:
/// the catalog benchmark, or the trace or profile file path.
const std::string& workload_label(const core::RequestSpec& spec) {
  if (!spec.trace_file.empty()) return spec.trace_file;
  if (!spec.profile_file.empty()) return spec.profile_file;
  return spec.benchmark;
}

}  // namespace

// --- TcpWorker ------------------------------------------------------------

TcpWorker::TcpWorker(std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port) {}

std::string TcpWorker::name() const {
  return host_ + ":" + std::to_string(port_);
}

LineClient TcpWorker::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!idle_.empty()) {
    LineClient client = std::move(idle_.back());
    idle_.pop_back();
    return client;
  }
  return LineClient(host_, port_);
}

void TcpWorker::release(LineClient client) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(client));
}

std::string TcpWorker::call(const std::string& line) {
  LineClient client = acquire();
  try {
    std::string response = client.roundtrip(line);
    release(std::move(client));
    return response;
  } catch (const std::exception&) {
    // Stale pooled connection (worker restarted): one fresh redial. The
    // protocol is idempotent, so re-sending the same request is safe.
  }
  LineClient fresh(host_, port_);
  std::string response = fresh.roundtrip(line);  // Throws to the caller.
  release(std::move(fresh));
  return response;
}

// --- Router ---------------------------------------------------------------

/// Counts a request as active for drain() while it is being handled.
struct Router::ActiveGuard {
  explicit ActiveGuard(Router& router) : router_(router) {
    std::lock_guard<std::mutex> lock(router_.mu_);
    ++router_.active_;
  }
  ~ActiveGuard() {
    {
      std::lock_guard<std::mutex> lock(router_.mu_);
      --router_.active_;
    }
    router_.idle_cv_.notify_all();
  }
  Router& router_;
};

Router::Router(const RouterConfig& config,
               std::vector<std::unique_ptr<WorkerBackend>> workers)
    : config_(config), workers_(std::move(workers)) {
  if (workers_.empty()) {
    throw std::logic_error("router needs at least one worker");
  }
  if (config_.backlog == 0) config_.backlog = 1;
  cost_model_.seed_from_store(config_.cost_seed_path);
}

Router::~Router() { drain(); }

void Router::drain() {
  begin_drain();
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return active_ == 0; });
}

std::size_t Router::shard_of(const std::string& key) const {
  return static_cast<std::size_t>(core::key_hash(key) % workers_.size());
}

obsj::Value Router::handle_request(const std::string& op,
                                   const obsj::Value& request,
                                   const std::string& line, const Emit& emit) {
  ActiveGuard guard(*this);
  if (op == "version") {
    obsj::Value v = ok_response("version");
    v.set("version", obsj::Value::str(config_.version));
    v.set("workers", number_u64(workers_.size()));
    return v;
  }
  if (op == "run") {
    const std::string key =
        core::canonical_key(core::request_spec_from_json(request));
    if (draining()) {
      return error_response("run", "draining",
                            "router is draining; not accepting new work");
    }
    return forward_keyed("run", key, line);
  }
  if (op == "get") return forward_keyed("get", request_key(request), line);
  if (op == "sweep") return do_sweep(request, emit);
  if (op == "list") return do_list();
  if (op == "pareto") return do_pareto(request, line);
  if (op == "stats") {
    obsj::Value v = ok_response("stats");
    v.set("counters", counters_to_json(counters()));
    // Per-worker stats ride along so one query shows tier-wide queue
    // health (serve.backlog, serve.queue_wait_ms.*) next to routing state.
    v.set("workers", fan_out("{\"op\":\"stats\"}"));
    return v;
  }
  if (op == "merge" || op == "compact") {
    if (op == "merge" && request.find("path") == nullptr) {
      throw std::logic_error("merge needs a 'path' (JSONL store log to merge)");
    }
    // Replication: every worker absorbs the log / compacts its own store.
    obsj::Value v = ok_response(op == "merge" ? "merge" : "compact");
    v.set("workers", fan_out(line));
    return v;
  }
  // "shutdown", the one op left: the envelope admits no unknown op.
  if (config_.forward_shutdown) {
    for (auto& worker : workers_) {
      try {
        (void)worker->call("{\"op\":\"shutdown\"}");
      } catch (const std::exception&) {
        worker_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  begin_drain();
  obsj::Value v = ok_response("shutdown");
  v.set("draining", obsj::Value::boolean(true));
  return v;
}

obsj::Value Router::forward_keyed(const char* op, const std::string& key,
                                  const std::string& line) {
  const std::size_t shard = shard_of(key);
  std::size_t served_by = shard;
  std::string wire;
  try {
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    wire = workers_[shard]->call(line);
  } catch (const std::exception& primary) {
    worker_errors_.fetch_add(1, std::memory_order_relaxed);
    if (workers_.size() < 2) {
      return error_response(op, "worker_unavailable", primary.what());
    }
    // Failover: any worker can compute any key (determinism contract);
    // the result just lands in the wrong shard's store until a merge.
    served_by = (shard + 1) % workers_.size();
    try {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      wire = workers_[served_by]->call(line);
    } catch (const std::exception& secondary) {
      worker_errors_.fetch_add(1, std::memory_order_relaxed);
      return error_response(op, "worker_unavailable", secondary.what());
    }
  }
  obsj::Value response;
  try {
    response = obsj::parse(wire);
  } catch (const obsj::Error& e) {
    return error_response(op, "worker_protocol_error", e.what());
  }
  response.set("shard", number_u64(shard));
  response.set("worker", obsj::Value::str(workers_[served_by]->name()));
  return response;
}

obsj::Value Router::do_sweep(const obsj::Value& request, const Emit& emit) {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (draining()) {
    return error_response("sweep", "draining",
                          "router is draining; not accepting new work");
  }
  struct Cell {
    std::string key;
    std::string line;       ///< The forwarded `run` request line.
    std::string config;     ///< core::to_string name, for the cost model.
    std::string benchmark;  ///< workload_label, for the cost model.
    double predicted = 0.0;
    std::size_t index = 0;  ///< Matrix order, the deterministic tiebreak.
  };
  std::vector<std::vector<Cell>> queues(workers_.size());
  const std::vector<SweepCell> planned = plan_sweep(request);
  const std::size_t total = planned.size();
  for (std::size_t i = 0; i < total; ++i) {
    const SweepCell& sweep_cell = planned[i];
    Cell cell;
    cell.key = sweep_cell.key;
    // cycle_skip is not part of the key, so request_spec_to_json drops
    // it; the worker must still run the path the client asked for.
    obsj::Value run_request = core::request_spec_to_json(sweep_cell.spec);
    run_request.set("op", obsj::Value::str("run"));
    run_request.set("cycle_skip",
                    obsj::Value::boolean(sweep_cell.spec.options.cycle_skip));
    cell.line = run_request.dump();
    cell.config = core::to_string(sweep_cell.spec.config);
    cell.benchmark = workload_label(sweep_cell.spec);
    cell.predicted = cost_model_.predict(cell.config, cell.benchmark);
    cell.index = i;
    queues[shard_of(cell.key)].push_back(std::move(cell));
  }
  sweep_cells_total_.fetch_add(total, std::memory_order_relaxed);

  // Longest-expected-first within each shard (LPT list scheduling): the
  // expensive cells start while there is still short work to pack behind
  // them, which bounds the shard's makespan. Matrix order breaks ties so
  // dispatch is deterministic.
  for (std::vector<Cell>& queue : queues) {
    std::sort(queue.begin(), queue.end(), [](const Cell& a, const Cell& b) {
      if (a.predicted != b.predicted) return a.predicted > b.predicted;
      return a.index < b.index;
    });
  }

  // A cell's outcome indexes its tally name (in response order), its
  // progress-event source and its router-wide counter.
  enum Outcome : std::size_t { kRan, kCached, kFailed };
  constexpr const char* kTallyNames[] = {"ran", "cached", "failed"};
  constexpr const char* kSources[] = {"sim", "cached", "error"};
  std::atomic<std::uint64_t>* const tier_tallies[] = {
      &sweep_cells_run_, &sweep_cells_cached_, &sweep_cells_failed_};
  std::vector<std::array<std::atomic<std::size_t>, 3>> tallies(workers_.size());
  const obsj::Value* id = request.find("id");
  std::atomic<std::size_t> done{0};
  std::mutex emit_mu;  // Serializes event composition, not transport.

  const auto run_cell = [&](std::size_t shard, const Cell& cell) {
    Outcome outcome = kFailed;
    try {
      const std::string wire = workers_[shard]->call(cell.line);
      const obsj::Value response = obsj::parse(wire);
      const obsj::Value* ok_field = response.find("ok");
      if (ok_field != nullptr && ok_field->as_bool()) {
        outcome = kRan;
        if (const obsj::Value* s = response.find("source")) {
          const std::string& from = s->as_string();
          if (from == "cache" || from == "store") outcome = kCached;
        }
        if (const obsj::Value* result = response.find("result")) {
          if (const obsj::Value* cycles = result->find("cycles")) {
            cost_model_.observe(cell.config, cell.benchmark,
                                static_cast<double>(cycles->as_u64()));
          }
        }
      }
    } catch (const std::exception&) {
      // Transport failure. Sweep cells do NOT fail over: a cell must land
      // in its owner shard's store or resume-after-restart would leave
      // stray replicas and inexact shard state. The client re-sweeps.
      worker_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    tallies[shard][outcome].fetch_add(1, std::memory_order_relaxed);
    tier_tallies[outcome]->fetch_add(1, std::memory_order_relaxed);
    const std::size_t now_done =
        done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (emit) {
      obsj::Value event;
      {
        std::lock_guard<std::mutex> lock(emit_mu);
        event = obsj::Value::object();
        event.set("event", obsj::Value::str("sweep_progress"));
        if (id != nullptr) event.set("id", *id);
        event.set("done", number_u64(now_done));
        event.set("total", number_u64(total));
        event.set("key", obsj::Value::str(cell.key));
        event.set("config", obsj::Value::str(cell.config));
        event.set("benchmark", obsj::Value::str(cell.benchmark));
        event.set("shard", number_u64(shard));
        event.set("worker", obsj::Value::str(workers_[shard]->name()));
        event.set("ok", obsj::Value::boolean(outcome != kFailed));
        event.set("source", obsj::Value::str(kSources[outcome]));
      }
      progress_events_.fetch_add(1, std::memory_order_relaxed);
      emit(event.dump());
    }
  };

  // Dispatch: up to `backlog` lanes per worker, every worker in parallel.
  // Lanes pull from their shard's sorted queue via a shared cursor.
  std::vector<std::thread> lanes;
  std::vector<std::atomic<std::size_t>> cursors(workers_.size());
  for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
    cursors[shard].store(0);
    const std::size_t lane_count =
        std::min(config_.backlog, queues[shard].size());
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      lanes.emplace_back([&, shard] {
        for (;;) {
          const std::size_t i =
              cursors[shard].fetch_add(1, std::memory_order_relaxed);
          if (i >= queues[shard].size()) return;
          run_cell(shard, queues[shard][i]);
        }
      });
    }
  }
  for (std::thread& lane : lanes) lane.join();

  std::array<std::size_t, 3> sums{};
  obsj::Array per_worker;
  for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
    obsj::Value w = obsj::Value::object();
    w.set("worker", obsj::Value::str(workers_[shard]->name()));
    w.set("shard", number_u64(shard));
    w.set("cells", number_u64(queues[shard].size()));
    for (std::size_t k = 0; k < std::size(kTallyNames); ++k) {
      const std::size_t n = tallies[shard][k].load();
      sums[k] += n;
      w.set(kTallyNames[k], number_u64(n));
    }
    per_worker.push_back(std::move(w));
  }

  obsj::Value v = ok_response("sweep");
  v.set("cells", number_u64(total));
  for (std::size_t k = 0; k < std::size(kTallyNames); ++k) {
    v.set(kTallyNames[k], number_u64(sums[k]));
  }
  v.set("workers", obsj::Value::array(std::move(per_worker)));
  return v;
}

obsj::Value Router::fan_out(const std::string& line) {
  obsj::Array responses;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    obsj::Value entry = obsj::Value::object();
    entry.set("worker", obsj::Value::str(workers_[i]->name()));
    entry.set("shard", number_u64(i));
    try {
      entry.set("response", obsj::parse(workers_[i]->call(line)));
    } catch (const std::exception& e) {
      worker_errors_.fetch_add(1, std::memory_order_relaxed);
      entry.set("response",
                error_response(nullptr, "worker_unavailable", e.what()));
    }
    responses.push_back(std::move(entry));
  }
  return obsj::Value::array(std::move(responses));
}

obsj::Value Router::do_list() {
  // Union of the workers' stores, deduplicated by key (failover can leave
  // a key replicated) and sorted for a deterministic listing.
  std::map<std::string, ResultStore::Brief> by_key;
  for (auto& worker : workers_) {
    std::string wire;
    try {
      wire = worker->call("{\"op\":\"list\"}");
    } catch (const std::exception&) {
      worker_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const obsj::Value response = obsj::parse(wire);
    if (const obsj::Value* list = response.find("runs")) {
      for (const obsj::Value& run : list->as_array()) {
        const ResultStore::Brief brief{run.find("key")->as_string(),
                                       run.find("hash")->as_string(),
                                       run.find("config")->as_string(),
                                       run.find("benchmark")->as_string()};
        by_key.emplace(brief.key, brief);
      }
    }
  }
  std::vector<ResultStore::Brief> runs;
  for (auto& entry : by_key) runs.push_back(std::move(entry.second));
  return list_response(runs);
}

obsj::Value Router::do_pareto(const obsj::Value& request,
                              const std::string& line) {
  const auto [x, y] = pareto_axes(request);
  // Each worker returns its shard-local frontier; the global frontier is
  // a subset of their union, so recomputing dominance over the union is
  // exact without shipping whole stores.
  std::vector<ParetoPoint> points;
  for (auto& worker : workers_) {
    std::string wire;
    try {
      wire = worker->call(line);
    } catch (const std::exception&) {
      worker_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const obsj::Value response = obsj::parse(wire);
    const obsj::Value* ok_field = response.find("ok");
    if (ok_field == nullptr || !ok_field->as_bool()) {
      // Metric errors must not be swallowed into an empty frontier.
      return response;
    }
    if (const obsj::Value* list = response.find("points")) {
      for (const obsj::Value& point : list->as_array()) {
        points.push_back(pareto_point_from_json(point));
      }
    }
  }
  return pareto_response(x, y, pareto_frontier(std::move(points)));
}

obs::CounterSet Router::counters() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  obs::CounterSet set;
  set.add("router.workers", static_cast<std::uint64_t>(workers_.size()));
  set.add("router.requests_total", requests_total());
  set.add("router.protocol_errors", protocol_errors());
  set.add("router.forwarded", load(forwarded_));
  set.add("router.failovers", load(failovers_));
  set.add("router.worker_errors", load(worker_errors_));
  set.add("router.sweeps", load(sweeps_));
  set.add("router.sweep_cells_total", load(sweep_cells_total_));
  set.add("router.sweep_cells_run", load(sweep_cells_run_));
  set.add("router.sweep_cells_cached", load(sweep_cells_cached_));
  set.add("router.sweep_cells_failed", load(sweep_cells_failed_));
  set.add("router.progress_events", load(progress_events_));
  set.add("router.backlog_limit",
          static_cast<std::uint64_t>(config_.backlog));
  set.add("router.cost_observations",
          static_cast<std::uint64_t>(cost_model_.observations()));
  set.add("router.draining", std::uint64_t{draining() ? 1u : 0u});
  {
    std::lock_guard<std::mutex> lock(mu_);
    set.add("router.active_requests", static_cast<std::uint64_t>(active_));
  }
  return set;
}

}  // namespace respin::serve
