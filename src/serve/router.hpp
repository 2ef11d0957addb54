// The sharding front end of the serving tier.
//
// A Router speaks the exact worker line protocol (docs/serving.md) and
// owns a fixed roster of N workers. Every cacheable request has a
// canonical key; its owning shard is key_hash(key) % N, so each worker's
// LRU cache, single-flight table, and results store stay hot for a
// disjoint key-slice — routing is what makes the worker-side caching
// composable across processes.
//
// Ops:
//  - run/get: forwarded verbatim to the key's owner. If the owner's
//    transport fails, the request fails over to the next worker (counted;
//    the result lands in the wrong shard's store, which a later `merge`
//    reconciles).
//  - sweep: the matrix is expanded by the planner a worker's own sweep
//    uses (serve/sweep.hpp, so keys match), cells are grouped by owner
//    shard, and each shard's queue is dispatched longest-expected-first
//    (CostModel prediction; LPT list scheduling cuts sweep makespan)
//    through a bounded number of lanes per worker. Cells never fail over
//    — shard-pure stores are what make kill/restart resume exact. Each
//    completed cell emits a `sweep_progress` event line through the
//    transport's Emit callback.
//  - list/pareto/stats/merge/compact/shutdown: fanned out to every
//    worker and the answers merged (frontier recomputed over the union).
//  - ping/version: answered locally.
//
// The router holds no store and no cache: state lives in the workers, so
// a router restart loses nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/cost_model.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace respin::serve {

/// One worker the router can call: send a request line, get the response
/// line. call() must be thread-safe — sweep lanes call concurrently.
/// Throws std::runtime_error on transport failure (never on a protocol
/// error; those come back as error response lines).
class WorkerBackend {
 public:
  virtual ~WorkerBackend() = default;
  /// Stable display name ("local:0", "127.0.0.1:7171") for stats and
  /// progress events.
  virtual std::string name() const = 0;
  virtual std::string call(const std::string& line) = 0;
};

/// In-process worker: wraps a serve::Server directly. The deterministic
/// backend tests and benches route through (no sockets, no processes).
class LocalWorker : public WorkerBackend {
 public:
  LocalWorker(std::string name, Server& server)
      : name_(std::move(name)), server_(server) {}
  std::string name() const override { return name_; }
  std::string call(const std::string& line) override {
    return server_.handle_line(line);
  }

 private:
  std::string name_;
  Server& server_;
};

/// Out-of-process worker over loopback TCP. Keeps a pool of sticky
/// connections (one per concurrent caller); a transport failure redials
/// once and retries the request — safe, the protocol is idempotent.
class TcpWorker : public WorkerBackend {
 public:
  TcpWorker(std::string host, std::uint16_t port);
  std::string name() const override;
  std::string call(const std::string& line) override;

 private:
  LineClient acquire();
  void release(LineClient client);

  std::string host_;
  std::uint16_t port_;
  std::mutex mu_;
  std::vector<LineClient> idle_;
};

struct RouterConfig {
  /// Reported by the `version` op.
  std::string version = "respin_router (unversioned)";
  /// Sweep dispatch lanes per worker: how many cells one worker is asked
  /// to chew concurrently. Bounded so a router-side sweep cannot flood a
  /// worker's admission queue.
  std::size_t backlog = 2;
  /// Optional JSONL store log that seeds the cost model before the first
  /// sweep (a previous run's merged store, typically).
  std::string cost_seed_path;
  /// Forward `shutdown` to every worker before draining the router
  /// itself (the single-operator topology: one shutdown stops the tier).
  bool forward_shutdown = true;
};

class Router : public LineService {
 public:
  Router(const RouterConfig& config,
         std::vector<std::unique_ptr<WorkerBackend>> workers);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// begin_drain() plus blocking until every active request returned.
  void drain() override;

  /// router.* counters (docs/observability.md): forwards, failovers,
  /// sweep cells by outcome, cost-model observations.
  obs::CounterSet counters() const;

  std::size_t worker_count() const { return workers_.size(); }
  /// The owning worker index for a canonical key.
  std::size_t shard_of(const std::string& key) const;

  const CostModel& cost_model() const { return cost_model_; }

 private:
  struct ActiveGuard;

  obs::json::Value handle_request(const std::string& op,
                                  const obs::json::Value& request,
                                  const std::string& line,
                                  const Emit& emit) override;
  obs::json::Value forward_keyed(const char* op, const std::string& key,
                                 const std::string& line);
  obs::json::Value do_sweep(const obs::json::Value& request, const Emit& emit);
  obs::json::Value do_list();
  obs::json::Value do_pareto(const obs::json::Value& request,
                             const std::string& line);
  /// Sends `line` to every worker, collecting each parsed response (or a
  /// transport-error response) into a per-worker array.
  obs::json::Value fan_out(const std::string& line);

  RouterConfig config_;
  std::vector<std::unique_ptr<WorkerBackend>> workers_;
  CostModel cost_model_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;

  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> worker_errors_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> sweep_cells_total_{0};
  std::atomic<std::uint64_t> sweep_cells_run_{0};
  std::atomic<std::uint64_t> sweep_cells_cached_{0};
  std::atomic<std::uint64_t> sweep_cells_failed_{0};
  std::atomic<std::uint64_t> progress_events_{0};
};

}  // namespace respin::serve
