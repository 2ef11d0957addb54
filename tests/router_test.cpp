// Tests for the sharding front end: the acceptance criterion that routed
// results are bit-identical to a direct run_suite, deterministic shard
// ownership (each worker's store and cache hold only its key-slice),
// streamed sweep progress events, cost-model-ordered dispatch, failover
// for keyed requests (and deliberately not for sweep cells), and the
// fan-out ops (list, pareto, stats, merge).
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/serde.hpp"
#include "obs/json.hpp"
#include "scratch_path.hpp"
#include "serve/cost_model.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "sim_result_eq.hpp"
#include "trace/capture.hpp"
#include "trace/fit/fit.hpp"
#include "trace/reader.hpp"
#include "workload/workload.hpp"

namespace respin::serve {
namespace {

namespace obsj = obs::json;

/// A worker that records every line it is sent and answers each with a
/// freshly simulated success: what the router forwards, without a server.
class RecordingWorker : public WorkerBackend {
 public:
  std::string name() const override { return "recording"; }
  std::string call(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
    return "{\"ok\":true,\"op\":\"run\",\"source\":\"sim\"}";
  }
  std::mutex mu;
  std::vector<std::string> lines;
};

/// A worker whose transport always fails — the failover scenarios.
class DeadWorker : public WorkerBackend {
 public:
  std::string name() const override { return "dead"; }
  std::string call(const std::string&) override {
    throw std::runtime_error("connection refused (simulated)");
  }
};

obsj::Value ask(Router& router, const std::string& line) {
  return obsj::parse(router.handle_line(line));
}

double counter(const Router& router, const std::string& name) {
  const obs::CounterSet set = router.counters();
  const double* value = set.find(name);
  EXPECT_NE(value, nullptr) << name;
  return value != nullptr ? *value : -1.0;
}

std::string run_line(const std::string& config, const std::string& benchmark) {
  return "{\"op\":\"run\",\"config\":\"" + config + "\",\"benchmark\":\"" +
         benchmark + "\",\"scale\":0.05}";
}

/// A router over `n` in-process ephemeral workers, owning the servers.
struct LocalTier {
  explicit LocalTier(std::size_t n, RouterConfig config = {}) {
    std::vector<std::unique_ptr<WorkerBackend>> backends;
    for (std::size_t i = 0; i < n; ++i) {
      ServerConfig worker_config;
      worker_config.store_path.clear();
      servers.push_back(std::make_unique<Server>(worker_config));
      backends.push_back(std::make_unique<LocalWorker>(
          "local:" + std::to_string(i), *servers.back()));
    }
    router = std::make_unique<Router>(config, std::move(backends));
  }
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Router> router;
};

TEST(RouterProtocol, PingVersionAndErrors) {
  LocalTier tier(2);
  Router& router = *tier.router;
  EXPECT_TRUE(ask(router, "{\"op\":\"ping\"}").find("ok")->as_bool());

  const obsj::Value version = ask(router, "{\"op\":\"version\",\"id\":7}");
  EXPECT_TRUE(version.find("ok")->as_bool());
  EXPECT_EQ(version.find("workers")->as_u64(), 2u);
  EXPECT_EQ(version.find("id")->as_u64(), 7u);

  const obsj::Value bad = ask(router, "not json");
  EXPECT_EQ(bad.find("error")->find("kind")->as_string(), "parse_error");
  const obsj::Value unknown = ask(router, "{\"op\":\"frobnicate\"}");
  EXPECT_EQ(unknown.find("error")->find("kind")->as_string(), "bad_request");
  EXPECT_EQ(counter(router, "router.protocol_errors"), 2.0);
}

// Acceptance: results served through the router (sweep fan-out + get)
// are bit-identical to a direct run_suite of the same configuration.
TEST(RouterEquivalence, RoutedSuiteMatchesDirectRunSuite) {
  LocalTier tier(3);
  Router& router = *tier.router;

  const obsj::Value sweep = ask(
      router,
      "{\"op\":\"sweep\",\"configs\":[\"SH-STT\"],\"scale\":0.05}");
  ASSERT_TRUE(sweep.find("ok")->as_bool());

  core::RunOptions options;
  options.workload_scale = 0.05;
  const std::vector<core::SimResult> suite =
      core::run_suite(core::ConfigId::kShStt, options);
  const std::vector<std::string> benchmarks = workload::benchmark_names();
  ASSERT_EQ(sweep.find("cells")->as_u64(), suite.size());
  ASSERT_EQ(sweep.find("ran")->as_u64(), suite.size());
  EXPECT_EQ(sweep.find("failed")->as_u64(), 0u);

  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const obsj::Value got = ask(
        router, "{\"op\":\"get\",\"config\":\"SH-STT\",\"benchmark\":\"" +
                    benchmarks[i] + "\",\"scale\":0.05}");
    ASSERT_TRUE(got.find("ok")->as_bool()) << benchmarks[i];
    core::expect_same_result(suite[i],
                             core::result_from_json(*got.find("result")));
  }
}

TEST(RouterSharding, KeysLandOnTheirOwnerAndStayCached) {
  LocalTier tier(2);
  Router& router = *tier.router;
  const std::vector<std::string> benchmarks = {"ocean", "radix", "fft", "lu"};

  for (const std::string& benchmark : benchmarks) {
    const obsj::Value first = ask(router, run_line("SH-STT", benchmark));
    ASSERT_TRUE(first.find("ok")->as_bool()) << benchmark;
    EXPECT_EQ(first.find("source")->as_string(), "sim");
    const std::string key = first.find("key")->as_string();
    const std::size_t shard = router.shard_of(key);
    EXPECT_EQ(first.find("shard")->as_u64(), shard);
    EXPECT_EQ(first.find("worker")->as_string(),
              "local:" + std::to_string(shard));

    // The repeat is a cache hit on the same worker: shard-stable routing
    // is what keeps worker caches hot for their key-slice.
    const obsj::Value repeat = ask(router, run_line("SH-STT", benchmark));
    EXPECT_EQ(repeat.find("source")->as_string(), "cache");
    EXPECT_EQ(repeat.find("worker")->as_string(),
              "local:" + std::to_string(shard));
  }
  // Exactly one simulation per key across the tier, however keys spread.
  double sims = 0;
  for (const auto& server : tier.servers) {
    const obs::CounterSet set = server->counters();
    sims += *set.find("serve.sims_run");
    EXPECT_EQ(*set.find("serve.cache_hits"), *set.find("serve.run_requests") -
                                                 *set.find("serve.sims_run"));
  }
  EXPECT_EQ(sims, static_cast<double>(benchmarks.size()));
}

TEST(RouterSweep, StreamsProgressEventsAndTalliesPerWorker) {
  LocalTier tier(2);
  Router& router = *tier.router;
  std::mutex mu;
  std::vector<obsj::Value> events;
  const Emit emit = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(obsj::parse(line));
  };
  const std::string sweep_line =
      "{\"op\":\"sweep\",\"configs\":[\"SH-STT\",\"PR-SRAM-NT\"],"
      "\"benchmarks\":[\"ocean\",\"radix\"],\"scale\":0.05,\"id\":5}";
  const obsj::Value sweep = obsj::parse(router.handle_line(sweep_line, emit));
  ASSERT_TRUE(sweep.find("ok")->as_bool());
  EXPECT_EQ(sweep.find("cells")->as_u64(), 4u);
  EXPECT_EQ(sweep.find("ran")->as_u64(), 4u);
  EXPECT_EQ(sweep.find("id")->as_u64(), 5u);

  ASSERT_EQ(events.size(), 4u);
  std::vector<bool> seen_done(events.size(), false);
  std::size_t per_worker_total = 0;
  for (const obsj::Value& event : events) {
    EXPECT_EQ(event.find("event")->as_string(), "sweep_progress");
    EXPECT_EQ(event.find("id")->as_u64(), 5u);  // Correlates to the sweep.
    EXPECT_EQ(event.find("total")->as_u64(), 4u);
    EXPECT_TRUE(event.find("ok")->as_bool());
    EXPECT_EQ(event.find("source")->as_string(), "sim");
    const std::size_t done = event.find("done")->as_u64();
    ASSERT_GE(done, 1u);
    ASSERT_LE(done, events.size());
    seen_done[done - 1] = true;
    // Every event names its cell's owner shard.
    EXPECT_EQ(router.shard_of(event.find("key")->as_string()),
              event.find("shard")->as_u64());
  }
  // done counts 1..N with no gaps, however lanes interleaved.
  for (const bool seen : seen_done) EXPECT_TRUE(seen);

  for (const obsj::Value& w : sweep.find("workers")->as_array()) {
    per_worker_total += w.find("ran")->as_u64() + w.find("cached")->as_u64() +
                        w.find("failed")->as_u64();
  }
  EXPECT_EQ(per_worker_total, 4u);
  EXPECT_EQ(counter(router, "router.progress_events"), 4.0);

  // A re-sweep reports every cell as cached (worker caches/stores are
  // warm), and the events say so.
  events.clear();
  const obsj::Value again = obsj::parse(router.handle_line(sweep_line, emit));
  EXPECT_EQ(again.find("cached")->as_u64(), 4u);
  EXPECT_EQ(again.find("ran")->as_u64(), 0u);
  for (const obsj::Value& event : events) {
    EXPECT_EQ(event.find("source")->as_string(), "cached");
  }
}

/// Records radix small into a scratch trace and returns its path.
std::string record_radix_trace() {
  const std::string path = test::scratch_path("radix.rspt");
  trace::record_benchmark(workload::benchmark("radix"), 4, 0.05, 7, path);
  return path;
}

/// Sweeps `workload` (the request's workload-reference fields) over two
/// configs, once on a single worker and once through a 2-worker tier. A
/// trace or profile file fixes the workload axis, so both must run one
/// cell per config, with the same keys and bit-identical results.
void expect_routed_sweep_matches_single_worker(const std::string& workload) {
  const std::string sweep_line =
      "{\"op\":\"sweep\",\"configs\":[\"SH-STT\",\"PR-SRAM-NT\"]," +
      workload + "}";
  ServerConfig single_config;
  single_config.store_path.clear();
  Server single(single_config);
  const obsj::Value direct = obsj::parse(single.handle_line(sweep_line));
  ASSERT_TRUE(direct.find("ok")->as_bool()) << direct.dump();
  EXPECT_EQ(direct.find("cells")->as_u64(), 2u);

  LocalTier tier(2);
  const obsj::Value routed = ask(*tier.router, sweep_line);
  ASSERT_TRUE(routed.find("ok")->as_bool()) << routed.dump();
  EXPECT_EQ(routed.find("cells")->as_u64(), 2u);
  EXPECT_EQ(routed.find("ran")->as_u64(), 2u);
  EXPECT_EQ(routed.find("failed")->as_u64(), 0u);

  std::size_t routed_keys = 0;
  for (const auto& server : tier.servers) {
    for (const ResultStore::Brief& brief : server->store().list()) {
      ++routed_keys;
      const std::optional<core::SimResult> want = single.store().get(brief.key);
      ASSERT_TRUE(want.has_value()) << brief.key;
      core::expect_same_result(*want, *server->store().get(brief.key));
    }
  }
  EXPECT_EQ(routed_keys, single.store().size());
}

TEST(RouterSweep, TraceFileSweepMatchesASingleWorker) {
  const std::string trace_path = record_radix_trace();
  const std::string workload = "\"trace_file\":\"" + trace_path + "\"";
  expect_routed_sweep_matches_single_worker(workload);
  std::remove(trace_path.c_str());
}

TEST(RouterSweep, ProfileFileSweepMatchesASingleWorker) {
  const std::string trace_path = record_radix_trace();
  const std::string profile_path = test::scratch_path("radix_profile.json");
  const workload::WorkloadProfile profile =
      trace::fit::fit_trace(trace::load_trace(trace_path));
  trace::fit::save_profile(profile, profile_path);
  const std::string workload =
      "\"profile_file\":\"" + profile_path + "\",\"scale\":0.05";
  expect_routed_sweep_matches_single_worker(workload);
  std::remove(trace_path.c_str());
  std::remove(profile_path.c_str());
}

// cycle_skip is not part of a key, but each forwarded cell must still
// carry it: a "cycle_skip":false sweep asks for the reference path.
TEST(RouterSweep, ForwardsCycleSkipInEveryCell) {
  auto owned = std::make_unique<RecordingWorker>();
  RecordingWorker& worker = *owned;
  std::vector<std::unique_ptr<WorkerBackend>> backends;
  backends.push_back(std::move(owned));
  Router router(RouterConfig{}, std::move(backends));

  for (const bool cycle_skip : {false, true}) {
    worker.lines.clear();
    const std::string line =
        std::string("{\"op\":\"sweep\",\"configs\":[\"SH-STT\"],") +
        "\"benchmarks\":[\"ocean\",\"radix\"],\"cycle_skip\":" +
        (cycle_skip ? "true" : "false") + "}";
    const obsj::Value sweep = ask(router, line);
    ASSERT_TRUE(sweep.find("ok")->as_bool()) << sweep.dump();
    EXPECT_EQ(sweep.find("ran")->as_u64(), 2u);
    ASSERT_EQ(worker.lines.size(), 2u);
    for (const std::string& line : worker.lines) {
      const core::RequestSpec forwarded =
          core::request_spec_from_json(obsj::parse(line));
      EXPECT_EQ(forwarded.options.cycle_skip, cycle_skip) << line;
    }
  }
}

TEST(RouterFailover, KeyedRequestsFailOverSweepCellsDoNot) {
  // Worker 0 is dead; worker 1 is healthy.
  ServerConfig worker_config;
  Server healthy(worker_config);
  std::vector<std::unique_ptr<WorkerBackend>> backends;
  backends.push_back(std::make_unique<DeadWorker>());
  backends.push_back(std::make_unique<LocalWorker>("local:1", healthy));
  Router router(RouterConfig{}, std::move(backends));

  // Find a benchmark whose key is owned by the dead shard 0.
  std::string owned_by_dead;
  for (const std::string& benchmark : workload::benchmark_names()) {
    core::RequestSpec spec;
    spec.config = core::ConfigId::kShStt;
    spec.benchmark = benchmark;
    spec.options.workload_scale = 0.05;
    if (router.shard_of(core::canonical_key(spec)) == 0) {
      owned_by_dead = benchmark;
      break;
    }
  }
  ASSERT_FALSE(owned_by_dead.empty());

  // The keyed run fails over to the healthy worker and succeeds.
  const obsj::Value run = ask(router, run_line("SH-STT", owned_by_dead));
  ASSERT_TRUE(run.find("ok")->as_bool());
  EXPECT_EQ(run.find("shard")->as_u64(), 0u);       // Owner...
  EXPECT_EQ(run.find("worker")->as_string(), "local:1");  // ...stand-in.
  EXPECT_EQ(counter(router, "router.failovers"), 1.0);

  // Sweep cells owned by the dead shard fail instead of rerouting: the
  // healthy shard's store must stay pure for exact resume.
  const obsj::Value sweep = ask(
      router, "{\"op\":\"sweep\",\"configs\":[\"SH-STT\"],\"benchmarks\":[\"" +
                  owned_by_dead + "\",\"ocean\",\"radix\",\"fft\"],"
                  "\"scale\":0.05}");
  ASSERT_TRUE(sweep.find("ok")->as_bool());
  EXPECT_GE(sweep.find("failed")->as_u64(), 1u);
  EXPECT_EQ(sweep.find("failed")->as_u64() + sweep.find("ran")->as_u64() +
                sweep.find("cached")->as_u64(),
            4u);
  EXPECT_EQ(counter(router, "router.failovers"), 1.0);  // Unchanged.
}

TEST(RouterFailover, SingleDeadWorkerIsATypedError) {
  std::vector<std::unique_ptr<WorkerBackend>> backends;
  backends.push_back(std::make_unique<DeadWorker>());
  Router router(RouterConfig{}, std::move(backends));
  const obsj::Value run = ask(router, run_line("SH-STT", "ocean"));
  EXPECT_FALSE(run.find("ok")->as_bool());
  EXPECT_EQ(run.find("error")->find("kind")->as_string(),
            "worker_unavailable");
}

TEST(RouterQueries, ListParetoAndStatsMergeAcrossWorkers) {
  LocalTier tier(2);
  Router& router = *tier.router;
  ASSERT_TRUE(ask(router,
                  "{\"op\":\"sweep\",\"configs\":[\"SH-STT\",\"PR-SRAM-NT\"],"
                  "\"benchmarks\":[\"ocean\",\"radix\"],\"scale\":0.05}")
                  .find("ok")
                  ->as_bool());

  // list: the union of both shards, deduplicated and sorted by key.
  const obsj::Value list = ask(router, "{\"op\":\"list\"}");
  ASSERT_TRUE(list.find("ok")->as_bool());
  EXPECT_EQ(list.find("count")->as_u64(), 4u);
  const obsj::Array& runs = list.find("runs")->as_array();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_LT(runs[i - 1].find("key")->as_string(),
              runs[i].find("key")->as_string());
  }

  // pareto: recomputed over the union — every returned point must be
  // non-dominated against every other returned point.
  const obsj::Value pareto = ask(router, "{\"op\":\"pareto\"}");
  ASSERT_TRUE(pareto.find("ok")->as_bool());
  const obsj::Array& points = pareto.find("points")->as_array();
  ASSERT_GE(points.size(), 1u);
  for (const obsj::Value& a : points) {
    for (const obsj::Value& b : points) {
      const bool dominates =
          b.find("x")->as_double() <= a.find("x")->as_double() &&
          b.find("y")->as_double() <= a.find("y")->as_double() &&
          (b.find("x")->as_double() < a.find("x")->as_double() ||
           b.find("y")->as_double() < a.find("y")->as_double());
      EXPECT_FALSE(dominates);
    }
  }
  const obsj::Value bad_metric =
      ask(router, "{\"op\":\"pareto\",\"x\":\"nope\"}");
  EXPECT_FALSE(bad_metric.find("ok")->as_bool());

  // stats: router counters plus one entry per worker.
  const obsj::Value stats = ask(router, "{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("counters")->find("router.workers")->as_u64(), 2u);
  const obsj::Array& worker_stats = stats.find("workers")->as_array();
  ASSERT_EQ(worker_stats.size(), 2u);
  for (const obsj::Value& w : worker_stats) {
    const obsj::Value* counters =
        w.find("response")->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("serve.backlog"), nullptr);
    ASSERT_NE(counters->find("serve.queue_wait_ms.count"), nullptr);
  }
  // The backlog gauge settles to 0 once the workers' schedulers retire
  // the sweep's jobs (the retire races the sweep response by design).
  double backlog_gauges = -1.0;
  for (int attempt = 0; attempt < 100 && backlog_gauges != 0.0; ++attempt) {
    backlog_gauges = 0.0;
    for (const auto& server : tier.servers) {
      backlog_gauges += *server->counters().find("serve.backlog");
    }
    if (backlog_gauges != 0.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(backlog_gauges, 0.0);
}

TEST(RouterMerge, FansOutToEveryWorkerStore) {
  // Two workers with durable stores; a third log merges into both, so
  // any shard can answer the merged keys (replication after failover).
  const std::string store0 = test::scratch_path("merge_w0.jsonl");
  const std::string store1 = test::scratch_path("merge_w1.jsonl");
  const std::string side = test::scratch_path("merge_side.jsonl");
  for (const std::string& p : {store0, store1, side}) std::remove(p.c_str());
  {
    ResultStore source(side);
    core::SimResult result;
    result.config_name = "SH-STT";
    result.benchmark = "synthetic";
    result.cycles = 123;
    source.put("side-key", result);
  }
  {
    ServerConfig c0, c1;
    c0.store_path = store0;
    c1.store_path = store1;
    Server w0(c0), w1(c1);
    std::vector<std::unique_ptr<WorkerBackend>> backends;
    backends.push_back(std::make_unique<LocalWorker>("local:0", w0));
    backends.push_back(std::make_unique<LocalWorker>("local:1", w1));
    Router router(RouterConfig{}, std::move(backends));

    const obsj::Value merge =
        ask(router, "{\"op\":\"merge\",\"path\":\"" + side + "\"}");
    ASSERT_TRUE(merge.find("ok")->as_bool());
    for (const obsj::Value& w : merge.find("workers")->as_array()) {
      EXPECT_EQ(w.find("response")->find("inserted")->as_u64(), 1u);
    }
    EXPECT_TRUE(w0.store().contains("side-key"));
    EXPECT_TRUE(w1.store().contains("side-key"));

    const obsj::Value missing_path = ask(router, "{\"op\":\"merge\"}");
    EXPECT_EQ(missing_path.find("error")->find("kind")->as_string(),
              "bad_request");

    const obsj::Value compact = ask(router, "{\"op\":\"compact\"}");
    ASSERT_TRUE(compact.find("ok")->as_bool());

    // list sees the replicated key exactly once despite two copies.
    const obsj::Value list = ask(router, "{\"op\":\"list\"}");
    EXPECT_EQ(list.find("count")->as_u64(), 1u);
  }
  for (const std::string& p : {store0, store1, side}) std::remove(p.c_str());
}

TEST(RouterDrain, ShutdownForwardsToWorkersAndRejectsNewWork) {
  LocalTier tier(2);
  Router& router = *tier.router;
  const obsj::Value shutdown = ask(router, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.find("ok")->as_bool());
  EXPECT_TRUE(router.draining());
  for (const auto& server : tier.servers) {
    EXPECT_TRUE(server->draining());
  }
  const obsj::Value rejected = ask(router, run_line("SH-STT", "ocean"));
  EXPECT_EQ(rejected.find("error")->find("kind")->as_string(), "draining");
  const obsj::Value sweep_rejected =
      ask(router, "{\"op\":\"sweep\",\"scale\":0.05}");
  EXPECT_EQ(sweep_rejected.find("error")->find("kind")->as_string(),
            "draining");
}

TEST(CostModel, BacksOffThroughTheHierarchy) {
  CostModel model;
  EXPECT_EQ(model.predict("SH-STT", "ocean"), 1.0);  // Cold: constant.

  model.observe("SH-STT", "ocean", 100.0);
  model.observe("SH-STT", "ocean", 300.0);
  EXPECT_EQ(model.predict("SH-STT", "ocean"), 200.0);  // Exact pair mean.

  // Unseen pair, seen benchmark: benchmark mean scaled by config factor.
  model.observe("PR-SRAM-NT", "radix", 1000.0);
  const double global_mean = (100.0 + 300.0 + 1000.0) / 3.0;
  EXPECT_DOUBLE_EQ(model.predict("PR-SRAM-NT", "ocean"),
                   200.0 * (1000.0 / global_mean));
  // Unseen benchmark, seen config: config mean.
  EXPECT_DOUBLE_EQ(model.predict("SH-STT", "lu"), 200.0);
  // Both unseen: global mean.
  EXPECT_DOUBLE_EQ(model.predict("SH-PCM", "lu"), global_mean);
  EXPECT_EQ(model.observations(), 3u);
}

TEST(CostModel, SeedsFromAStoreLog) {
  const std::string path = test::scratch_path("cost_seed.jsonl");
  std::remove(path.c_str());
  {
    ResultStore store(path);
    core::SimResult result;
    result.config_name = "SH-STT";
    result.benchmark = "ocean";
    result.cycles = 4242;
    store.put("k", result);
  }
  CostModel model;
  EXPECT_EQ(model.seed_from_store(path), 1u);
  EXPECT_EQ(model.predict("SH-STT", "ocean"), 4242.0);
  EXPECT_EQ(model.seed_from_store(""), 0u);            // Disabled.
  EXPECT_EQ(model.seed_from_store("/no/such/file"), 0u);  // Missing: no-op.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace respin::serve
