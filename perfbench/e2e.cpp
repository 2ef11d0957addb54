// respin_e2e — measurement engine of the end-to-end benchmark.
//
// perfbench/run.py drives this binary; it is not meant to be run by hand.
// It calls only the public library surface (core::run_matrix /
// run_experiment, trace::record_benchmark / load_trace / replay_trace,
// workload::synthetic_factory, serve::Server / Router / ResultStore,
// core::serde, obs::json) and reports raw samples as one JSON document.
// run.py turns them into percentiles, digests and the final result line.
//
//   respin_e2e sim --workload sim-shared-cc --seed 1 --seconds 10
//                  --trace 0 --dir RUN_DIR --out result.json
//   respin_e2e serve-warm --port P --requests warm.jsonl --out warm.json
//   respin_e2e serve-load --port P --schedule a.tsv [--traced-schedule b.tsv]
//                  --warm warm.jsonl --sweep TEMPLATE --sweep-seed N
//                  --seconds 10 --trace 0 --dir RUN_DIR --out result.json
//   respin_e2e ref --reps 3 --out ref.json
//
// Spans (traced runs only) are recorded by this file around each call
// into a library layer, kept in memory, and written to RUN_DIR/spans.jsonl
// when the run ends.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/serde.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/op_source.hpp"
#include "workload/workload.hpp"

namespace {

using namespace respin;
namespace json = obs::json;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// exec pool width of every in-process fan-out: the grids of the sim
/// workloads and serve-mixed's in-process miss simulations. Two leaves
/// room on a 4-core host for the benchmark's own threads.
constexpr std::size_t kPoolWidth = 2;

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------- spans

/// In-memory span log. Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::int64_t open(std::string name, std::int64_t parent,
                    std::uint64_t request) {
    if (!enabled_) return -1;
    const double start = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start, -1.0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Records a span whose interval was measured elsewhere.
  void add(std::string name, double start, double end, std::int64_t parent,
           std::uint64_t request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start, end, parent, request});
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    const double end = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Writes one JSON object per span: id, name, start, end (seconds since
  /// process start), parent id (-1 for roots) and request id.
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream os(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value v = json::Value::object();
      v.set("id", json::Value::number(static_cast<std::uint64_t>(i)));
      v.set("name", json::Value::str(s.name));
      v.set("start", json::Value::number(s.start));
      v.set("end", json::Value::number(s.end));
      v.set("parent", json::Value::number(s.parent));
      v.set("request", json::Value::number(s.request));
      os << v.dump() << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t request;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t parent = -1,
             std::uint64_t request = 0)
      : log_(log), id_(log.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

// -------------------------------------------------------------- helpers

struct Args {
  std::map<std::string, std::string> values;

  const std::string& need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = values.find(key);
    return it == values.end() ? dflt : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + flag);
    }
    args.values[flag.substr(2)] = argv[++i];
  }
  return args;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Host memory high-water mark of a process, MiB, from /proc/<pid>/status.
double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream is("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

json::Value num(double v) { return json::Value::number(v); }
json::Value num_u(std::uint64_t v) { return json::Value::number(v); }

json::Value num_array(const std::vector<double>& values) {
  json::Array items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(num(v));
  return json::Value::array(std::move(items));
}

json::Value str_array(const std::vector<std::string>& values) {
  json::Array items;
  for (const std::string& v : values) items.push_back(json::Value::str(v));
  return json::Value::array(std::move(items));
}

void write_json(const std::string& path, const json::Value& value) {
  std::ofstream os(path);
  os << value.dump() << '\n';
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// One cell's identity and fingerprint: the canonical request key and the
/// FNV-1a hash of its serialized result (the digest input run.py folds).
struct CellPrint {
  std::string key;
  std::string hash;
  std::int64_t cycles = 0;
  std::uint64_t instructions = 0;
  bool hit_cycle_limit = false;
};

CellPrint fingerprint(const std::string& key, const core::SimResult& r) {
  return CellPrint{key, core::key_hash_hex(core::result_to_json(r).dump()),
                   r.cycles, r.instructions, r.hit_cycle_limit};
}

json::Value prints_json(const std::vector<CellPrint>& prints) {
  json::Array items;
  for (const CellPrint& p : prints) {
    json::Value v = json::Value::object();
    v.set("key", json::Value::str(p.key));
    v.set("hash", json::Value::str(p.hash));
    v.set("cycles", json::Value::number(p.cycles));
    v.set("instructions", num_u(p.instructions));
    v.set("hit_cycle_limit", json::Value::boolean(p.hit_cycle_limit));
    items.push_back(std::move(v));
  }
  return json::Value::array(std::move(items));
}

/// Mean microseconds per call of `fn` over `reps` calls, inside one span.
template <typename F>
double time_us_per_call(SpanLog& spans, const char* name, std::int64_t parent,
                        std::size_t reps, F&& fn) {
  ScopedSpan span(spans, name, parent);
  const double t0 = now_s();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return (now_s() - t0) * 1e6 / static_cast<double>(reps);
}

// ------------------------------------------------------- host reference

/// A fixed kernel that shares no code with src/: integer arithmetic, random
/// reads and writes in 256 KiB, 4 MiB and 32 MiB arrays, and a 16-way LRU
/// tag lookup, on two threads like the exec pool. It is timed in its own
/// process between grids (sim workloads) or around the load (serve-mixed),
/// and run.py scales times by its nominal time over its measured time,
/// because the host's speed swings by up to 40% over minutes and the
/// simulator's time swings with this kernel's.
class ReferenceKernel {
 public:
  static constexpr int kThreads = 2;

  ReferenceKernel() {
    for (Buffers& b : buffers_) {
      for (std::vector<std::uint32_t>* a : {&b.small, &b.mid, &b.large}) {
        for (std::uint32_t i = 0; i < a->size(); ++i) (*a)[i] = i * 2654435761u;
      }
    }
  }

  /// Wall seconds of one pass on every thread.
  double run() {
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, t] { sink_ += pass(buffers_[t], t); });
    }
    for (std::thread& th : threads) th.join();
    return now_s() - t0;
  }

 private:
  struct Buffers {
    std::vector<std::uint32_t> small = std::vector<std::uint32_t>(1u << 16);
    std::vector<std::uint32_t> mid = std::vector<std::uint32_t>(1u << 20);
    std::vector<std::uint32_t> large = std::vector<std::uint32_t>(1u << 23);
    std::vector<std::uint64_t> tags = std::vector<std::uint64_t>(kSets * kWays);
    std::vector<std::uint32_t> lru = std::vector<std::uint32_t>(kSets * kWays);
  };
  static constexpr std::size_t kSets = 4096;
  static constexpr std::size_t kWays = 16;

  static std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  static std::uint64_t scatter(std::vector<std::uint32_t>& a, int reps,
                               std::uint64_t x) {
    std::uint64_t acc = 0;
    for (int i = 0; i < reps; ++i) {
      std::uint32_t& v = a[(xorshift(x) ^ acc) & (a.size() - 1)];
      if (v & 1) {
        acc += v;
      } else {
        v ^= static_cast<std::uint32_t>(acc);
      }
    }
    return acc;
  }

  static std::uint64_t pass(Buffers& b, int t) {
    std::uint64_t x = 88172645463325252ull + static_cast<std::uint64_t>(t);
    std::uint64_t acc = 0;
    for (int i = 0; i < 10'000'000; ++i) {
      const std::uint64_t r = xorshift(x);
      acc += (r & 1) ? r * 3 : r >> 3;
    }
    acc += scatter(b.small, 2'000'000, x);
    acc += scatter(b.mid, 1'000'000, x + 1);
    acc += scatter(b.large, 600'000, x + 2);
    std::fill(b.tags.begin(), b.tags.end(), ~0ull);
    std::fill(b.lru.begin(), b.lru.end(), 0u);
    std::uint32_t clock = 0;
    for (int i = 0; i < 2'000'000; ++i) {
      const std::uint64_t r = xorshift(x);
      const std::uint64_t addr = r % 3 == 0 ? r & 0xFFFFF : r & 0x3FFFFFF;
      const std::uint64_t line = addr >> 6;
      std::uint64_t* tags = &b.tags[(line & (kSets - 1)) * kWays];
      std::uint32_t* lru = &b.lru[(line & (kSets - 1)) * kWays];
      std::size_t victim = 0;
      bool hit = false;
      for (std::size_t w = 0; w < kWays && !hit; ++w) {
        hit = tags[w] == line;
        if (hit) lru[w] = ++clock;
        if (lru[w] < lru[victim]) victim = w;
      }
      if (hit) {
        ++acc;
      } else {
        tags[victim] = line;
        lru[victim] = ++clock;
      }
    }
    return acc;
  }

  Buffers buffers_[kThreads];
  std::atomic<std::uint64_t> sink_{0};  ///< Keeps every pass's result live.
};

/// ref: `--reps` passes of the reference kernel, in wall seconds.
json::Value host_reference(const Args& args) {
  ReferenceKernel kernel;
  std::vector<double> seconds;
  for (int i = 0, n = std::stoi(args.need("reps")); i < n; ++i) {
    seconds.push_back(kernel.run());
  }
  json::Value out = json::Value::object();
  out.set("seconds", num_array(seconds));
  return out;
}

/// Wall seconds of one reference pass, run as `respin_e2e ref` in a child
/// process so the kernel's buffers stay out of this process's peak RSS.
double reference_pass(const std::string& dir) {
  const std::string out = dir + "/ref.json";
  std::vector<std::string> args = {"respin_e2e", "ref", "--reps", "1",
                                   "--out", out};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
    throw std::runtime_error("cannot start the reference kernel");
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference kernel failed");
  }
  const json::Value v = json::parse(read_lines(out).at(0));
  return v.find("seconds")->as_array().at(0).as_double();
}

// ------------------------------------------------------- sim workloads

struct SimCell {
  std::string line;  ///< The cell as a protocol request line.
  core::RequestSpec spec;
  std::string key;
};

/// Per-layer figures shared by every workload's traced run.
struct LayerFigures {
  std::map<std::string, double> values;
  void add(const std::string& name, double v) { values[name] += v; }
  void set(const std::string& name, double v) { values[name] = v; }
  json::Value to_json() const {
    json::Value v = json::Value::object();
    for (const auto& [name, value] : values) v.set(name, num(value));
    return v;
  }
};

/// Drains every thread's synthetic stream of `spec` (the op generation a
/// live run performs) and accumulates workload.* figures.
void drain_synthetic(SpanLog& spans, std::int64_t parent,
                     const core::RequestSpec& spec, LayerFigures& layers) {
  ScopedSpan span(spans, "workload.drain", parent);
  const double t0 = now_s();
  const workload::WorkloadSpec& ws = workload::benchmark(spec.benchmark);
  const workload::OpSourceFactory factory = workload::synthetic_factory(
      ws, spec.options.workload_scale, spec.options.seed);
  std::uint64_t ops = 0;
  const std::uint32_t threads = spec.options.cluster_cores;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workload::OpStream stream = factory(t, threads);
    while (stream.next().kind != workload::OpKind::kFinished) ++ops;
  }
  layers.add("workload.gen_s", now_s() - t0);
  layers.add("workload.ops", static_cast<double>(ops));
}

/// Parse/key/serialize probes over a workload's request lines and results.
void serde_probes(SpanLog& spans, std::int64_t parent,
                  const std::vector<std::string>& lines,
                  const std::vector<core::SimResult>& results,
                  LayerFigures& layers) {
  constexpr std::size_t kReps = 40;
  const std::size_t n = lines.size() * kReps;
  std::vector<json::Value> parsed(lines.size());
  layers.set("obs.json_parse_us",
             time_us_per_call(spans, "obs.json_parse", parent, n,
                              [&](std::size_t i) {
                                parsed[i % lines.size()] =
                                    json::parse(lines[i % lines.size()]);
                              }));
  std::size_t key_bytes = 0;  // A sink, so the keys are really built.
  layers.set("core.canonical_key_us",
             time_us_per_call(
                 spans, "core.canonical_key", parent, n, [&](std::size_t i) {
                   const core::RequestSpec spec =
                       core::request_spec_from_json(parsed[i % lines.size()]);
                   key_bytes += core::canonical_key(spec).size();
                 }));
  std::size_t result_bytes = 0;
  const std::size_t m = results.size() * kReps;
  layers.set("core.result_json_us",
             time_us_per_call(spans, "core.result_to_json", parent, m,
                              [&](std::size_t i) {
                                result_bytes +=
                                    core::result_to_json(
                                        results[i % results.size()])
                                        .dump()
                                        .size();
                              }));
  layers.set("core.result_json_bytes",
             static_cast<double>(result_bytes) / static_cast<double>(m));
}

/// Counter figures of one finished cell (metrics_of + collect_counters).
void add_cell_counters(const core::SimResult& r, const obs::CounterSet& sim,
                       LayerFigures& layers) {
  const obs::CounterSet m = core::metrics_of(r);
  auto from = [](const obs::CounterSet& set, const char* name) {
    const double* v = set.find(name);
    return v == nullptr ? 0.0 : *v;
  };
  layers.add("mem.dl1_read_hits", from(m, "dl1.read_hits"));
  layers.add("mem.dl1_read_misses", from(m, "dl1.read_misses"));
  layers.add("mem.dl1_half_misses", from(m, "dl1.half_misses"));
  layers.add("mem.dl1_store_rejections", from(m, "dl1.store_rejections"));
  layers.add("consolidation.epochs", from(m, "consolidation.epochs"));
  layers.add("consolidation.avg_active_cores_sum",
             from(m, "consolidation.avg_active_cores"));
  layers.add("mem.pl1_directory_lookups", from(sim, "pl1.directory_lookups"));
  layers.add("mem.pl1_invalidations_sent",
             from(sim, "pl1.invalidations_sent"));
  layers.add("mem.backside_l2_reads", from(sim, "backside.l2_reads"));
  layers.add("mem.backside_memory_reads", from(sim, "backside.memory_reads"));
}

class SimWorkload {
 public:
  explicit SimWorkload(const Args& args)
      : name_(args.need("workload")),
        seed_(std::stoull(args.need("seed"))),
        seconds_(std::stod(args.need("seconds"))),
        traced_(args.get("trace", "0") == "1"),
        dir_(args.need("dir")),
        spans_(traced_) {
    if (name_ == "sim-shared-cc") {
      replay_ = false;
      configs_ = {core::ConfigId::kShSttCc, core::ConfigId::kShSttCcOs};
      scale_ = 0.25;
    } else if (name_ == "sim-private-replay") {
      replay_ = true;
      configs_ = {core::ConfigId::kPrSramNt};
      scale_ = 0.5;
    } else {
      throw std::invalid_argument("unknown sim workload " + name_);
    }
    exec::set_thread_count(kPoolWidth);
  }

  json::Value run() {
    json::Value out = json::Value::object();
    // Reference passes: before the set-ups, after them, and after each
    // grid, so each set-up and grid has one on either side.
    std::vector<double> ref = {reference_pass(dir_)};
    // Set-up several times, so its median is steady: nine short live
    // set-ups, three trace recordings. The last one's state is kept.
    std::vector<double> setup;
    for (int i = 0, n = replay_ ? 3 : 9; i < n; ++i) setup.push_back(set_up());
    out.set("setup_s", num_array(setup));
    ref.push_back(reference_pass(dir_));

    // Timed grids: at least three, then as many more as fit in the time
    // budget (a grid is predicted to take as long as the last one). A grid
    // that throws is recorded with no prints and zero cycles.
    std::vector<double> walls;
    std::vector<double> cycles;
    std::vector<std::string> rep_errors;
    json::Array reps;
    const double t_end = now_s() + seconds_;
    while (walls.size() < 3 ||
           (now_s() + walls.back() < t_end && walls.size() < 50)) {
      const double t0 = now_s();
      std::vector<core::SimResult> results;
      try {
        results = timed_grid();
      } catch (const std::exception& e) {
        rep_errors.push_back(e.what());
      }
      walls.push_back(now_s() - t0);
      ref.push_back(reference_pass(dir_));
      std::vector<CellPrint> prints;
      double sum = 0.0;
      for (std::size_t i = 0; i < results.size(); ++i) {
        prints.push_back(fingerprint(cells_[i].key, results[i]));
        sum += static_cast<double>(results[i].cycles);
      }
      cycles.push_back(sum);
      reps.push_back(prints_json(prints));
      if (first_results_.empty()) first_results_ = std::move(results);
    }
    out.set("ref_s", num_array(ref));
    out.set("grid_wall_s", num_array(walls));
    out.set("grid_cycles", num_array(cycles));
    out.set("reps", json::Value::array(std::move(reps)));
    out.set("rep_errors", str_array(rep_errors));
    out.set("cells_per_grid", num_u(cells_.size()));
    out.set("peak_rss_mb", num(peak_rss_mb()));
    out.set("checks", sampled_checks());
    if (traced_) out.set("traced", traced_pass());
    spans_.write(dir_ + "/spans.jsonl");
    return out;
  }

 private:
  /// One set-up: build the grid's request cells, and either record every
  /// benchmark's trace (replay) or warm the simulator on one short cell
  /// per configuration (live). Returns its wall seconds.
  double set_up() {
    const double t0 = now_s();
    cells_.clear();
    for (const core::ConfigId id : configs_) {
      for (const std::string& b : workload::benchmark_names()) {
        json::Value req = json::Value::object();
        req.set("op", json::Value::str("run"));
        req.set("config", json::Value::str(core::to_string(id)));
        req.set("benchmark", json::Value::str(b));
        req.set("scale", num(scale_));
        req.set("seed", num_u(seed_));
        SimCell cell;
        cell.line = req.dump();
        cell.spec = core::request_spec_from_json(json::parse(cell.line));
        cell.key = core::canonical_key(cell.spec);
        cells_.push_back(std::move(cell));
      }
    }
    if (replay_) {
      ScopedSpan span(spans_, "trace.record_all");
      trace_paths_.clear();
      for (const SimCell& cell : cells_) {
        const std::string path = dir_ + "/" + cell.spec.benchmark + ".rspt";
        ScopedSpan one(spans_, "trace.record_benchmark", span.id());
        trace::record_benchmark(workload::benchmark(cell.spec.benchmark),
                                cell.spec.options.cluster_cores, scale_,
                                seed_, path);
        trace_paths_.push_back(path);
      }
    } else {
      core::RunOptions warm = cells_.front().spec.options;
      warm.workload_scale = scale_ * 0.2;
      ScopedSpan span(spans_, "core.warm_up");
      core::run_matrix(configs_, {"fft"}, warm);
    }
    return now_s() - t0;
  }

  /// The user's sweep path: one parallel fan-out over the grid.
  std::vector<core::SimResult> timed_grid() {
    if (!replay_) {
      std::vector<std::string> benchmarks;
      for (std::size_t i = 0; i < cells_.size() / configs_.size(); ++i) {
        benchmarks.push_back(cells_[i].spec.benchmark);
      }
      std::vector<core::SimResult> flat;
      for (auto& row : core::run_matrix(configs_, benchmarks,
                                        cells_.front().spec.options)) {
        for (auto& r : row) flat.push_back(std::move(r));
      }
      return flat;
    }
    return exec::parallel_map_n(cells_.size(), [&](std::size_t i) {
      const trace::TraceData data = trace::load_trace(trace_paths_[i]);
      return trace::replay_trace(cells_[i].spec.config, data);
    });
  }

  /// Reference-free checks run on every seed: no cycle-limit hits (run.py
  /// reads them from the prints) and, on replay, replay equal to live on a
  /// seed-sampled cell.
  json::Value sampled_checks() {
    json::Value checks = json::Value::object();
    if (replay_ && !first_results_.empty()) {
      const std::size_t i = seed_ % cells_.size();
      const trace::TraceData data = trace::load_trace(trace_paths_[i]);
      const core::SimResult live =
          trace::live_run_for(cells_[i].spec.config, data);
      const bool same = core::result_to_json(live).dump() ==
                        core::result_to_json(first_results_[i]).dump();
      checks.set("replay_equals_live",
                 json::Value::boolean(same));
      checks.set("replay_equals_live_cell", json::Value::str(cells_[i].key));
    }
    return checks;
  }

  /// One traced grid: the same cells, each built as a ClusterSim directly
  /// so its counter registry is visible, with one span per layer call.
  struct TracedGrid {
    double wall = 0.0;
    std::vector<core::SimResult> results;
    std::vector<obs::CounterSet> counters;
    std::vector<double> cell_s;    ///< ClusterSim construct + run.
    std::vector<double> decode_s;  ///< load_trace (replay only).
    std::vector<double> records;
  };

  TracedGrid traced_grid() {
    TracedGrid g;
    const std::size_t n = cells_.size();
    g.counters.resize(n);
    g.cell_s.assign(n, 0.0);
    g.decode_s.assign(n, 0.0);
    g.records.assign(n, 0.0);
    const double t0 = now_s();
    ScopedSpan grid(spans_, "bench.grid");
    g.results = exec::parallel_map_n(n, [&](std::size_t i) {
      const SimCell& cell = cells_[i];
      core::SimParams params;
      params.workload_scale = cell.spec.options.workload_scale;
      params.seed = cell.spec.options.seed;
      core::SimResult r;
      if (replay_) {
        std::shared_ptr<const trace::TraceData> data;
        {
          ScopedSpan span(spans_, "trace.load_trace", grid.id(), i);
          const double d0 = now_s();
          data = std::make_shared<const trace::TraceData>(
              trace::load_trace(trace_paths_[i]));
          g.decode_s[i] = now_s() - d0;
        }
        g.records[i] =
            static_cast<double>(data->total_ops() + data->total_ifetches());
        const double c0 = now_s();
        ScopedSpan span(spans_, "core.cluster_sim", grid.id(), i);
        const core::ClusterConfig config = core::make_cluster_config(
            cell.spec.config, cell.spec.options.size,
            data->header.thread_count, data->header.seed);
        params.workload_scale = data->header.scale;
        params.seed = data->header.seed;
        core::ClusterSim sim(config, data->header.benchmark,
                             trace::trace_factory(data), params);
        sim.run();
        r = sim.result();
        sim.collect_counters(g.counters[i]);
        g.cell_s[i] = now_s() - c0;
      } else {
        const double c0 = now_s();
        ScopedSpan span(spans_, "core.cluster_sim", grid.id(), i);
        const core::ClusterConfig config = core::make_cluster_config(
            cell.spec.config, cell.spec.options.size,
            cell.spec.options.cluster_cores, cell.spec.options.seed);
        core::ClusterSim sim(config, workload::benchmark(cell.spec.benchmark),
                             params);
        sim.run();
        r = sim.result();
        sim.collect_counters(g.counters[i]);
        g.cell_s[i] = now_s() - c0;
      }
      return r;
    });
    g.wall = now_s() - t0;
    return g;
  }

  /// Traced grids until 20 cells are timed, so the reported median cell
  /// time has ten samples beyond it; counters and prints come from the
  /// first grid.
  json::Value traced_pass() {
    LayerFigures layers;
    const TracedGrid first = traced_grid();
    std::vector<double> all_cell_s = first.cell_s;
    while (all_cell_s.size() < 20) {
      const TracedGrid more = traced_grid();
      all_cell_s.insert(all_cell_s.end(), more.cell_s.begin(),
                        more.cell_s.end());
    }
    const std::vector<core::SimResult>& results = first.results;
    const std::vector<double>& cell_s = first.cell_s;
    std::vector<CellPrint> prints;
    double busy = 0.0;
    std::map<std::string, std::pair<double, double>> per_config;  // s, cyc
    for (std::size_t i = 0; i < results.size(); ++i) {
      prints.push_back(fingerprint(cells_[i].key, results[i]));
      add_cell_counters(results[i], first.counters[i], layers);
      layers.add("core.cycles", static_cast<double>(results[i].cycles));
      layers.add("core.instructions",
                 static_cast<double>(results[i].instructions));
      busy += cell_s[i] + first.decode_s[i];
      auto& pc = per_config[results[i].config_name];
      pc.first += cell_s[i];
      pc.second += static_cast<double>(results[i].cycles);
    }
    layers.set("exec.pool_idle_s",
               first.wall * static_cast<double>(kPoolWidth) - busy);
    if (replay_) {
      double decode = 0.0, rec = 0.0, bytes = 0.0;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        decode += first.decode_s[i];
        rec += first.records[i];
        bytes += static_cast<double>(fs::file_size(trace_paths_[i]));
      }
      layers.set("trace.decode_s", decode);
      layers.set("trace.records", rec);
      layers.set("trace.mb", bytes / (1024.0 * 1024.0));
    }
    {
      ScopedSpan span(spans_, "bench.workload_gen");
      for (const SimCell& cell : cells_) {
        drain_synthetic(spans_, span.id(), cell.spec, layers);
      }
    }
    std::vector<std::string> lines;
    for (const SimCell& cell : cells_) lines.push_back(cell.line);
    {
      ScopedSpan span(spans_, "bench.serde");
      serde_probes(spans_, span.id(), lines, results, layers);
    }
    json::Value per_cfg = json::Value::object();
    for (const auto& [name, sc] : per_config) {
      per_cfg.set(name, num(sc.first * 1e9 / sc.second));
    }
    json::Value out = json::Value::object();
    out.set("wall_s", num(first.wall));
    out.set("cell_s", num_array(all_cell_s));
    out.set("prints", prints_json(prints));
    out.set("ns_per_cycle_by_config", per_cfg);
    out.set("layers", layers.to_json());
    return out;
  }

  std::string name_;
  std::uint64_t seed_;
  double seconds_;
  bool traced_;
  std::string dir_;
  bool replay_ = false;
  double scale_ = 1.0;
  std::vector<core::ConfigId> configs_;
  std::vector<SimCell> cells_;
  std::vector<std::string> trace_paths_;
  std::vector<core::SimResult> first_results_;
  SpanLog spans_;
};

// ------------------------------------------------------------ TCP client

/// Minimal loopback line client that can pipeline: send() and recv_line()
/// are independent, so one thread may write on schedule while another
/// reads responses in order.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line; false on EOF or error.
  bool recv_line(std::string& out) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string roundtrip(const std::string& line) {
    std::string response;
    if (!send(line) || !recv_line(response)) {
      throw std::runtime_error("transport error");
    }
    return response;
  }

  void shutdown_read() { ::shutdown(fd_, SHUT_RD); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool response_ok(const json::Value& v) {
  const json::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

// ------------------------------------------------------- serve workload

/// serve-warm: one set-up's cache warming, all keys on one connection.
json::Value serve_warm(const Args& args) {
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::stoul(args.need("port")));
  const std::vector<std::string> lines = read_lines(args.need("requests"));
  Conn conn(port);
  std::size_t failed = 0;
  for (const std::string& line : lines) {
    if (!response_ok(json::parse(conn.roundtrip(line)))) ++failed;
  }
  json::Value out = json::Value::object();
  out.set("requests", num_u(lines.size()));
  out.set("failed", num_u(failed));
  return out;
}

struct Scheduled {
  double due = 0.0;  ///< Seconds after the phase start.
  int conn = 0;
  std::string cls;  ///< hit, miss, get or pareto.
  std::string line;
  // Filled by the load generator.
  double sent = -1.0;
  double done = -1.0;
  std::string response;
};

std::vector<Scheduled> read_schedule(const std::string& path) {
  std::vector<Scheduled> out;
  for (const std::string& row : read_lines(path)) {
    std::istringstream is(row);
    std::string due_us, conn;
    Scheduled s;
    std::getline(is, due_us, '\t');
    std::getline(is, conn, '\t');
    std::getline(is, s.cls, '\t');
    std::getline(is, s.line);
    s.due = std::stod(due_us) * 1e-6;
    s.conn = std::stoi(conn);
    out.push_back(std::move(s));
  }
  return out;
}

struct SweepRecord {
  double wall_s = 0.0;
  std::uint64_t cells = 0;
  bool ok = false;
  std::vector<std::string> keys;  ///< Cells the tier simulated.
  std::vector<std::uint64_t> shard_cells;
};

/// One open-loop measurement phase plus the closed-loop sweeper.
struct PhaseResult {
  std::vector<Scheduled> requests;
  std::vector<SweepRecord> sweeps;
  double start = 0.0;  ///< now_s() of the first due time.
  double wall_s = 0.0;
  std::vector<std::string> errors;
};

std::string with_seed(const std::string& tmpl, std::uint64_t seed) {
  // The template is a JSON object without a seed member.
  return tmpl.substr(0, tmpl.rfind('}')) + ",\"seed\":" +
         std::to_string(seed) + "}";
}

/// Runs `schedule` open loop on two connections (each request is written
/// when due, responses are read in order by a second thread) while one
/// more connection submits uncached sweeps back to back.
PhaseResult run_phase(std::uint16_t port, std::vector<Scheduled> schedule,
                      const std::string& sweep_template,
                      std::uint64_t& sweep_seed, double seconds) {
  PhaseResult result;
  result.requests = std::move(schedule);
  std::vector<std::vector<std::size_t>> by_conn(2);
  for (std::size_t i = 0; i < result.requests.size(); ++i) {
    by_conn[result.requests[i].conn == 0 ? 0 : 1].push_back(i);
  }
  std::mutex err_mu;
  auto record_error = [&](const std::string& e) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (result.errors.size() < 20) result.errors.push_back(e);
  };

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < 2; ++c) conns.push_back(std::make_unique<Conn>(port));
  Conn sweep_conn(port);

  const double t0 = now_s() + 0.05;
  result.start = t0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      for (const std::size_t i : by_conn[c]) {
        Scheduled& s = result.requests[i];
        std::this_thread::sleep_until(
            kEpoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t0 + s.due)));
        s.sent = now_s() - t0;
        if (!conns[c]->send(s.line)) {
          record_error("send failed on connection " + std::to_string(c));
          conns[c]->shutdown_read();  // Unblock the receiver.
          return;
        }
      }
    });
    threads.emplace_back([&, c] {
      for (const std::size_t i : by_conn[c]) {
        Scheduled& s = result.requests[i];
        std::string line;
        if (!conns[c]->recv_line(line)) {
          record_error("receive failed on connection " + std::to_string(c));
          return;
        }
        s.done = now_s() - t0;
        s.response = std::move(line);
      }
    });
  }
  threads.emplace_back([&] {
    while (now_s() - t0 < seconds) {
      SweepRecord rec;
      const std::string line = with_seed(sweep_template, sweep_seed++);
      const double s0 = now_s();
      if (!sweep_conn.send(line)) {
        record_error("sweep send failed");
        return;
      }
      try {
        for (std::string response;;) {
          if (!sweep_conn.recv_line(response)) {
            record_error("sweep receive failed");
            return;
          }
          const json::Value v = json::parse(response);
          if (v.find("event") == nullptr) {
            rec.ok = response_ok(v);
            const json::Value* ran = v.find("ran");
            const json::Value* failed = v.find("failed");
            if (ran != nullptr && ran->is_number()) rec.cells = ran->as_u64();
            if (failed == nullptr || !failed->is_number() ||
                failed->as_u64() != 0) {
              rec.ok = false;
            }
            break;
          }
          const json::Value* key = v.find("key");
          const json::Value* shard_v = v.find("shard");
          if (response_ok(v) && key != nullptr && shard_v != nullptr) {
            rec.keys.push_back(key->as_string());
            const std::size_t shard = shard_v->as_u64();
            if (rec.shard_cells.size() <= shard) {
              rec.shard_cells.resize(shard + 1);
            }
            ++rec.shard_cells[shard];
          }
        }
      } catch (const std::exception& e) {
        record_error(std::string("sweep response: ") + e.what());
        return;
      }
      rec.wall_s = now_s() - s0;
      result.sweeps.push_back(std::move(rec));
    }
  });
  for (std::thread& t : threads) t.join();
  result.wall_s = now_s() - t0;
  return result;
}

/// The dumped `result` member of a response, or "" when absent.
std::string result_text(const json::Value& response) {
  const json::Value* r = response.find("result");
  return r == nullptr ? std::string() : r->dump();
}

struct WarmRef {
  core::RequestSpec spec;
  std::string key;
  std::string result;  ///< In-process result_to_json dump.
  core::SimResult value;
};

/// Checks every response of a phase and flattens it for run.py: class,
/// latency from due time, generator lateness, service time, ok. A request
/// fails on a transport error, ok:false, or (hit/get) a result that is not
/// byte-identical to the in-process one.
json::Value phase_json(const PhaseResult& phase,
                       const std::map<std::string, const WarmRef*>& refs,
                       std::vector<std::string>& failures) {
  json::Array cls, lat, late, svc, ok;
  for (const Scheduled& s : phase.requests) {
    bool good = s.done >= 0.0;
    if (good) {
      try {
        const json::Value v = json::parse(s.response);
        good = response_ok(v);
        if (good && (s.cls == "hit" || s.cls == "get")) {
          const std::string key = core::canonical_key(
              core::request_spec_from_json(json::parse(s.line)));
          const auto it = refs.find(key);
          good = it != refs.end() && result_text(v) == it->second->result;
        }
      } catch (const std::exception&) {
        good = false;
      }
      if (!good && failures.size() < 20) {
        failures.push_back(s.cls + ": " +
                           s.response.substr(0, 200));
      }
    } else if (failures.size() < 20) {
      failures.push_back(s.cls + ": no response");
    }
    const double done = s.done >= 0.0 ? s.done : phase.wall_s;
    const double sent = s.sent >= 0.0 ? s.sent : done;
    cls.push_back(json::Value::str(s.cls));
    lat.push_back(num((done - s.due) * 1e3));
    late.push_back(num((sent - s.due) * 1e3));
    svc.push_back(num((done - sent) * 1e3));
    ok.push_back(json::Value::boolean(good));
  }
  json::Array sweep_wall, sweep_cells, sweep_ok, shard_cells;
  for (const SweepRecord& r : phase.sweeps) {
    sweep_wall.push_back(num(r.wall_s));
    sweep_cells.push_back(num_u(r.cells));
    sweep_ok.push_back(json::Value::boolean(r.ok));
    json::Array per_shard;
    for (const std::uint64_t c : r.shard_cells) per_shard.push_back(num_u(c));
    shard_cells.push_back(json::Value::array(std::move(per_shard)));
  }
  for (const std::string& e : phase.errors) failures.push_back(e);
  json::Value out = json::Value::object();
  out.set("class", json::Value::array(std::move(cls)));
  out.set("latency_ms", json::Value::array(std::move(lat)));
  out.set("late_ms", json::Value::array(std::move(late)));
  out.set("service_ms", json::Value::array(std::move(svc)));
  out.set("ok", json::Value::array(std::move(ok)));
  out.set("sweep_wall_s", json::Value::array(std::move(sweep_wall)));
  out.set("sweep_cells", json::Value::array(std::move(sweep_cells)));
  out.set("sweep_ok", json::Value::array(std::move(sweep_ok)));
  out.set("sweep_shard_cells", json::Value::array(std::move(shard_cells)));
  out.set("wall_s", num(phase.wall_s));
  return out;
}

/// Simulated cycles of every cell the phase's sweeps ran, read back with
/// `get` (sweep responses carry only tallies); one sum per sweep.
json::Value sweep_cycles(Conn& conn, const PhaseResult& phase,
                         std::vector<std::string>& failures) {
  json::Array sums;
  for (const SweepRecord& r : phase.sweeps) {
    double sum = 0.0;
    for (const std::string& key : r.keys) {
      json::Value req = json::Value::object();
      req.set("op", json::Value::str("get"));
      req.set("key", json::Value::str(key));
      const json::Value v = json::parse(conn.roundtrip(req.dump()));
      const json::Value* result = v.find("result");
      const json::Value* cycles =
          result == nullptr ? nullptr : result->find("cycles");
      if (!response_ok(v) || cycles == nullptr) {
        failures.push_back("get of sweep cell failed: " + key);
        continue;
      }
      sum += cycles->as_double();
    }
    sums.push_back(num(sum));
  }
  return json::Value::array(std::move(sums));
}

/// Runs every miss spec of the phase in process on the exec pool (the
/// same simulations the tier ran) and returns their results in order.
std::vector<core::SimResult> run_in_process(
    const std::vector<core::RequestSpec>& specs, std::vector<double>& cell_s,
    double& wall, SpanLog& spans, std::int64_t parent) {
  cell_s.assign(specs.size(), 0.0);
  const double t0 = now_s();
  std::vector<core::SimResult> results =
      exec::parallel_map_n(specs.size(), [&](std::size_t i) {
        ScopedSpan span(spans, "core.run_experiment", parent, i);
        const double c0 = now_s();
        core::SimResult r = core::run_experiment(
            specs[i].config, specs[i].benchmark, specs[i].options);
        cell_s[i] = now_s() - c0;
        return r;
      });
  wall = now_s() - t0;
  return results;
}

/// In-process probes of the serving stack on one warmed key.
void serve_probes(SpanLog& spans, std::int64_t parent, const std::string& dir,
                  const std::string& line,
                  const std::vector<WarmRef>& refs, LayerFigures& layers) {
  constexpr std::size_t kReps = 400;
  serve::ServerConfig config;
  serve::Server server(config);
  if (!response_ok(json::parse(server.handle_line(line)))) {
    throw std::runtime_error("in-process warm of probe key failed");
  }
  layers.set("serve.worker_hit_us",
             time_us_per_call(spans, "serve.worker_handle_line", parent, kReps,
                              [&](std::size_t) { server.handle_line(line); }));
  std::vector<std::unique_ptr<serve::WorkerBackend>> workers;
  workers.push_back(std::make_unique<serve::LocalWorker>("local", server));
  serve::Router router(serve::RouterConfig{}, std::move(workers));
  layers.set("serve.router_hit_us",
             time_us_per_call(spans, "serve.router_handle_line", parent, kReps,
                              [&](std::size_t) { router.handle_line(line); }));
  const std::string store_path = dir + "/probe_store.jsonl";
  {
    serve::ResultStore store(store_path);
    layers.set("serve.store_put_us",
               time_us_per_call(spans, "serve.store_put", parent, 200,
                                [&](std::size_t i) {
                                  const WarmRef& r = refs[i % refs.size()];
                                  store.put(r.key, r.value);
                                }));
  }
  fs::remove(store_path);
}

json::Value serve_load(const Args& args) {
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::stoul(args.need("port")));
  const double seconds = std::stod(args.need("seconds"));
  const bool traced = args.get("trace", "0") == "1";
  const std::string dir = args.need("dir");
  const std::string sweep_template = args.need("sweep");
  std::uint64_t sweep_seed = std::stoull(args.need("sweep-seed"));
  const std::vector<std::string> warm_lines = read_lines(args.need("warm"));
  exec::set_thread_count(kPoolWidth);
  SpanLog spans(traced);
  std::vector<std::string> failures;
  json::Value out = json::Value::object();

  PhaseResult untraced = run_phase(port, read_schedule(args.need("schedule")),
                                   sweep_template, sweep_seed, seconds);
  std::optional<PhaseResult> traced_phase;
  if (traced) {
    ScopedSpan root(spans, "bench.traced_phase");
    traced_phase = run_phase(port,
                             read_schedule(args.need("traced-schedule")),
                             sweep_template, sweep_seed, seconds);
    // Client spans, one per request from due time to response.
    for (std::size_t i = 0; i < traced_phase->requests.size(); ++i) {
      const Scheduled& s = traced_phase->requests[i];
      if (s.done < 0.0) continue;
      spans.add("net." + s.cls, traced_phase->start + s.due,
                traced_phase->start + s.done, root.id(), i);
    }
  }

  // Tier counters, then sweep-cell cycles (not timed).
  Conn conn(port);
  const json::Value stats = json::parse(conn.roundtrip("{\"op\":\"stats\"}"));
  if (!response_ok(stats)) failures.push_back("stats op failed");
  out.set("stats", stats);
  out.set("sweep_cycles", sweep_cycles(conn, untraced, failures));

  // In-process references for every warmed key.
  std::vector<WarmRef> refs;
  for (const std::string& line : warm_lines) {
    WarmRef r;
    r.spec = core::request_spec_from_json(json::parse(line));
    r.key = core::canonical_key(r.spec);
    r.value = core::run_experiment(r.spec.config, r.spec.benchmark,
                                   r.spec.options);
    r.result = core::result_to_json(r.value).dump();
    refs.push_back(std::move(r));
  }
  std::map<std::string, const WarmRef*> by_key;
  std::vector<CellPrint> prints;
  for (const WarmRef& r : refs) {
    by_key[r.key] = &r;
    prints.push_back(fingerprint(r.key, r.value));
  }
  out.set("warm_prints", prints_json(prints));
  out.set("untraced", phase_json(untraced, by_key, failures));

  // Routed misses equal in-process results on a few sampled keys.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < untraced.requests.size(); ++i) {
    if (untraced.requests[i].cls == "miss" &&
        untraced.requests[i].done >= 0.0) {
      misses.push_back(i);
    }
  }
  std::size_t checked = 0;
  for (std::size_t k = 0; k < misses.size() && checked < 4;
       k += std::max<std::size_t>(1, misses.size() / 4), ++checked) {
    const Scheduled& s = untraced.requests[misses[k]];
    const core::RequestSpec spec =
        core::request_spec_from_json(json::parse(s.line));
    const std::string expect = core::result_to_json(
        core::run_experiment(spec.config, spec.benchmark, spec.options)).dump();
    std::string got;
    try {
      got = result_text(json::parse(s.response));
    } catch (const json::Error&) {
    }
    if (got != expect) {
      failures.push_back("routed miss differs from in-process: " + s.line);
    }
  }
  out.set("miss_checks", num_u(checked));

  if (traced_phase) {
    out.set("traced", phase_json(*traced_phase, by_key, failures));
    LayerFigures layers;
    ScopedSpan probes(spans, "bench.probes");
    std::vector<core::RequestSpec> specs;
    for (const Scheduled& s : untraced.requests) {
      if (s.cls != "miss") continue;
      specs.push_back(core::request_spec_from_json(json::parse(s.line)));
    }
    std::vector<double> cell_s;
    double wall = 0.0;
    std::vector<core::SimResult> results;
    {
      ScopedSpan grid(spans, "bench.miss_sims", probes.id());
      results = run_in_process(specs, cell_s, wall, spans, grid.id());
    }
    double busy = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      busy += cell_s[i];
      add_cell_counters(results[i], obs::CounterSet(), layers);
      layers.add("core.cycles", static_cast<double>(results[i].cycles));
      layers.add("core.instructions",
                 static_cast<double>(results[i].instructions));
    }
    layers.set("exec.pool_idle_s",
               wall * static_cast<double>(kPoolWidth) - busy);
    {
      ScopedSpan span(spans, "bench.workload_gen", probes.id());
      for (const core::RequestSpec& spec : specs) {
        drain_synthetic(spans, span.id(), spec, layers);
      }
    }
    std::vector<core::SimResult> ref_values;
    for (const WarmRef& r : refs) ref_values.push_back(r.value);
    {
      ScopedSpan span(spans, "bench.serde", probes.id());
      serde_probes(spans, span.id(), warm_lines, ref_values, layers);
    }
    {
      ScopedSpan span(spans, "bench.serve_probes", probes.id());
      serve_probes(spans, span.id(), dir, warm_lines.front(), refs, layers);
    }
    json::Value probe_out = json::Value::object();
    probe_out.set("cell_s", num_array(cell_s));
    probe_out.set("layers", layers.to_json());
    out.set("probes", probe_out);
  }
  out.set("failures", str_array(failures));
  spans.write(dir + "/spans.jsonl");
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: respin_e2e sim|serve-warm|serve-load|ref "
                 "--flag value ...\n";
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const Args args = parse_args(argc, argv, 2);
    json::Value out;
    if (mode == "sim") {
      SimWorkload w(args);
      out = w.run();
    } else if (mode == "serve-warm") {
      out = serve_warm(args);
    } else if (mode == "serve-load") {
      out = serve_load(args);
    } else if (mode == "ref") {
      out = host_reference(args);
    } else {
      throw std::invalid_argument("unknown mode " + mode);
    }
    write_json(args.need("out"), out);
  } catch (const std::exception& e) {
    std::cerr << "respin_e2e: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
