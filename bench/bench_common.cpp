#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "core/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "obs/golden.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "workload/workload.hpp"

namespace respin::bench {
namespace {

// Observability destinations for this bench process. Configured once by
// init_obs (or lazily from RESPIN_TRACE / RESPIN_METRICS on the first
// default_options call); the trace writer must outlive every simulation,
// so both live for the whole process and flush at exit.
struct ObsState {
  std::ofstream trace_os;
  std::unique_ptr<obs::JsonlWriter> trace;
  std::string metrics_path;
  std::string json_path;
  std::vector<obs::MetricsRow> metric_rows;
  std::mutex mu;

  ~ObsState() {
    obs::set_global_sink(nullptr);
    flush_metrics();
  }

  void open_trace(const std::string& path) {
    trace_os.open(path);
    if (!trace_os) {
      std::fprintf(stderr, "bench: cannot open trace file %s\n", path.c_str());
      std::exit(2);
    }
    trace = std::make_unique<obs::JsonlWriter>(trace_os);
    obs::set_global_sink(trace.get());
  }

  void flush_metrics() {
    if (metrics_path.empty() || metric_rows.empty()) return;
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot open metrics file %s\n",
                   metrics_path.c_str());
      return;
    }
    obs::write_metrics_csv(out, metric_rows);
    std::fprintf(stderr, "bench: wrote %zu metric rows to %s\n",
                 metric_rows.size(), metrics_path.c_str());
    metric_rows.clear();
  }
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

// Lazily applies the RESPIN_TRACE / RESPIN_METRICS environment defaults so
// benches that predate init_obs still export when asked to.
ObsState& configured_obs_state() {
  static std::once_flag once;
  std::call_once(once, [] {
    ObsState& state = obs_state();
    if (!state.trace) {
      if (const char* path = std::getenv("RESPIN_TRACE");
          path != nullptr && *path != '\0') {
        state.open_trace(path);
      }
    }
    if (state.metrics_path.empty()) {
      if (const char* path = std::getenv("RESPIN_METRICS");
          path != nullptr && *path != '\0') {
        state.metrics_path = path;
      }
    }
    if (state.json_path.empty()) {
      if (const char* path = std::getenv("RESPIN_BENCH_JSON");
          path != nullptr && *path != '\0') {
        state.json_path = path;
      }
    }
  });
  return obs_state();
}

}  // namespace

void init_obs(int argc, char** argv) {
  ObsState& state = obs_state();
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--trace") == 0) {
      state.open_trace(need_value("--trace"));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      state.metrics_path = need_value("--metrics");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      state.json_path = need_value("--json");
    } else {
      std::fprintf(stderr,
                   "bench: unknown option %s (supported: --trace <file>, "
                   "--metrics <file>, --json <file>)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  configured_obs_state();
}

bool bench_json_enabled() { return !configured_obs_state().json_path.empty(); }

void export_bench_json(const std::string& bench,
                       const std::vector<JsonMetric>& metrics) {
  ObsState& state = configured_obs_state();
  if (state.json_path.empty()) return;
  std::ofstream out(state.json_path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot open json file %s\n",
                 state.json_path.c_str());
    std::exit(2);
  }
  char buf[64];
  out << "{\n  \"schema\": 1,\n  \"bench\": \"" << obs::json::escape(bench)
      << "\",\n  \"toolchain\": {\n    \"compiler\": \""
#if defined(__clang__)
      << obs::json::escape(__VERSION__)  // Clang's banner names itself.
#else
      << obs::json::escape(std::string("gcc ") + __VERSION__)
#endif
      << "\",\n    \"cxx_standard\": "
      << static_cast<long>(__cplusplus) << ",\n    \"build\": \""
#ifdef NDEBUG
      << "Release"
#else
      << "Debug"
#endif
      << "\",\n    \"obs_probes\": "
      << (obs::kCompiledIn ? "true" : "false") << ",\n    \"sim_scale\": "
      << util::sim_scale() << "\n  },\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const JsonMetric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.10g", m.value);
    out << "    \"" << obs::json::escape(m.name) << "\": {\"value\": " << buf
        << ", \"unit\": \"" << obs::json::escape(m.unit) << "\", \"better\": \""
        << obs::json::escape(m.better) << "\", \"gate\": "
        << (m.gate ? "true" : "false") << "}"
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  std::fprintf(stderr, "bench: wrote %zu metrics to %s\n", metrics.size(),
               state.json_path.c_str());
}

void export_metrics(const std::vector<core::SimResult>& results) {
  ObsState& state = configured_obs_state();
  if (state.metrics_path.empty()) return;
  std::lock_guard<std::mutex> lock(state.mu);
  for (const core::SimResult& result : results) {
    state.metric_rows.push_back(core::metrics_row(result));
  }
}

void export_metrics(const core::SimResult& result) {
  export_metrics(std::vector<core::SimResult>{result});
}

core::RunOptions default_options() {
  ObsState& state = configured_obs_state();
  core::RunOptions options;
  options.workload_scale = static_cast<double>(util::sim_scale());
  options.trace = state.trace.get();
  return options;
}

void print_banner(const std::string& artifact, const std::string& paper_claim,
                  const core::RunOptions& options) {
  std::printf("=== Respin reproduction: %s ===\n", artifact.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf(
      "Setup: %u-core cluster, %s caches, workload scale %.1f "
      "(RESPIN_SIM_SCALE), %zu host threads (RESPIN_THREADS)\n\n",
      options.cluster_cores, core::to_string(options.size),
      options.workload_scale, exec::thread_count());
}

std::vector<std::vector<core::SimResult>> run_suite_matrix(
    const std::vector<core::ConfigId>& configs,
    const core::RunOptions& options) {
  std::vector<std::vector<core::SimResult>> rows =
      core::run_matrix(configs, workload::benchmark_names(), options);
  for (const std::vector<core::SimResult>& row : rows) export_metrics(row);
  return rows;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

std::string norm(double value) { return util::fixed(value, 3); }

}  // namespace respin::bench
