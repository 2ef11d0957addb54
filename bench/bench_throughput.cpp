// Host-throughput microbench for the simulator itself (not a paper
// artifact): measures simulations per second of host wall-clock so
// changes to simulator speed show up in BENCH_*.json history.
//
// Four modes over the same (config x benchmark) grid:
//   serial/no-skip   one thread, cycle-by-cycle clock (the reference path)
//   serial/skip      one thread, event-driven clock
//   parallel/skip    all host threads, event-driven clock
//   parallel/trace   parallel/skip with a live trace sink attached
// All four produce bit-identical results (asserted here on total cycles);
// only the wall-clock differs. The trace mode doubles as the
// observability-overhead guard: with no sink attached the probes must be
// free, and with a sink attached the simulated work must be unchanged.
//
// A separate serial pass repeats the skip/no-skip comparison on the two
// governed configurations (SH-STT-CC, SH-STT-CC-OS), where every fast
// path must settle its skipped ticks at each epoch boundary; it is
// reported as governed_skip_speedup_vs_noskip.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

// Compile-time half of the zero-overhead guarantee: with the probes
// compiled out (RESPIN_OBS=OFF), ScopedProbe must be an empty literal type
// the optimizer can erase entirely.
static_assert(std::is_empty_v<respin::obs::BasicScopedProbe<false>>,
              "disabled scoped probes must compile to nothing");
static_assert(
    std::is_trivially_destructible_v<respin::obs::BasicScopedProbe<false>>,
    "disabled scoped probes must compile to nothing");

namespace {

struct Mode {
  const char* name;
  const char* key;  // JSON-safe metric prefix
  std::size_t threads;  // 0 = all host threads
  bool cycle_skip;
  bool traced;
};

}  // namespace

int main(int argc, char** argv) {
  respin::bench::init_obs(argc, argv);
  using namespace respin;
  core::RunOptions options = bench::default_options();
  // A quarter of the usual workload keeps the three-mode sweep quick while
  // still exercising every benchmark's phase structure.
  options.workload_scale *= 0.25;
  bench::print_banner(
      "Simulator throughput (host sims/sec; not a paper artifact)",
      "tracks simulator speed: parallel fan-out + event-driven clock",
      options);

  // One private-L1 config, one shared-L1 config, and the hybrid L1D (its
  // per-way class bookkeeping rides the hottest access path, so its cost
  // must show up in the throughput trajectory).
  const std::vector<core::ConfigId> configs = {core::ConfigId::kPrSramNt,
                                               core::ConfigId::kShStt,
                                               core::ConfigId::kShHybrid};
  const std::vector<std::string> benches = workload::benchmark_names();
  const std::size_t sims = configs.size() * benches.size();

  const Mode modes[] = {
      {"serial/no-skip", "serial_noskip", 1, false, false},
      {"serial/skip", "serial_skip", 1, true, false},
      {"parallel/skip", "parallel_skip", 0, true, false},
      {"parallel/trace", "parallel_trace", 0, true, true},
  };

  util::TextTable table("Host throughput (higher is better)");
  table.set_header({"mode", "threads", "wall (s)", "sims/sec", "speedup"});

  // The traced mode attaches a counting sink to every simulation and to
  // the exec pool's probes; the untraced modes run with options.trace as
  // configured (null unless --trace was given).
  obs::CountingSink trace_counter;
  obs::TraceSink* const untraced_sink = options.trace;

  double reference_wall = 0.0;
  std::int64_t reference_cycles = -1;
  std::vector<bench::JsonMetric> json;
  for (const Mode& mode : modes) {
    exec::set_thread_count(mode.threads);
    options.cycle_skip = mode.cycle_skip;
    options.trace = mode.traced ? &trace_counter : untraced_sink;
    if (mode.traced) obs::set_global_sink(&trace_counter);
    const auto start = std::chrono::steady_clock::now();
    const auto matrix = core::run_matrix(configs, benches, options);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::int64_t total_cycles = 0;
    for (const auto& row : matrix) {
      for (const core::SimResult& r : row) total_cycles += r.cycles;
    }
    if (reference_cycles < 0) {
      reference_cycles = total_cycles;
      reference_wall = wall;
    }
    RESPIN_REQUIRE(total_cycles == reference_cycles,
                   "throughput modes (including tracing) must simulate "
                   "identical work");
    table.add_row({mode.name, std::to_string(exec::thread_count()),
                   util::fixed(wall, 2),
                   util::fixed(static_cast<double>(sims) / wall, 2),
                   util::fixed(reference_wall / wall, 2)});
    const std::string key = mode.key;
    // Absolute rates are hardware-dependent (informational in CI, gated
    // only by a local baseline run on the same machine); the speedup
    // ratios below track simulator behaviour and are gated everywhere.
    json.push_back({key + "_wall_seconds", wall, "s", "lower", false});
    json.push_back({key + "_sims_per_sec", static_cast<double>(sims) / wall,
                    "sims/s", "higher", false});
    json.push_back({key + "_mcycles_per_sec",
                    static_cast<double>(reference_cycles) / wall * 1e-6,
                    "Mcycles/s", "higher", false});
    // Parallel speedups scale with the host core count, so only the
    // serial skip/no-skip ratio is comparable across machines.
    json.push_back({key + "_speedup_vs_noskip", reference_wall / wall,
                    "ratio", "higher",
                    mode.cycle_skip && mode.threads == 1});
    if (mode.traced) obs::set_global_sink(untraced_sink);
  }
  exec::set_thread_count(0);
  RESPIN_REQUIRE(trace_counter.count() > 0,
                 "the traced mode must have emitted events");

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Grid: %zu configs x %zu benchmarks = %zu cluster sims, %.2g simulated\n"
      "Gcycles total. speedup is vs serial/no-skip (the seed's path).\n"
      "Tracing guard: probes %s; traced mode emitted %llu events and\n"
      "reproduced the reference cycle count exactly.\n",
      configs.size(), benches.size(), sims,
      static_cast<double>(reference_cycles) * 1e-9,
      respin::obs::kCompiledIn ? "compiled in" : "compiled out",
      static_cast<unsigned long long>(trace_counter.count()));
  json.push_back({"total_gcycles",
                  static_cast<double>(reference_cycles) * 1e-9, "Gcycles",
                  "", false});

  // Governed pass: consolidation observes epoch boundaries, so this ratio
  // tracks the fast paths under a governor separately from the grid above.
  {
    const std::vector<core::ConfigId> governed = {core::ConfigId::kShSttCc,
                                                  core::ConfigId::kShSttCcOs};
    exec::set_thread_count(1);
    options.trace = untraced_sink;
    double walls[2] = {0.0, 0.0};
    std::int64_t cycles[2] = {0, 0};
    for (int skip = 0; skip < 2; ++skip) {
      options.cycle_skip = skip == 1;
      const auto start = std::chrono::steady_clock::now();
      const auto matrix = core::run_matrix(governed, benches, options);
      walls[skip] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      for (const auto& row : matrix) {
        for (const core::SimResult& r : row) cycles[skip] += r.cycles;
      }
    }
    exec::set_thread_count(0);
    RESPIN_REQUIRE(cycles[0] == cycles[1],
                   "governed skip and no-skip must simulate identical work");
    std::printf(
        "Governed pass (SH-STT-CC + SH-STT-CC-OS, serial): no-skip %.2f s,\n"
        "skip %.2f s, speedup %.2f; cycle counts identical.\n",
        walls[0], walls[1], walls[0] / walls[1]);
    json.push_back({"governed_skip_speedup_vs_noskip", walls[0] / walls[1],
                    "ratio", "higher", true});
  }

  // Per-config breakdown on the default path (serial/skip): Table IV rows
  // stress different subsystems (NT SRAM vs shared STT), so the trajectory
  // records each config's simulated-cycles-per-host-second separately.
  if (bench::bench_json_enabled()) {
    exec::set_thread_count(1);
    options.cycle_skip = true;
    options.trace = untraced_sink;
    for (const core::ConfigId config : configs) {
      const auto start = std::chrono::steady_clock::now();
      const auto row = core::run_matrix({config}, benches, options);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::int64_t cycles = 0;
      for (const core::SimResult& r : row.front()) cycles += r.cycles;
      std::string key = core::to_string(config);
      for (char& c : key) {
        // Config names carry '-' and '+' ("SH-HYBRID-4+12"); JSON metric
        // keys stay [a-z0-9_].
        c = std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                : '_';
      }
      json.push_back({"config_" + key + "_wall_seconds", wall, "s", "lower",
                      false});
      json.push_back({"config_" + key + "_mcycles_per_sec",
                      static_cast<double>(cycles) / wall * 1e-6, "Mcycles/s",
                      "higher", false});
    }
    exec::set_thread_count(0);
  }
  bench::export_bench_json("bench_throughput", json);
  return 0;
}
