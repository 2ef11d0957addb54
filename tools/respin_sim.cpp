// respin_sim — command-line driver for the Respin simulator.
//
// Runs one (configuration, benchmark) pair — or the whole suite — and
// prints a summary; optionally exports results and consolidation traces
// as CSV for external analysis.
//
//   respin_sim --config SH-STT-CC --benchmark radix
//   respin_sim --config SH-STT --all --csv results.csv
//   respin_sim --config SH-STT-CC --benchmark lu --consolidation trace.csv
//   respin_sim --config SH-STT-CC --benchmark lu --metrics out.csv --trace out.jsonl
//   respin_sim --config SH-STT --benchmark ocean --chip
//   respin_sim --config SH-STT --all --time --threads 8
//
// Options:
//   --config <name>      Table IV configuration (default SH-STT)
//   --benchmark <name>   benchmark (default ocean); --all runs the suite
//   --trace-file <f>     replay a recorded/imported .rspt trace instead of
//                        a catalog benchmark (respin_trace record/import)
//   --profile <f>        synthesize the workload from a fitted profile
//                        JSON (respin_trace fit) instead of the catalog
//   --size <class>       small | medium | large          (default medium)
//   --cluster <n>        cores per cluster: 4/8/16/32    (default 16)
//   --scale <x>          workload length multiplier      (default 1.0)
//   --seed <n>           die + workload seed             (default 1)
//   --chip               simulate all clusters of the 64-core chip
//   --threads <n>        host threads for the fan-out (default: all cores,
//                        or RESPIN_THREADS); results do not depend on it
//   --time               report wall-clock per run and aggregate sims/sec
//   --no-skip            disable the event-driven clock (reference path)
//   --shared-tech <t>    override the cache technology of a shared-L1
//                        configuration (SRAM | STT-RAM | PCM | eDRAM)
//   --private-tech <t>   override the cache technology of a private-L1
//                        configuration
//   --hybrid-ways <s+n>  partition the shared L1D into s SRAM + n NVM ways
//                        (e.g. 4+12); s+0 / 0+n collapse to a pure array
//   --faults             enable fault injection (see docs/faults.md)
//   --fault-seed <n>     fault-stream seed (default: --seed value)
//   --stt-wfail <p>      STT write-failure probability per attempt
//   --stt-retries <n>    write-retry budget before a line is disabled
//   --sram-vccmin <v>    mean SRAM bit-cell Vccmin, volts
//   --sram-sigma <v>     per-cell Vccmin spread (sigma), volts
//   --fault-vdd <v>      evaluate the SRAM model at this rail instead of
//                        the configuration's cache Vdd (voltage sweeps)
//   --csv <file>         write result rows as CSV
//   --metrics <file>     write the full counter registry as CSV
//                        (run,counter,value — see docs/observability.md)
//   --trace <file>       write the structured event trace as JSONL
//                        (epoch/consolidation/run_complete/probe events)
//   --consolidation <f>  write the consolidation trace as CSV
//   --list               list configurations and benchmarks, then exit
//   --list-configs       bare configuration names only (for scripting)
//   --list-workloads     bare benchmark names only (for scripting)
//   --version            print build provenance (git describe, toolchain)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "core/chip.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "exec/parallel.hpp"
#include "nvsim/tech_backend.hpp"
#include "obs/golden.hpp"
#include "obs/obs.hpp"
#include "trace/replay.hpp"
#include "workload/workload.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  respin::cli::usage_error("respin_sim", message, "(try --list)");
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace respin;

  if (cli::handle_version_flag("respin_sim", argc, argv)) return 0;

  std::string config_name = "SH-STT";
  std::string benchmark = "ocean";
  std::string trace_file;
  std::string profile_path;
  bool run_all = false;
  bool chip = false;
  bool report_time = false;
  std::string csv_path;
  std::string metrics_path;
  std::string jsonl_path;
  std::string consolidation_path;
  core::RunOptions options;
  bool fault_seed_set = false;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char*) -> const char* {
      return cli::need_value("respin_sim", argc, argv, i, "(try --list)");
    };
    if (std::strcmp(argv[i], "--config") == 0) {
      config_name = need_value("--config");
    } else if (std::strcmp(argv[i], "--benchmark") == 0) {
      benchmark = need_value("--benchmark");
    } else if (std::strcmp(argv[i], "--trace-file") == 0) {
      trace_file = need_value("--trace-file");
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile_path = need_value("--profile");
    } else if (std::strcmp(argv[i], "--all") == 0) {
      run_all = true;
    } else if (std::strcmp(argv[i], "--size") == 0) {
      options.size = core::parse_cache_size(need_value("--size"));
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      options.cluster_cores =
          static_cast<std::uint32_t>(std::atoi(need_value("--cluster")));
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      options.workload_scale = std::atof(need_value("--scale"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = static_cast<std::uint64_t>(
          std::strtoull(need_value("--seed"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--chip") == 0) {
      chip = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const int threads = std::atoi(need_value("--threads"));
      if (threads < 1) usage_error("--threads needs a positive count");
      exec::set_thread_count(static_cast<std::size_t>(threads));
    } else if (std::strcmp(argv[i], "--time") == 0) {
      report_time = true;
    } else if (std::strcmp(argv[i], "--no-skip") == 0) {
      options.cycle_skip = false;
    } else if (std::strcmp(argv[i], "--shared-tech") == 0 ||
               std::strcmp(argv[i], "--private-tech") == 0) {
      const bool shared = argv[i][2] == 's';
      const char* flag = shared ? "--shared-tech" : "--private-tech";
      const char* value = need_value(flag);
      const nvsim::TechBackend* backend =
          nvsim::TechnologyRegistry::instance().find(value);
      if (backend == nullptr) {
        std::string names;
        for (const auto* b : nvsim::TechnologyRegistry::instance().all()) {
          names += names.empty() ? b->name() : std::string("/") + b->name();
        }
        usage_error((std::string(flag) + " needs one of " + names).c_str());
      }
      if (shared) {
        options.tech.shared_tech = backend->tech();
      } else {
        options.tech.private_tech = backend->tech();
      }
    } else if (std::strcmp(argv[i], "--hybrid-ways") == 0) {
      const char* spec = need_value("--hybrid-ways");
      unsigned sram = 0, nvm = 0;
      if (std::sscanf(spec, "%u+%u", &sram, &nvm) != 2 || sram + nvm == 0) {
        usage_error("--hybrid-ways needs the form <sram>+<nvm>, e.g. 4+12");
      }
      options.tech.hybrid_sram_ways = sram;
      options.tech.hybrid_nvm_ways = nvm;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      options.faults.enabled = true;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      options.faults.seed = static_cast<std::uint64_t>(
          std::strtoull(need_value("--fault-seed"), nullptr, 10));
      fault_seed_set = true;
    } else if (std::strcmp(argv[i], "--stt-wfail") == 0) {
      options.faults.stt.write_fail_prob = std::atof(need_value("--stt-wfail"));
    } else if (std::strcmp(argv[i], "--stt-retries") == 0) {
      options.faults.stt.max_write_retries =
          static_cast<std::uint32_t>(std::atoi(need_value("--stt-retries")));
    } else if (std::strcmp(argv[i], "--sram-vccmin") == 0) {
      options.faults.sram.vccmin_mean = std::atof(need_value("--sram-vccmin"));
    } else if (std::strcmp(argv[i], "--sram-sigma") == 0) {
      options.faults.sram.vccmin_sigma = std::atof(need_value("--sram-sigma"));
    } else if (std::strcmp(argv[i], "--fault-vdd") == 0) {
      options.faults.sram.vdd_override = std::atof(need_value("--fault-vdd"));
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = need_value("--csv");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = need_value("--metrics");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      jsonl_path = need_value("--trace");
    } else if (std::strcmp(argv[i], "--consolidation") == 0) {
      consolidation_path = need_value("--consolidation");
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("configurations:\n");
      for (core::ConfigId id : core::all_config_ids()) {
        std::printf("  %s\n", core::to_string(id));
      }
      std::printf("benchmarks:\n");
      for (const std::string& name : workload::benchmark_names()) {
        std::printf("  %s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(argv[i], "--list-configs") == 0) {
      // Bare names, one per line — greppable / shell-loop friendly.
      for (core::ConfigId id : core::all_config_ids()) {
        std::printf("%s\n", core::to_string(id));
      }
      return 0;
    } else if (std::strcmp(argv[i], "--list-workloads") == 0) {
      for (const std::string& name : workload::benchmark_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      usage_error((std::string("unknown option ") + argv[i]).c_str());
    }
  }

  const core::ConfigId config = core::parse_config_id(config_name);
  // The fault stream follows the die/workload seed unless pinned apart,
  // so "--seed N --faults" varies both together by default.
  if (options.faults.enabled && !fault_seed_set) {
    options.faults.seed = options.seed;
  }

  // Trace/profile workloads are single runs through the cluster path.
  if (!trace_file.empty() && !profile_path.empty()) {
    usage_error("--trace-file and --profile are mutually exclusive");
  }
  if ((!trace_file.empty() || !profile_path.empty()) && (run_all || chip)) {
    usage_error("--trace-file/--profile run one workload; drop --all/--chip");
  }
  if (!trace_file.empty() && (options.faults.enabled || options.tech.any())) {
    usage_error("--trace-file does not support fault/tech overrides (replay "
                "reuses the recorded configuration; fit the trace and use "
                "--profile instead)");
  }

  // Structured trace: one JSONL sink shared by the simulations (epoch and
  // run records) and the exec pool's timing probes.
  std::ofstream jsonl_os;
  std::optional<obs::JsonlWriter> jsonl_writer;
  if (!jsonl_path.empty()) {
    jsonl_os.open(jsonl_path);
    if (!jsonl_os) usage_error("cannot open --trace output file");
    jsonl_writer.emplace(jsonl_os);
    options.trace = &*jsonl_writer;
    obs::set_global_sink(&*jsonl_writer);
  }

  if (chip) {
    const auto wall_start = std::chrono::steady_clock::now();
    const core::ChipResult result = core::run_chip(config, benchmark, options);
    const double wall = seconds_since(wall_start);
    std::printf("%s/%s on the full 64-core chip (%zu clusters):\n",
                result.config_name.c_str(), benchmark.c_str(),
                result.clusters.size());
    std::printf("  time %.3f ms, energy %.1f mJ, power %.1f W, %llu instr\n",
                result.seconds * 1e3, result.energy.total() * 1e-9,
                result.watts(),
                static_cast<unsigned long long>(result.instructions));
    for (const auto& r : result.clusters) {
      std::printf("  cluster: %s\n", core::summarize(r).c_str());
    }
    if (report_time) {
      std::printf(
          "wall-clock: %.2f s for %zu cluster sims on %zu threads "
          "(%.2f sims/sec)\n",
          wall, result.clusters.size(), exec::thread_count(),
          static_cast<double>(result.clusters.size()) / wall);
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) usage_error("cannot open --metrics output file");
      // Chip aggregate first, then one row per cluster.
      std::vector<obs::MetricsRow> rows;
      rows.push_back(obs::MetricsRow{result.config_name + "/" + benchmark +
                                         "/chip",
                                     core::metrics_of(result)});
      for (std::size_t c = 0; c < result.clusters.size(); ++c) {
        obs::MetricsRow row = core::metrics_row(result.clusters[c]);
        row.run += "/cluster" + std::to_string(c);
        rows.push_back(std::move(row));
      }
      obs::write_metrics_csv(out, rows);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
    obs::set_global_sink(nullptr);
    return 0;
  }

  const std::vector<std::string> benches =
      run_all ? workload::benchmark_names()
              : std::vector<std::string>{benchmark};

  // Fan the runs out over the host thread pool; each run times itself so
  // --time can report per-run cost even when they overlap.
  const auto wall_start = std::chrono::steady_clock::now();
  struct TimedRun {
    core::SimResult result;
    double wall_seconds = 0.0;
  };
  const std::vector<TimedRun> runs =
      exec::parallel_map(benches, [&](const std::string& name) {
        const auto start = std::chrono::steady_clock::now();
        TimedRun run;
        run.result = trace::run_request({.config = config,
                                         .benchmark = name,
                                         .trace_file = trace_file,
                                         .profile_file = profile_path,
                                         .options = options});
        run.wall_seconds = seconds_since(start);
        return run;
      });
  const double wall = seconds_since(wall_start);

  std::vector<core::SimResult> results;
  results.reserve(runs.size());
  for (const TimedRun& run : runs) {
    if (report_time) {
      std::printf("[%6.2f s] %s\n", run.wall_seconds,
                  core::summarize(run.result).c_str());
    } else {
      std::printf("%s\n", core::summarize(run.result).c_str());
    }
    if (run.result.faults_enabled) {
      const auto& f = run.result.faults;
      const auto u64 = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
      };
      std::printf(
          "  faults: sram map %llu lines (%llu correctable, %llu disabled), "
          "ecc corrections %llu\n"
          "          stt write faults %llu (%llu retries, %llu lines "
          "disabled), usable L1 %llu/%llu bytes\n",
          u64(f.sram_lines_mapped), u64(f.sram_lines_correctable),
          u64(f.sram_lines_disabled), u64(f.ecc_corrections),
          u64(f.stt_write_faults), u64(f.stt_write_retries),
          u64(f.stt_lines_disabled), u64(run.result.fault_l1_usable_bytes),
          u64(run.result.fault_l1_total_bytes));
    }
    if (run.result.hybrid_sram_ways > 0) {
      std::printf(
          "  hybrid L1D: %u SRAM + %u NVM ways, sram-class accesses "
          "%llu reads / %llu writes\n",
          run.result.hybrid_sram_ways, run.result.hybrid_nvm_ways,
          static_cast<unsigned long long>(run.result.counts.l1_sram_reads),
          static_cast<unsigned long long>(run.result.counts.l1_sram_writes));
    }
    results.push_back(run.result);
  }
  if (report_time) {
    std::printf("wall-clock: %.2f s for %zu sims on %zu threads "
                "(%.2f sims/sec)\n",
                wall, runs.size(), exec::thread_count(),
                static_cast<double>(runs.size()) / wall);
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) usage_error("cannot open --csv output file");
    core::write_results_csv(out, results);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) usage_error("cannot open --metrics output file");
    core::write_metrics_csv(out, results);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!consolidation_path.empty()) {
    std::ofstream out(consolidation_path);
    if (!out) usage_error("cannot open --consolidation output file");
    core::write_trace_csv(out, results.front());
    std::printf("wrote %s\n", consolidation_path.c_str());
  }
  obs::set_global_sink(nullptr);
  return 0;
}
