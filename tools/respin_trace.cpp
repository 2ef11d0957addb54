// respin_trace — capture, inspect, replay and verify binary traces.
//
//   respin_trace record --benchmark radix --out radix.rspt
//   respin_trace record --all --out traces/
//   respin_trace info radix.rspt
//   respin_trace replay radix.rspt --config SH-STT-CC
//   respin_trace verify radix.rspt                  # all 8 configurations
//   respin_trace verify radix.rspt --config SH-STT
//
// Subcommands:
//   record   Drain the synthetic generator for one benchmark (--benchmark,
//            or every catalog benchmark with --all) into compact binary
//            traces. --threads/--scale/--seed select the generator
//            instance (defaults 16/1.0/1).
//   info     Print the header plus per-thread op/ifetch/instruction
//            statistics of a trace file.
//   replay   Run a trace through a Table IV configuration (--config,
//            --size, --no-skip) and print the usual result summary.
//   verify   Replay and ALSO rerun the live synthetic workload, then
//            compare the two SimResults bit for bit. Exits 1 with a
//            field-by-field diff on any mismatch. Without --config,
//            verifies across all eight Table IV configurations.
//   import   Convert a foreign trace (--format, see --list-formats) into
//            the native .rspt format: respin_trace import --format
//            hybridsim mem.txt --out mem.rspt [--name label] [--seed N].
//   fit      Measure a .rspt trace into a workload profile (read/write
//            mix, reuse-distance histogram, sharing, phases); --out
//            writes the canonical profile JSON, --windows sets the phase
//            count (default 8).
//   synth    Generate a .rspt trace from a fitted profile: respin_trace
//            synth --profile p.json --out synth.rspt [--threads N]
//            [--scale S] [--seed N].
//
// Exit codes: 0 success, 1 verification failure or malformed trace /
// foreign input / profile, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "core/report.hpp"
#include "trace/capture.hpp"
#include "trace/fit/fit.hpp"
#include "trace/import/import.hpp"
#include "trace/replay.hpp"
#include "workload/workload.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  respin::cli::usage_error(
      "respin_trace", message,
      "\nusage: respin_trace record|info|replay|verify|import|fit|synth ... "
      "[--version]");
}

struct Args {
  std::string command;
  std::string file;
  std::string benchmark;
  bool all = false;
  std::string out;
  std::uint32_t threads = 16;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string config;
  respin::core::RunOptions replay;
  std::string format;
  std::string name;
  std::string profile;
  std::size_t windows = 8;
  bool list_formats = false;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage_error("missing subcommand");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char*) -> const char* {
      return respin::cli::need_value("respin_trace", argc, argv, i);
    };
    if (std::strcmp(argv[i], "--benchmark") == 0) {
      args.benchmark = need_value("--benchmark");
    } else if (std::strcmp(argv[i], "--all") == 0) {
      args.all = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out = need_value("--out");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const int threads = std::atoi(need_value("--threads"));
      if (threads < 1) usage_error("--threads needs a positive count");
      args.threads = static_cast<std::uint32_t>(threads);
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = std::atof(need_value("--scale"));
      if (!(args.scale > 0.0)) usage_error("--scale must be positive");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--config") == 0) {
      args.config = need_value("--config");
    } else if (std::strcmp(argv[i], "--size") == 0) {
      args.replay.size = respin::core::parse_cache_size(need_value("--size"));
    } else if (std::strcmp(argv[i], "--no-skip") == 0) {
      args.replay.cycle_skip = false;
    } else if (std::strcmp(argv[i], "--format") == 0) {
      args.format = need_value("--format");
    } else if (std::strcmp(argv[i], "--name") == 0) {
      args.name = need_value("--name");
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      args.profile = need_value("--profile");
    } else if (std::strcmp(argv[i], "--windows") == 0) {
      const int windows = std::atoi(need_value("--windows"));
      if (windows < 1) usage_error("--windows needs a positive count");
      args.windows = static_cast<std::size_t>(windows);
    } else if (std::strcmp(argv[i], "--list-formats") == 0) {
      args.list_formats = true;
    } else if (argv[i][0] != '-' && args.file.empty()) {
      args.file = argv[i];
    } else {
      usage_error((std::string("unknown option ") + argv[i]).c_str());
    }
  }
  return args;
}

int cmd_record(const Args& args) {
  using namespace respin;
  if (args.out.empty()) usage_error("record needs --out <file or dir>");
  std::vector<std::string> names;
  if (args.all) {
    names = workload::benchmark_names();
  } else if (!args.benchmark.empty()) {
    names = {args.benchmark};
  } else {
    usage_error("record needs --benchmark <name> or --all");
  }

  for (const std::string& name : names) {
    const workload::WorkloadSpec& spec = workload::benchmark(name);
    const std::string path =
        args.all ? args.out + "/" + name + ".rspt" : args.out;
    const trace::RecordStats stats = trace::record_benchmark(
        spec, args.threads, args.scale, args.seed, path);
    std::printf(
        "%s: %llu ops, %llu ifetches, %llu instructions x %u threads -> %s\n",
        name.c_str(), static_cast<unsigned long long>(stats.ops),
        static_cast<unsigned long long>(stats.ifetches),
        static_cast<unsigned long long>(stats.instructions), args.threads,
        path.c_str());
  }
  return 0;
}

int cmd_info(const Args& args) {
  using namespace respin;
  if (args.file.empty()) usage_error("info needs a trace file");
  const trace::TraceData data = trace::load_trace(args.file);
  std::printf("%s: benchmark %s, %u threads, scale %g, seed %llu\n",
              args.file.c_str(), data.header.benchmark.c_str(),
              data.header.thread_count, data.header.scale,
              static_cast<unsigned long long>(data.header.seed));
  std::printf("  total: %llu ops, %llu ifetches, %llu instructions\n",
              static_cast<unsigned long long>(data.total_ops()),
              static_cast<unsigned long long>(data.total_ifetches()),
              static_cast<unsigned long long>(data.total_instructions()));
  for (std::size_t t = 0; t < data.threads.size(); ++t) {
    const trace::ThreadTrace& thread = data.threads[t];
    std::uint64_t loads = 0, stores = 0, barriers = 0;
    for (const workload::Op& op : thread.ops) {
      if (op.kind == workload::OpKind::kLoad) ++loads;
      if (op.kind == workload::OpKind::kStore) ++stores;
      if (op.kind == workload::OpKind::kBarrier) ++barriers;
    }
    std::printf(
        "  thread %2zu: %8zu ops (%llu loads, %llu stores, %llu barriers), "
        "%8zu ifetches, %9llu instructions\n",
        t, thread.ops.size(), static_cast<unsigned long long>(loads),
        static_cast<unsigned long long>(stores),
        static_cast<unsigned long long>(barriers), thread.ifetch.size(),
        static_cast<unsigned long long>(thread.instructions));
  }
  return 0;
}

int cmd_replay(const Args& args) {
  using namespace respin;
  if (args.file.empty()) usage_error("replay needs a trace file");
  const std::string config = args.config.empty() ? "SH-STT" : args.config;
  const core::ConfigId id = core::parse_config_id(config);
  const trace::TraceData data = trace::load_trace(args.file);
  const core::SimResult result = trace::replay_trace(id, data, args.replay);
  std::printf("%s\n", core::summarize(result).c_str());
  return 0;
}

int cmd_verify(const Args& args) {
  using namespace respin;
  if (args.file.empty()) usage_error("verify needs a trace file");
  const trace::TraceData data = trace::load_trace(args.file);
  const std::vector<core::ConfigId> ids =
      args.config.empty()
          ? core::all_config_ids()
          : std::vector<core::ConfigId>{core::parse_config_id(args.config)};

  int failures = 0;
  for (core::ConfigId id : ids) {
    const core::SimResult live = trace::live_run_for(id, data, args.replay);
    const core::SimResult replay = trace::replay_trace(id, data, args.replay);
    const std::string diff = trace::diff_results(live, replay);
    if (diff.empty()) {
      std::printf("OK   %-16s %s: replay is bit-identical to live\n",
                  core::to_string(id), data.header.benchmark.c_str());
    } else {
      ++failures;
      std::printf("FAIL %-16s %s:\n%s", core::to_string(id),
                  data.header.benchmark.c_str(), diff.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_import(const Args& args) {
  using namespace respin;
  if (args.list_formats) {
    for (const trace::TraceImporter* importer : trace::importer_registry()) {
      std::printf("%-12s %s\n", importer->format_name(),
                  importer->description());
    }
    return 0;
  }
  if (args.format.empty()) {
    usage_error("import needs --format <name> (see --list-formats)");
  }
  if (args.file.empty()) usage_error("import needs a foreign trace file");
  if (args.out.empty()) usage_error("import needs --out <file.rspt>");
  trace::ImportOptions options;
  options.name = args.name;
  options.seed = args.seed;
  const trace::ImportStats stats =
      trace::import_trace(args.format, args.file, args.out, options);
  std::printf(
      "%s: %llu lines -> %llu mem ops, %llu instructions, %llu ifetches "
      "across %u cores (padded to %u threads) -> %s\n",
      args.file.c_str(), static_cast<unsigned long long>(stats.lines),
      static_cast<unsigned long long>(stats.mem_ops),
      static_cast<unsigned long long>(stats.instructions),
      static_cast<unsigned long long>(stats.ifetches), stats.cores_seen,
      stats.thread_count, args.out.c_str());
  return 0;
}

int cmd_fit(const Args& args) {
  using namespace respin;
  if (args.file.empty()) usage_error("fit needs a trace file");
  const trace::TraceData data = trace::load_trace(args.file);
  trace::fit::FitOptions options;
  options.windows = args.windows;
  const workload::WorkloadProfile profile = trace::fit::fit_trace(data, options);
  std::printf("%s: %u threads, %llu instructions/thread, %llu mem ops\n",
              profile.name.c_str(), profile.thread_count,
              static_cast<unsigned long long>(profile.instructions),
              static_cast<unsigned long long>(profile.mem_ops));
  std::printf(
      "  mix: mem %.4f, store %.4f, shared %.4f, avg ipc %.3f, "
      "%zu phases, %llu shared lines\n",
      profile.mem_fraction, profile.store_fraction, profile.shared_fraction,
      profile.avg_ipc, profile.phases.size(),
      static_cast<unsigned long long>(profile.shared_pool_lines));
  std::printf("  reuse histogram (bucket: count):");
  for (std::size_t b = 0; b < profile.reuse_hist.size(); ++b) {
    if (profile.reuse_hist[b] != 0) {
      std::printf(" %zu:%llu", b,
                  static_cast<unsigned long long>(profile.reuse_hist[b]));
    }
  }
  std::printf("\n");
  if (!args.out.empty()) {
    trace::fit::save_profile(profile, args.out);
    std::printf("  profile -> %s\n", args.out.c_str());
  }
  return 0;
}

int cmd_synth(const Args& args) {
  using namespace respin;
  if (args.profile.empty()) usage_error("synth needs --profile <file.json>");
  if (args.out.empty()) usage_error("synth needs --out <file.rspt>");
  const workload::WorkloadProfile profile =
      trace::fit::load_profile(args.profile);
  const std::uint32_t threads =
      args.threads != 16 || profile.thread_count == 0 ? args.threads
                                                      : profile.thread_count;
  const trace::RecordStats stats = trace::fit::synthesize_trace(
      profile, threads, args.scale, args.seed, args.out);
  std::printf(
      "%s: %llu ops, %llu ifetches, %llu instructions x %u threads -> %s\n",
      profile.name.c_str(), static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.ifetches),
      static_cast<unsigned long long>(stats.instructions), threads,
      args.out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (respin::cli::handle_version_flag("respin_trace", argc, argv)) return 0;
  const Args args = parse(argc, argv);
  try {
    if (args.command == "record") return cmd_record(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "replay") return cmd_replay(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "import") return cmd_import(args);
    if (args.command == "fit") return cmd_fit(args);
    if (args.command == "synth") return cmd_synth(args);
  } catch (const respin::trace::ImportError& e) {
    std::fprintf(stderr, "respin_trace: %s\n", e.what());
    return 1;
  } catch (const respin::trace::TraceError& e) {
    std::fprintf(stderr, "respin_trace: %s\n", e.what());
    return 1;
  } catch (const respin::obs::json::Error& e) {
    std::fprintf(stderr, "respin_trace: malformed profile: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "respin_trace: %s\n", e.what());
    return 2;
  }
  usage_error((std::string("unknown subcommand ") + args.command).c_str());
}
