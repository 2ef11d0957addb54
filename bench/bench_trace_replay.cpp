// Trace-frontend microbench (not a paper artifact): decode throughput of
// the binary trace format and end-to-end replay overhead vs the live
// synthetic generator.
//
// Three measurements over one recorded benchmark:
//   record      drain the generator into the trace file (ops/sec, MB/s)
//   decode      load_trace: file -> in-memory op streams (ops/sec, MB/s)
//   replay      full simulation from the trace, compared to the live run
// The replay row asserts bit-identical results and reports the overhead
// ratio; the trace frontend is required to stay within ~10% of live
// (docs/traces.md), which this binary makes measurable in BENCH history.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "util/require.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double file_size_mb(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return static_cast<double>(is.tellg()) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  respin::bench::init_obs(argc, argv);
  using namespace respin;
  core::RunOptions options = bench::default_options();
  bench::print_banner(
      "Trace capture/replay throughput (not a paper artifact)",
      "trace-driven frontend reproduces live runs with <=10% overhead",
      options);

  const std::string benchmark = "radix";
  const std::uint32_t threads = options.cluster_cores;
  const std::string path = "bench_trace_replay.rspt";

  // Record: generator -> file.
  auto start = std::chrono::steady_clock::now();
  const trace::RecordStats stats = trace::record_benchmark(
      workload::benchmark(benchmark), threads, options.workload_scale,
      options.seed, path);
  const double record_wall = seconds_since(start);
  const double total_records =
      static_cast<double>(stats.ops + stats.ifetches);
  const double mb = file_size_mb(path);

  // Decode: file -> in-memory streams.
  start = std::chrono::steady_clock::now();
  const trace::TraceData data = trace::load_trace(path);
  const double decode_wall = seconds_since(start);
  RESPIN_REQUIRE(data.total_ops() == stats.ops,
                 "decode must see every recorded op");

  // Replay vs live, averaged over a few repetitions to steady the ratio.
  constexpr int kReps = 3;
  const core::ConfigId config = core::ConfigId::kShSttCc;

  double live_wall = 0.0, replay_wall = 0.0;
  core::SimResult live, replay;
  for (int rep = 0; rep < kReps; ++rep) {
    start = std::chrono::steady_clock::now();
    live = trace::live_run_for(config, data, options);
    live_wall += seconds_since(start);

    start = std::chrono::steady_clock::now();
    replay = trace::replay_trace(config, data, options);
    replay_wall += seconds_since(start);
  }
  const std::string diff = trace::diff_results(live, replay);
  RESPIN_REQUIRE(diff.empty(), "replay must be bit-identical to live");

  util::TextTable table("Trace frontend throughput");
  table.set_header({"stage", "wall (s)", "Mrecords/sec", "MB/s"});
  table.add_row({"record", util::fixed(record_wall, 3),
                 util::fixed(total_records / record_wall * 1e-6, 2),
                 util::fixed(mb / record_wall, 1)});
  table.add_row({"decode", util::fixed(decode_wall, 3),
                 util::fixed(total_records / decode_wall * 1e-6, 2),
                 util::fixed(mb / decode_wall, 1)});
  std::printf("%s\n", table.render().c_str());

  const double overhead = replay_wall / live_wall - 1.0;
  std::printf(
      "%s x%u threads, scale %g: %.2f MB trace, %llu ops + %llu ifetches.\n"
      "Replay %.3f s vs live %.3f s over %d reps on %s: %+.1f%% overhead "
      "(budget +10%%).\nReplay is bit-identical to the live run.\n",
      benchmark.c_str(), threads, options.workload_scale, mb,
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.ifetches), replay_wall / kReps,
      live_wall / kReps, kReps, core::to_string(config), overhead * 100.0);

  std::remove(path.c_str());

  // Record/decode rates are hardware-dependent (ungated); the replay
  // overhead ratio is measured against a live run in the same process, so
  // it is stable across machines and gated. The +10% budget lives in the
  // committed baseline: baseline * 1.10 is the failure threshold.
  bench::export_bench_json(
      "bench_trace_replay",
      {{"record_mrecords_per_sec", total_records / record_wall * 1e-6,
        "Mrecords/s", "higher", false},
       {"decode_mrecords_per_sec", total_records / decode_wall * 1e-6,
        "Mrecords/s", "higher", false},
       {"trace_mb", mb, "MB", "", false},
       {"replay_overhead_ratio", replay_wall / live_wall, "ratio", "lower",
        true}});
  return 0;
}
