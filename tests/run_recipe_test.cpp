// One run recipe: catalog runs, chip clusters, trace replays and
// fitted-profile runs all go through core::simulate, so each of them
// honours the fault plan and reaches the trace sink the same way.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "core/chip.hpp"
#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "scratch_path.hpp"
#include "trace/capture.hpp"
#include "trace/fit/fit.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/workload.hpp"

namespace respin {
namespace {

trace::TraceData recorded_radix(const std::string& name) {
  const std::string path = test::scratch_path(name);
  trace::record_benchmark(workload::benchmark("radix"), 8, 0.04, 1, path);
  trace::TraceData data = trace::load_trace(path);
  std::remove(path.c_str());
  return data;
}

bool has_event(const std::string& jsonl, const std::string& event) {
  return jsonl.find("\"event\":\"" + event + "\"") != std::string::npos;
}

TEST(RunRecipe, ChipHonoursTheFaultPlan) {
  core::RunOptions options;
  options.workload_scale = 0.05;
  options.faults.enabled = true;
  options.faults.stt.write_fail_prob = 0.2;
  const core::ChipResult chip =
      core::run_chip(core::ConfigId::kShStt, "fft", options);
  ASSERT_EQ(chip.clusters.size(), 4u);
  for (const core::SimResult& cluster : chip.clusters) {
    EXPECT_TRUE(cluster.faults_enabled);
    EXPECT_GT(cluster.faults.stt_write_faults, 0u);
  }
}

TEST(RunRecipe, ReplayReachesTheTraceSink) {
  const trace::TraceData data = recorded_radix("recipe_sink.rspt");
  for (const core::ConfigId id :
       {core::ConfigId::kShSttCc, core::ConfigId::kShSttCcOracle}) {
    SCOPED_TRACE(core::to_string(id));
    std::ostringstream live_os, replay_os;
    obs::JsonlWriter live_sink(live_os), replay_sink(replay_os);
    core::RunOptions options;
    options.trace = &live_sink;
    trace::live_run_for(id, data, options);
    options.trace = &replay_sink;
    trace::replay_trace(id, data, options);

    EXPECT_TRUE(has_event(replay_os.str(), "epoch"));
    EXPECT_TRUE(has_event(replay_os.str(), "run_complete"));
    EXPECT_EQ(live_os.str(), replay_os.str());
  }
}

TEST(RunRecipe, ProfileRunRecordsRunComplete) {
  const auto profile = std::make_shared<const workload::WorkloadProfile>(
      trace::fit::fit_trace(recorded_radix("recipe_profile.rspt")));
  std::ostringstream os;
  obs::JsonlWriter sink(os);
  core::RunOptions options;
  options.cluster_cores = 8;
  options.trace = &sink;
  const core::SimResult result =
      trace::fit::run_profile(core::ConfigId::kShSttCc, profile, options);

  const std::string text = os.str();
  EXPECT_TRUE(has_event(text, "epoch"));
  ASSERT_TRUE(has_event(text, "run_complete"));
  EXPECT_NE(text.find("\"benchmark\":\"" + result.benchmark + "\""),
            std::string::npos);
}

TEST(RunRecipe, ReplayRejectsFaultAndTechKnobs) {
  const trace::TraceData data = recorded_radix("recipe_knobs.rspt");
  const auto expect_mismatch = [&](const core::RunOptions& options) {
    try {
      trace::replay_trace(core::ConfigId::kShStt, data, options);
      ADD_FAILURE() << "replay accepted a knob it cannot honour";
    } catch (const trace::TraceError& e) {
      EXPECT_EQ(e.kind(), trace::TraceErrorKind::kMismatch);
    }
  };

  core::RunOptions faults;
  faults.faults.enabled = true;
  expect_mismatch(faults);

  core::RunOptions shared_tech;
  shared_tech.tech.shared_tech = nvsim::MemTech::kSram;
  expect_mismatch(shared_tech);

  core::RunOptions hybrid;
  hybrid.tech.hybrid_sram_ways = 4;
  hybrid.tech.hybrid_nvm_ways = 12;
  expect_mismatch(hybrid);

  // The live counterpart still runs them: only replay is pinned to the
  // recorded configuration.
  EXPECT_TRUE(trace::live_run_for(core::ConfigId::kShStt, data, faults)
                  .faults_enabled);
}

}  // namespace
}  // namespace respin
