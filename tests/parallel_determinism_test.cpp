// Pins the performance engine's determinism contract: serial vs parallel
// execution and cycle-by-cycle vs event-driven clocking must produce
// bit-identical SimResults — same cycle counts, same histograms, same
// energy — for every Table IV configuration.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/chip.hpp"
#include "core/cluster_sim.hpp"
#include "core/consolidation.hpp"
#include "core/experiment.hpp"
#include "exec/thread_pool.hpp"
#include "obs/golden.hpp"
#include "sim_result_eq.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace respin::core {
namespace {

RunOptions tiny_options() {
  RunOptions options;
  options.workload_scale = 0.05;
  return options;
}

// --- Event-driven clock vs cycle-by-cycle reference, all configs ----------

class SkipEquivalenceTest : public ::testing::TestWithParam<ConfigId> {};

TEST_P(SkipEquivalenceTest, SkipAndNoSkipAreBitIdentical) {
  RunOptions skip = tiny_options();
  skip.cycle_skip = true;
  RunOptions no_skip = tiny_options();
  no_skip.cycle_skip = false;
  const SimResult a = run_experiment(GetParam(), "ocean", skip);
  const SimResult b = run_experiment(GetParam(), "ocean", no_skip);
  expect_same_result(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SkipEquivalenceTest,
    ::testing::ValuesIn(all_config_ids()),
    [](const ::testing::TestParamInfo<ConfigId>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        // Config names use '-' and, for the hybrid partition, '+'.
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// A second benchmark with different phase structure, on the key shared
// and private configurations.
TEST(SkipEquivalence, RadixOnSharedAndPrivate) {
  for (ConfigId id :
       {ConfigId::kPrSramNt, ConfigId::kShStt, ConfigId::kShSttCcOs}) {
    RunOptions skip = tiny_options();
    RunOptions no_skip = tiny_options();
    no_skip.cycle_skip = false;
    expect_same_result(run_experiment(id, "radix", skip),
                       run_experiment(id, "radix", no_skip));
  }
}

// --- Governed runs: the fast paths settle at every epoch boundary ---------

// A governed configuration with ~10x more epoch boundaries than the paper
// setting, so boundaries land inside idle jumps, barrier waits and
// compute bursts.
ClusterConfig short_epoch_config(ConfigId id) {
  ClusterConfig config = make_cluster_config(id, CacheSize::kMedium);
  config.governor_params.epoch_instructions /= 10;
  config.os_epoch_cycles /= 10;
  return config;
}

void expect_same_counters(const ClusterSim& skip, const ClusterSim& ref) {
  obs::MetricsRow skip_row{"sim", {}};
  obs::MetricsRow ref_row{"sim", {}};
  skip.collect_counters(skip_row.counters);
  ref.collect_counters(ref_row.counters);
  const obs::GoldenDiff diff = obs::diff_metrics({ref_row}, {skip_row});
  EXPECT_TRUE(diff.ok()) << diff.report();
}

void expect_same_state(ClusterSim& a, ClusterSim& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.active_cores(), b.active_cores());
  EXPECT_EQ(a.last_epoch_epi(), b.last_epoch_epi());
  expect_same_result(a.result(), b.result());
  expect_same_counters(a, b);
}

TEST(SkipEquivalence, GovernedRunsMatchAtEveryEpochBoundary) {
  for (const ConfigId id : {ConfigId::kShSttCc, ConfigId::kShSttCcOs,
                            ConfigId::kPrSttCc, ConfigId::kShSttCcOracle}) {
    SCOPED_TRACE(to_string(id));
    const ClusterConfig config = short_epoch_config(id);
    SimParams params;
    params.workload_scale = 0.05;
    SimParams reference = params;
    reference.cycle_skip = false;
    ClusterSim skip(config, workload::benchmark("ocean"), params);
    ClusterSim ref(config, workload::benchmark("ocean"), reference);
    // Walk the active-core count as run() does, so boundaries also gate,
    // wake and migrate cores.
    GreedyGovernor governor(config.governor_params, config.cluster_cores);
    std::uint32_t epochs = 0;
    bool more = true;
    while (more && !HasFailure()) {
      more = skip.run_one_epoch();
      ASSERT_EQ(more, ref.run_one_epoch());
      expect_same_state(skip, ref);
      if (!more) break;
      ++epochs;
      if (id == ConfigId::kShSttCcOracle) {
        // An oracle trial: a snapshot replaying the next epoch at another
        // core count must match too.
        const std::uint32_t k =
            skip.active_cores() > 8 ? skip.active_cores() - 4 : 16;
        ClusterSim trial_skip = skip;
        ClusterSim trial_ref = ref;
        trial_skip.set_active_cores(k);
        trial_ref.set_active_cores(k);
        EXPECT_EQ(trial_skip.run_one_epoch(), trial_ref.run_one_epoch());
        expect_same_state(trial_skip, trial_ref);
      }
      const std::uint32_t target =
          governor.decide(skip.last_epoch_epi(), skip.active_cores());
      skip.set_active_cores(target);
      ref.set_active_cores(target);
    }
    EXPECT_GT(epochs, 10u);
  }
}

TEST(SkipEquivalence, GovernedRunCutShortInsideABarrier) {
  // A run() cut short by max_cycles: parked barrier waiters and
  // idle-jumped cores must be settled at the horizon. Several cut points
  // are tried; at least one must fall inside a barrier wait. PR-SRAM-NT
  // and SH-STT park and jump with no governor, so no epoch boundary
  // settles them before the cut.
  for (const ConfigId id :
       {ConfigId::kShSttCc, ConfigId::kPrSramNt, ConfigId::kShStt}) {
    SCOPED_TRACE(to_string(id));
    const ClusterConfig config = short_epoch_config(id);
    SimParams params;
    params.workload_scale = 0.05;
    ClusterSim full(config, workload::benchmark("ocean"), params);
    full.run();
    const std::int64_t length = full.now();
    bool cut_in_barrier = false;
    for (int i = 1; i <= 8; ++i) {
      params.max_cycles = length * i / 9 + i;
      SimParams reference = params;
      reference.cycle_skip = false;
      ClusterSim skip(config, workload::benchmark("ocean"), params);
      ClusterSim ref(config, workload::benchmark("ocean"), reference);
      skip.run();
      ref.run();
      SCOPED_TRACE(params.max_cycles);
      EXPECT_TRUE(skip.result().hit_cycle_limit);
      expect_same_state(skip, ref);
      if (ref.describe_state().find(" barrier ") != std::string::npos) {
        cut_in_barrier = true;
      }
    }
    EXPECT_TRUE(cut_in_barrier);
  }
}

// --- Serial vs parallel fan-out -------------------------------------------

TEST(ParallelDeterminism, RunSuiteMatchesSerial) {
  const RunOptions options = tiny_options();
  exec::set_thread_count(1);
  const std::vector<SimResult> serial =
      run_suite(ConfigId::kShSttCc, options);
  exec::set_thread_count(4);
  const std::vector<SimResult> parallel =
      run_suite(ConfigId::kShSttCc, options);
  exec::set_thread_count(0);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), workload::benchmark_names().size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].benchmark, workload::benchmark_names()[i]);
    expect_same_result(serial[i], parallel[i]);
  }
}

TEST(ParallelDeterminism, RunChipMatchesSerial) {
  const RunOptions options = tiny_options();
  exec::set_thread_count(1);
  const ChipResult serial = run_chip(ConfigId::kShStt, "fft", options);
  exec::set_thread_count(4);
  const ChipResult parallel = run_chip(ConfigId::kShStt, "fft", options);
  exec::set_thread_count(0);

  EXPECT_EQ(serial.config_name, parallel.config_name);
  EXPECT_EQ(serial.seconds, parallel.seconds);
  EXPECT_EQ(serial.instructions, parallel.instructions);
  EXPECT_EQ(serial.energy.core_dynamic, parallel.energy.core_dynamic);
  EXPECT_EQ(serial.energy.core_leakage, parallel.energy.core_leakage);
  EXPECT_EQ(serial.energy.cache_dynamic, parallel.energy.cache_dynamic);
  EXPECT_EQ(serial.energy.cache_leakage, parallel.energy.cache_leakage);
  EXPECT_EQ(serial.energy.dram, parallel.energy.dram);
  EXPECT_EQ(serial.energy.network, parallel.energy.network);
  ASSERT_EQ(serial.clusters.size(), parallel.clusters.size());
  for (std::size_t c = 0; c < serial.clusters.size(); ++c) {
    expect_same_result(serial.clusters[c], parallel.clusters[c]);
  }
}

TEST(ParallelDeterminism, RunMatrixMatchesRunExperimentCells) {
  const RunOptions options = tiny_options();
  const std::vector<ConfigId> configs = {ConfigId::kPrSramNt,
                                         ConfigId::kShStt};
  const std::vector<std::string> benches = {"ocean", "lu"};
  exec::set_thread_count(4);
  const auto matrix = run_matrix(configs, benches, options);
  exec::set_thread_count(0);

  ASSERT_EQ(matrix.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    ASSERT_EQ(matrix[c].size(), benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b) {
      expect_same_result(matrix[c][b],
                         run_experiment(configs[c], benches[b], options));
    }
  }
}

}  // namespace
}  // namespace respin::core
