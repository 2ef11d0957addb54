// Tests for the oracle consolidation driver: candidate generation via the
// public behaviour, snapshot replay correctness, and stride validation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "obs/obs.hpp"
#include "workload/workload.hpp"

namespace respin::core {
namespace {

SimParams small_params() {
  SimParams p;
  p.workload_scale = 0.1;
  p.seed = 1;
  return p;
}

ClusterSim make_oracle_sim(const std::string& bench) {
  return ClusterSim(
      make_cluster_config(ConfigId::kShSttCcOracle, CacheSize::kMedium),
      workload::benchmark(bench), small_params());
}

TEST(OracleDriver, CompletesAndRecordsTrace) {
  ClusterSim sim = make_oracle_sim("bodytrack");
  const SimResult r = run_with_oracle(sim);
  EXPECT_TRUE(sim.done());
  EXPECT_FALSE(r.trace.empty());
  EXPECT_GE(r.min_active_cores, 4u);
  EXPECT_LE(r.max_active_cores, 16u);
}

// Keeps every event in order; the oracle driver runs on one thread.
class EventLog : public obs::TraceSink {
 public:
  void record(const obs::Event& event) override { events.push_back(event); }
  std::vector<obs::Event> events;
};

std::int64_t int_field(const obs::Event& event, const std::string& key) {
  for (const obs::Event::Field& field : event.fields()) {
    if (field.key == key) return field.int_value;
  }
  ADD_FAILURE() << event.kind() << " event has no field " << key;
  return -1;
}

TEST(OracleDriver, TraceHoldsOnlyTheCommittedRun) {
  // Candidate trials must not write to the run's trace: it holds one
  // epoch event per committed boundary, at strictly increasing cycles,
  // and one consolidate event per change of the committed count.
  EventLog log;
  SimParams params = small_params();
  params.trace = &log;
  ClusterSim sim(
      make_cluster_config(ConfigId::kShSttCcOracle, CacheSize::kMedium),
      workload::benchmark("fft"), params);
  const SimResult r = run_with_oracle(sim);
  ASSERT_FALSE(r.trace.empty());

  std::size_t epochs = 0;
  std::size_t consolidations = 0;
  std::int64_t last_cycle = -1;
  std::int64_t active = sim.config().cluster_cores;
  for (const obs::Event& event : log.events) {
    if (event.kind() == "epoch") {
      ASSERT_LT(epochs, r.trace.size());
      const std::int64_t cycle = int_field(event, "cycle");
      EXPECT_GT(cycle, last_cycle);
      EXPECT_EQ(cycle, r.trace[epochs].cycle);
      EXPECT_EQ(int_field(event, "active_cores"), active);
      EXPECT_EQ(r.trace[epochs].active_cores, active);
      last_cycle = cycle;
      ++epochs;
    } else if (event.kind() == "consolidate") {
      EXPECT_EQ(int_field(event, "from_cores"), active);
      EXPECT_NE(int_field(event, "to_cores"), active);
      active = int_field(event, "to_cores");
      ++consolidations;
    }
  }
  EXPECT_EQ(epochs, r.trace.size());
  // Every sample-to-sample count change is one consolidate event; the
  // count committed for the epoch the workload ends in has no sample.
  std::size_t changes = 0;
  std::int64_t previous = sim.config().cluster_cores;
  for (const ConsolidationSample& sample : r.trace) {
    if (sample.active_cores != previous) ++changes;
    previous = sample.active_cores;
  }
  EXPECT_GE(consolidations, changes);
  EXPECT_LE(consolidations, changes + 1);
}

TEST(OracleDriver, RejectsZeroStride) {
  ClusterSim sim = make_oracle_sim("fft");
  EXPECT_THROW(run_with_oracle(sim, OracleParams{.stride = 0}),
               std::logic_error);
}

TEST(OracleDriver, StrideOneComparableToCoarse) {
  // The oracle minimizes EPI *per epoch*, which is not globally optimal:
  // a locally better choice can steer later epochs into worse states, so
  // a finer candidate stride is not guaranteed to win outright. It must,
  // however, stay in the same ballpark.
  ClusterSim fine = make_oracle_sim("radix");
  ClusterSim coarse = make_oracle_sim("radix");
  const SimResult rf = run_with_oracle(fine, OracleParams{.stride = 1});
  const SimResult rc = run_with_oracle(coarse, OracleParams{.stride = 4});
  EXPECT_LT(rf.energy.total(), 1.15 * rc.energy.total());
  EXPECT_GT(rf.energy.total(), 0.85 * rc.energy.total());
}

TEST(OracleDriver, DeterministicAcrossRuns) {
  ClusterSim a = make_oracle_sim("lu");
  ClusterSim b = make_oracle_sim("lu");
  const SimResult ra = run_with_oracle(a);
  const SimResult rb = run_with_oracle(b);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_DOUBLE_EQ(ra.energy.total(), rb.energy.total());
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace[i].active_cores, rb.trace[i].active_cores);
  }
}

TEST(OracleDriver, InstructionsConservedVersusPlainRun) {
  ClusterSim sim = make_oracle_sim("cholesky");
  const SimResult oracle = run_with_oracle(sim);

  ClusterConfig plain_cfg =
      make_cluster_config(ConfigId::kShStt, CacheSize::kMedium);
  ClusterSim plain(plain_cfg, workload::benchmark("cholesky"),
                   small_params());
  plain.run();
  EXPECT_EQ(oracle.instructions, plain.result().instructions);
}

TEST(OracleDriver, ExploresBelowFullWidth) {
  // On an imbalanced benchmark the oracle must find states below 16 cores.
  ClusterSim sim = make_oracle_sim("bodytrack");
  const SimResult r = run_with_oracle(sim);
  EXPECT_LT(r.avg_active_cores, 15.9);
}

}  // namespace
}  // namespace respin::core
