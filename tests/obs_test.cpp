// Unit tests for the respin::obs observability layer: event JSON
// serialization, counter registries and their round-trip-exact text form,
// metrics CSV I/O, the golden differ's drift naming, scoped probes, and
// the wiring into ClusterSim / run_experiment — including the contract
// that tracing never perturbs a simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "obs/counters.hpp"
#include "obs/golden.hpp"
#include "obs/obs.hpp"
#include "sim_result_eq.hpp"

namespace respin {
namespace {

// ---- Compile-time zero-overhead contract ---------------------------------

static_assert(std::is_empty_v<obs::BasicScopedProbe<false>>,
              "the compiled-out probe must be an empty type");
static_assert(std::is_trivially_destructible_v<obs::BasicScopedProbe<false>>,
              "the compiled-out probe must have no destructor work");

// ---- Event serialization -------------------------------------------------

TEST(ObsEvent, SerializesTypedFieldsInOrder) {
  obs::Event event("epoch");
  event.str("config", "SH-STT").i64("cycle", 42).f64("epi_pj", 1.5);
  EXPECT_EQ(obs::to_json(event),
            "{\"event\":\"epoch\",\"config\":\"SH-STT\",\"cycle\":42,"
            "\"epi_pj\":1.5}");
}

TEST(ObsEvent, EscapesStringsPerJson) {
  obs::Event event("e");
  event.str("k", "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(obs::to_json(event),
            "{\"event\":\"e\",\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(ObsEvent, NonFiniteFloatsRenderAsNull) {
  obs::Event event("e");
  event.f64("inf", std::numeric_limits<double>::infinity());
  event.f64("nan", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(obs::to_json(event), "{\"event\":\"e\",\"inf\":null,\"nan\":null}");
}

TEST(ObsEvent, NegativeAndLargeIntsSurviveExactly) {
  obs::Event event("e");
  event.i64("a", -7).i64("b", std::int64_t{1} << 62);
  EXPECT_EQ(obs::to_json(event),
            "{\"event\":\"e\",\"a\":-7,\"b\":4611686018427387904}");
}

TEST(ObsJsonlWriter, OneLinePerEvent) {
  std::ostringstream os;
  obs::JsonlWriter writer(os);
  writer.record(obs::Event("a"));
  writer.record(obs::Event("b"));
  EXPECT_EQ(os.str(), "{\"event\":\"a\"}\n{\"event\":\"b\"}\n");
}

// ---- Global sink + scoped probes -----------------------------------------

TEST(ObsGlobalSink, DefaultsToNullAndRoundTrips) {
  ASSERT_EQ(obs::global_sink(), nullptr);
  obs::CountingSink sink;
  obs::set_global_sink(&sink);
  EXPECT_EQ(obs::global_sink(), &sink);
  obs::set_global_sink(nullptr);
  EXPECT_EQ(obs::global_sink(), nullptr);
}

TEST(ObsScopedProbe, EmitsToInstalledSink) {
  std::ostringstream os;
  obs::JsonlWriter writer(os);
  obs::set_global_sink(&writer);
  {
    obs::BasicScopedProbe<true> probe("test.section");
    probe.add("items", 3);
  }
  obs::set_global_sink(nullptr);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"event\":\"probe\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"name\":\"test.section\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"wall_us\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"items\":3"), std::string::npos) << line;
}

TEST(ObsScopedProbe, SilentWithNoSink) {
  ASSERT_EQ(obs::global_sink(), nullptr);
  obs::BasicScopedProbe<true> probe("test.noop");
  probe.add("ignored", 1);
  // Destruction must not crash or emit; nothing observable to assert
  // beyond reaching the end of scope.
}

// ---- Counter registries --------------------------------------------------

TEST(ObsCounterSet, PreservesOrderAndFinds) {
  obs::CounterSet set;
  set.add("b.second", 2.0);
  set.add("a.first", std::uint64_t{1});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.items()[0].name, "b.second");
  EXPECT_EQ(set.items()[1].name, "a.first");
  ASSERT_NE(set.find("a.first"), nullptr);
  EXPECT_EQ(*set.find("a.first"), 1.0);
  EXPECT_EQ(set.find("missing"), nullptr);
}

TEST(ObsFormatValue, IntegersPrintExactlyWithoutFraction) {
  EXPECT_EQ(obs::format_value(0.0), "0");
  EXPECT_EQ(obs::format_value(-17.0), "-17");
  EXPECT_EQ(obs::format_value(400000000.0), "400000000");
  // Largest exactly-representable contiguous integer.
  EXPECT_EQ(obs::format_value(9007199254740991.0), "9007199254740991");
}

TEST(ObsFormatValue, RoundTripIsBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           2.3283064365386963e-10,
                           6.02214076e23,
                           -123456.789,
                           0.00023738279999999999};
  for (const double v : values) {
    const std::string text = obs::format_value(v);
    EXPECT_EQ(obs::parse_value(text), v) << text;
  }
}

// ---- Metrics CSV round-trip ----------------------------------------------

std::vector<obs::MetricsRow> sample_rows() {
  std::vector<obs::MetricsRow> rows(2);
  rows[0].run = "CFG/ocean";
  rows[0].counters.add("sim.cycles", std::uint64_t{593457});
  rows[0].counters.add("sim.seconds", 0.00023738279999999999);
  rows[1].run = "CFG/radix";
  rows[1].counters.add("sim.cycles", std::uint64_t{100});
  return rows;
}

TEST(ObsMetricsCsv, RoundTripsThroughText) {
  std::ostringstream os;
  obs::write_metrics_csv(os, sample_rows(), "provenance line\nsecond line");
  const std::string text = os.str();
  EXPECT_EQ(text.find("# provenance line\n"), 0u) << text;
  EXPECT_NE(text.find("run,counter,value\n"), std::string::npos);
  EXPECT_NE(text.find("CFG/ocean,sim.cycles,593457\n"), std::string::npos);

  std::istringstream is(text);
  const std::vector<obs::MetricsRow> parsed = obs::read_metrics_csv(is);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].run, "CFG/ocean");
  ASSERT_EQ(parsed[0].counters.size(), 2u);
  EXPECT_EQ(*parsed[0].counters.find("sim.cycles"), 593457.0);
  EXPECT_EQ(*parsed[0].counters.find("sim.seconds"),
            0.00023738279999999999);
  EXPECT_EQ(parsed[1].run, "CFG/radix");
}

// ---- Golden differ -------------------------------------------------------

TEST(ObsGoldenDiff, CleanWhenIdentical) {
  const obs::GoldenDiff diff = obs::diff_metrics(sample_rows(), sample_rows());
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.report(), "");
}

TEST(ObsGoldenDiff, NamesTheDriftedCounter) {
  std::vector<obs::MetricsRow> live = sample_rows();
  live[0].counters = obs::CounterSet();
  live[0].counters.add("sim.cycles", std::uint64_t{593458});  // +1
  live[0].counters.add("sim.seconds", 0.00023738279999999999);
  const obs::GoldenDiff diff = obs::diff_metrics(sample_rows(), live);
  ASSERT_FALSE(diff.ok());
  EXPECT_EQ(diff.count(), 1u);
  EXPECT_NE(diff.report().find("CFG/ocean"), std::string::npos)
      << diff.report();
  EXPECT_NE(diff.report().find("sim.cycles"), std::string::npos)
      << diff.report();
  EXPECT_NE(diff.report().find("593457"), std::string::npos) << diff.report();
  EXPECT_NE(diff.report().find("593458"), std::string::npos) << diff.report();
}

TEST(ObsGoldenDiff, FlagsMissingAndExtraRunsAndCounters) {
  std::vector<obs::MetricsRow> live = sample_rows();
  live.pop_back();                                      // CFG/radix missing.
  live[0].counters.add("sim.new_counter", 1.0);         // Unpinned counter.
  const obs::GoldenDiff diff = obs::diff_metrics(sample_rows(), live);
  ASSERT_FALSE(diff.ok());
  const std::string report = diff.report();
  EXPECT_NE(report.find("CFG/radix"), std::string::npos) << report;
  EXPECT_NE(report.find("sim.new_counter"), std::string::npos) << report;
}

// ---- Simulator wiring ----------------------------------------------------

core::RunOptions tiny_options() {
  core::RunOptions options;
  options.workload_scale = 0.05;
  return options;
}

TEST(ObsMetricsOf, MatchesSimResultFields) {
  const core::SimResult result =
      core::run_experiment(core::ConfigId::kShStt, "fft", tiny_options());
  const obs::CounterSet set = core::metrics_of(result);
  ASSERT_NE(set.find("sim.cycles"), nullptr);
  EXPECT_EQ(*set.find("sim.cycles"), static_cast<double>(result.cycles));
  ASSERT_NE(set.find("sim.seconds"), nullptr);
  EXPECT_EQ(*set.find("sim.seconds"), result.seconds);
  ASSERT_NE(set.find("energy.total_pj"), nullptr);
  EXPECT_EQ(*set.find("energy.total_pj"), result.energy.total());
  ASSERT_NE(set.find("dl1.read_hits"), nullptr);
  EXPECT_EQ(*set.find("dl1.read_hits"),
            static_cast<double>(result.dl1_read_hits));
  ASSERT_NE(set.find("dl1.arrivals.total"), nullptr);
  ASSERT_NE(set.find("consolidation.epochs"), nullptr);

  const obs::MetricsRow row = core::metrics_row(result);
  EXPECT_EQ(row.run, result.config_name + "/fft");
}

TEST(ObsClusterSim, CollectCountersCoversTheTaxonomy) {
  const core::ClusterConfig config = core::make_cluster_config(
      core::ConfigId::kShStt, core::CacheSize::kMedium);
  core::SimParams params;
  params.workload_scale = 0.05;
  core::ClusterSim sim(config, workload::benchmark("fft"), params);
  sim.run();

  obs::CounterSet set;
  sim.collect_counters(set);
  EXPECT_NE(set.find("core0.busy_cycles"), nullptr);
  EXPECT_NE(set.find("core0.multiplier"), nullptr);
  EXPECT_NE(set.find("vcore0.instructions"), nullptr);
  EXPECT_NE(set.find("dl1.reads_serviced"), nullptr);
  EXPECT_NE(set.find("dl1.arrivals.bucket0"), nullptr);
  EXPECT_NE(set.find("backside.l2_reads"), nullptr);
  EXPECT_EQ(set.find("pl1.l1_reads"), nullptr);  // Shared config: no MESI.
}

TEST(ObsClusterSim, PrivateConfigExportsCoherenceCounters) {
  const core::ClusterConfig config = core::make_cluster_config(
      core::ConfigId::kPrSramNt, core::CacheSize::kMedium);
  core::SimParams params;
  params.workload_scale = 0.05;
  core::ClusterSim sim(config, workload::benchmark("fft"), params);
  sim.run();

  obs::CounterSet set;
  sim.collect_counters(set);
  EXPECT_NE(set.find("pl1.l1_reads"), nullptr);
  EXPECT_NE(set.find("pl1.core0.l1d_hits"), nullptr);
  EXPECT_EQ(set.find("dl1.reads_serviced"), nullptr);
}

// The core contract: attaching a trace sink must not perturb the
// simulation in any way — bit-identical SimResult and metrics.
TEST(ObsTracing, NeverPerturbsTheSimulation) {
  const core::SimResult untraced =
      core::run_experiment(core::ConfigId::kShSttCc, "ocean", tiny_options());

  core::RunOptions traced_options = tiny_options();
  obs::CountingSink sink;
  traced_options.trace = &sink;
  const core::SimResult traced =
      core::run_experiment(core::ConfigId::kShSttCc, "ocean", traced_options);

  EXPECT_GT(sink.count(), 0u) << "tracing produced no events";
  core::expect_same_result(untraced, traced);

  // And the flattened metric registries agree exactly too.
  const obs::GoldenDiff diff = obs::diff_metrics(
      {core::metrics_row(untraced)}, {core::metrics_row(traced)});
  EXPECT_TRUE(diff.ok()) << diff.report();
}

TEST(ObsTracing, EmitsEpochConsolidateAndRunCompleteEvents) {
  std::ostringstream os;
  obs::JsonlWriter writer(os);
  core::RunOptions options = tiny_options();
  options.trace = &writer;
  core::run_experiment(core::ConfigId::kShSttCc, "ocean", options);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"run_complete\""), std::string::npos);
  EXPECT_NE(text.find("\"benchmark\":\"ocean\""), std::string::npos);
  // Every line is one JSON object.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

}  // namespace
}  // namespace respin
