#include "core/experiment.hpp"

#include <map>

#include "exec/parallel.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace respin::core {

namespace {

/// Completion record for the structured trace (schema in
/// docs/observability.md).
void emit_run_complete(obs::TraceSink* sink, const SimResult& result) {
  if (sink == nullptr) return;
  obs::Event event("run_complete");
  event.str("config", result.config_name)
      .str("benchmark", result.benchmark)
      .i64("cycles", result.cycles)
      .f64("seconds", result.seconds)
      .i64("instructions", static_cast<std::int64_t>(result.instructions))
      .f64("energy_pj", result.energy.total())
      .f64("epi_pj", result.epi_pj())
      .i64("hit_cycle_limit", result.hit_cycle_limit ? 1 : 0);
  sink->record(event);
}

}  // namespace

SimResult simulate(const ClusterConfig& config, const std::string& label,
                   const workload::OpSourceFactory& sources,
                   const RunOptions& options) {
  SimParams params;
  params.workload_scale = options.workload_scale;
  params.seed = options.seed;
  params.cycle_skip = options.cycle_skip;
  params.trace = options.trace;
  params.faults = options.faults;
  ClusterSim sim(config, label, sources, params);
  SimResult result;
  if (config.governor == GovernorKind::kOracle) {
    result =
        run_with_oracle(sim, OracleParams{.stride = options.oracle_stride});
  } else {
    sim.run();
    result = sim.result();
  }
  emit_run_complete(options.trace, result);
  return result;
}

SimResult simulate(ConfigId id, const std::string& label,
                   const workload::OpSourceFactory& sources,
                   const RunOptions& options) {
  return simulate(make_cluster_config(id, options.size, options.cluster_cores,
                                      options.seed, CoreCalibration{},
                                      /*first_core=*/0, options.tech),
                  label, sources, options);
}

SimResult run_experiment(ConfigId id, const std::string& benchmark,
                         const RunOptions& options) {
  const workload::WorkloadSpec& spec = workload::benchmark(benchmark);
  return simulate(id, spec.name,
                  workload::synthetic_factory(spec, options.workload_scale,
                                              options.seed),
                  options);
}

std::vector<SimResult> run_suite(ConfigId id, const RunOptions& options) {
  const std::vector<std::string> names = workload::benchmark_names();
  return exec::parallel_map(names, [&](const std::string& name) {
    return run_experiment(id, name, options);
  });
}

std::vector<std::vector<SimResult>> run_matrix(
    const std::vector<ConfigId>& configs,
    const std::vector<std::string>& benchmarks,
    const RunOptions& options) {
  const std::size_t columns = benchmarks.size();
  std::vector<std::vector<SimResult>> rows(configs.size());
  if (columns == 0) return rows;
  // Flatten the grid so the pool load-balances across the whole sweep
  // (one slow configuration doesn't serialize its row).
  std::vector<SimResult> cells =
      exec::parallel_map_n(configs.size() * columns, [&](std::size_t i) {
        return run_experiment(configs[i / columns], benchmarks[i % columns],
                              options);
      });
  for (std::size_t r = 0; r < configs.size(); ++r) {
    rows[r].assign(std::make_move_iterator(cells.begin() + r * columns),
                   std::make_move_iterator(cells.begin() + (r + 1) * columns));
  }
  return rows;
}

double mean_ratio(const std::vector<SimResult>& results,
                  const std::vector<SimResult>& baseline, Metric metric) {
  std::map<std::string, const SimResult*> base_by_name;
  for (const SimResult& b : baseline) base_by_name[b.benchmark] = &b;

  auto value = [metric](const SimResult& r) {
    return metric == Metric::kSeconds ? r.seconds : r.energy.total();
  };

  std::vector<double> ratios;
  for (const SimResult& r : results) {
    auto it = base_by_name.find(r.benchmark);
    RESPIN_REQUIRE(it != base_by_name.end(),
                   "baseline is missing benchmark " + r.benchmark);
    const double base = value(*it->second);
    RESPIN_REQUIRE(base > 0.0, "baseline metric must be positive");
    ratios.push_back(value(r) / base);
  }
  return util::geometric_mean(ratios);
}

}  // namespace respin::core
