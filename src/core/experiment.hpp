// The one run recipe. core::simulate is the only place that turns
// RunOptions into SimParams, constructs the ClusterSim, dispatches oracle
// configurations to the oracle driver and emits the run_complete trace
// record. Catalog runs (run_experiment, run_suite, run_matrix), chip
// clusters (run_chip), trace replays and fitted-profile runs (respin::
// trace) are thin front ends that pick a workload and call it.
#pragma once

#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "obs/obs.hpp"

namespace respin::core {

struct RunOptions {
  CacheSize size = CacheSize::kMedium;
  std::uint32_t cluster_cores = 16;
  double workload_scale = 1.0;
  std::uint64_t seed = 1;
  std::uint32_t oracle_stride = 2;
  /// Event-driven clock in ClusterSim (see SimParams::cycle_skip); off is
  /// the cycle-by-cycle reference path, results are identical.
  bool cycle_skip = true;
  /// Structured trace destination, threaded through to every ClusterSim
  /// (epoch/consolidation events) plus per-run completion records. Null
  /// disables tracing; results are bit-identical either way. The sink
  /// must be thread-safe: suites fan runs out over the exec pool.
  obs::TraceSink* trace = nullptr;
  /// Fault-injection plan, forwarded to every ClusterSim. Each run owns
  /// its injector, so fault runs stay deterministic in (seed, plan,
  /// config) no matter how the suite fans out over threads.
  fault::FaultPlan faults;
  /// Technology overrides (CLI --shared-tech / --private-tech /
  /// --hybrid-ways) applied on top of the named configuration's traits.
  TechOverride tech;
};

/// Runs the workload `sources` builds (labelled `label` in the result) on
/// the prebuilt cluster `config`. Of `options`, only the simulation knobs
/// apply here (workload_scale, seed, oracle_stride, cycle_skip, trace,
/// faults); size, cluster_cores and tech shape `config` itself.
SimResult simulate(const ClusterConfig& config, const std::string& label,
                   const workload::OpSourceFactory& sources,
                   const RunOptions& options);

/// simulate on configuration `id`, built from options.size,
/// options.cluster_cores, options.seed and options.tech.
SimResult simulate(ConfigId id, const std::string& label,
                   const workload::OpSourceFactory& sources,
                   const RunOptions& options);

/// Runs `benchmark` on configuration `id` and returns the cluster-level
/// result (chip-level figures scale by clusters_per_chip; every
/// paper-figure comparison is a ratio, where the factor cancels).
SimResult run_experiment(ConfigId id, const std::string& benchmark,
                         const RunOptions& options = {});

/// Runs all 13 benchmarks on one configuration, fanned out over the
/// respin::exec thread pool. Results are in benchmark_names() order and
/// bit-identical to running each benchmark serially.
std::vector<SimResult> run_suite(ConfigId id, const RunOptions& options = {});

/// Runs the full (configuration x benchmark) grid in one parallel fan-out
/// — the shape of the paper's design-space sweeps. Returns one row per
/// configuration, in the given order, each row in `benchmarks` order;
/// every cell equals the corresponding run_experiment call.
std::vector<std::vector<SimResult>> run_matrix(
    const std::vector<ConfigId>& configs,
    const std::vector<std::string>& benchmarks,
    const RunOptions& options = {});

/// Geometric-mean ratio of (metric of `results` / metric of `baseline`),
/// matched by benchmark name. `metric` picks seconds or energy.
enum class Metric { kSeconds, kEnergyTotal };
double mean_ratio(const std::vector<SimResult>& results,
                  const std::vector<SimResult>& baseline, Metric metric);

}  // namespace respin::core
