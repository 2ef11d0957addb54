#include "core/chip.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "workload/workload.hpp"

namespace respin::core {

ClusterConfig make_chip_cluster_config(ConfigId id, CacheSize size,
                                       std::uint32_t cluster_cores,
                                       std::uint32_t cluster_index,
                                       std::uint64_t seed,
                                       const TechOverride& tech) {
  return make_cluster_config(id, size, cluster_cores, seed,
                             CoreCalibration{},
                             cluster_index * cluster_cores, tech);
}

ChipResult run_chip(ConfigId id, const std::string& benchmark,
                    const RunOptions& options) {
  const std::uint32_t clusters = 64 / options.cluster_cores;

  // Build every cluster's configuration up front (each carries its own
  // VARIUS die region); the simulation and the tail-leakage accounting
  // below both read from this one set.
  std::vector<ClusterConfig> configs;
  configs.reserve(clusters);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    configs.push_back(make_chip_cluster_config(
        id, options.size, options.cluster_cores, c, options.seed,
        options.tech));
  }

  ChipResult chip;
  chip.benchmark = benchmark;
  chip.config_name = configs.front().name;

  // Clusters are architecturally independent (no cross-cluster coherence
  // in any evaluated configuration) and ClusterSim is a value type, so the
  // chip fans out one simulation per cluster. Results come back in cluster
  // order and each simulation is seeded independently, so the outcome is
  // bit-identical to the serial loop.
  const workload::WorkloadSpec& spec = workload::benchmark(benchmark);
  chip.clusters = exec::parallel_map_n(clusters, [&](std::size_t c) {
    // Each cluster runs its own process instance of the benchmark: a
    // distinct workload seed per cluster.
    RunOptions cluster_options = options;
    cluster_options.seed = options.seed + 1000ull * c;
    return simulate(configs[c], spec.name,
                    workload::synthetic_factory(spec, options.workload_scale,
                                                cluster_options.seed),
                    cluster_options);
  });

  // Chip finish time = slowest cluster.
  for (const SimResult& r : chip.clusters) {
    chip.seconds = std::max(chip.seconds, r.seconds);
    chip.instructions += r.instructions;
  }

  // Energy: each cluster's measured energy, plus leakage of the
  // early-finishing clusters' always-on structures (caches/uncore) until
  // the chip finish time. Core leakage after program exit is excluded —
  // idle cores are assumed gated once their threads are done.
  for (std::uint32_t c = 0; c < clusters; ++c) {
    const SimResult& r = chip.clusters[c];
    chip.energy.core_dynamic += r.energy.core_dynamic;
    chip.energy.core_leakage += r.energy.core_leakage;
    chip.energy.cache_dynamic += r.energy.cache_dynamic;
    chip.energy.cache_leakage += r.energy.cache_leakage;
    chip.energy.dram += r.energy.dram;
    chip.energy.network += r.energy.network;

    const double tail_seconds = chip.seconds - r.seconds;
    if (tail_seconds > 0.0) {
      const ClusterConfig& config = configs[c];
      const double cache_leak_w = config.power.l1_leakage_w +
                                  config.power.l2_leakage_w +
                                  config.power.l3_leakage_w;
      chip.energy.cache_leakage += cache_leak_w * tail_seconds * 1e12;
      chip.energy.network += config.power.uncore_w * tail_seconds * 1e12;
    }
  }
  if (options.trace != nullptr) {
    obs::Event event("chip_complete");
    event.str("config", chip.config_name)
        .str("benchmark", chip.benchmark)
        .i64("clusters", static_cast<std::int64_t>(chip.clusters.size()))
        .f64("seconds", chip.seconds)
        .i64("instructions", static_cast<std::int64_t>(chip.instructions))
        .f64("energy_pj", chip.energy.total());
    options.trace->record(event);
  }
  return chip;
}

}  // namespace respin::core
