#include "core/oracle.hpp"

#include <algorithm>
#include <set>

#include "util/require.hpp"

namespace respin::core {

namespace {

std::set<std::uint32_t> candidate_counts(std::uint32_t current,
                                         std::uint32_t min_active,
                                         std::uint32_t max_active,
                                         std::uint32_t stride) {
  std::set<std::uint32_t> candidates;
  for (std::uint32_t k = min_active; k <= max_active; k += stride) {
    candidates.insert(k);
  }
  candidates.insert(max_active);
  // Always include the local neighbourhood so the committed count can move
  // smoothly even with a coarse stride.
  for (std::int64_t d = -1; d <= 1; ++d) {
    const std::int64_t k = static_cast<std::int64_t>(current) + d;
    if (k >= min_active && k <= max_active) {
      candidates.insert(static_cast<std::uint32_t>(k));
    }
  }
  return candidates;
}

}  // namespace

SimResult run_with_oracle(ClusterSim& sim, const OracleParams& params) {
  RESPIN_REQUIRE(params.stride >= 1, "oracle stride must be >= 1");
  const std::uint32_t min_active =
      sim.config().governor_params.min_active_cores;
  const std::uint32_t max_active = sim.config().cluster_cores;

  while (!sim.done()) {
    const auto candidates = candidate_counts(sim.active_cores(), min_active,
                                             max_active, params.stride);
    std::uint32_t best = sim.active_cores();
    double best_epi = std::numeric_limits<double>::infinity();
    for (std::uint32_t k : candidates) {
      // Full architectural snapshot; trials write no trace events.
      ClusterSim trial = sim.snapshot();
      trial.set_active_cores(k);
      if (!trial.run_one_epoch()) {
        // Workload ends inside this epoch: count total energy instead.
        SimResult r = trial.result();
        const double epi = r.epi_pj();
        if (epi < best_epi) {
          best_epi = epi;
          best = k;
        }
        continue;
      }
      if (trial.last_epoch_epi() < best_epi) {
        best_epi = trial.last_epoch_epi();
        best = k;
      }
    }
    sim.set_active_cores(best);
    if (!sim.run_one_epoch()) break;
  }
  return sim.result();
}

}  // namespace respin::core
