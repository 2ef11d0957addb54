// The sweep planner both serving tiers share.
//
// A `sweep` request names a config x workload matrix. plan_sweep turns it
// into keyed cells; the worker (serve::Server) runs the cells it has not
// stored yet, the router (serve::Router) forwards each cell to the shard
// that owns its key. Planning in one place is what makes a routed sweep
// hit exactly the keys a single worker's sweep would.
//
// Expansion rules (docs/serving.md, "Sweeps"):
//  - the shared run options come from the request's single-run fields
//    (scale, seed, size, cluster, faults, tech, cycle_skip, ...);
//  - "configs" lists Table IV names; omitted means every config;
//  - "benchmarks" lists catalog benchmarks; omitted means all 13;
//  - a "trace_file" or "profile_file" fixes the workload axis to that one
//    file, so the sweep runs it across the configs (and naming
//    "benchmarks" too is a bad request);
//  - cells come out config-major, in axis order.
#pragma once

#include <string>
#include <vector>

#include "core/serde.hpp"
#include "obs/json.hpp"

namespace respin::serve {

struct SweepCell {
  core::RequestSpec spec;
  std::string key;  ///< core::canonical_key(spec).
};

/// Expands a `sweep` request into its cells. Throws std::logic_error or
/// obs::json::Error on a malformed request (a bad_request reply).
std::vector<SweepCell> plan_sweep(const obs::json::Value& request);

}  // namespace respin::serve
