// Trace-driven workload frontend: executes a decoded trace through the
// core model via the workload::OpSource interface, plus the
// replay/verify drivers behind `respin_trace replay|verify` and the
// workload-reference dispatcher (run_request) shared by respin_sim and
// the serving worker.
//
// Correctness contract (pinned by tests/trace_test.cpp and the verify
// subcommand): for every benchmark and every Table IV configuration,
// replaying a recorded trace reproduces the live synthetic run's
// SimResult bit for bit — same cycles, same energy doubles, same
// histograms, same consolidation trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/serde.hpp"
#include "trace/reader.hpp"
#include "workload/op_source.hpp"

namespace respin::trace {

/// One thread's cursor over the immutable decoded trace. Copies share the
/// decoded data and duplicate only the cursor, so ClusterSim snapshots
/// (oracle trial epochs) stay cheap and roll back exactly.
class TraceOpSource final : public workload::OpSource {
 public:
  TraceOpSource(std::shared_ptr<const TraceData> data, std::uint32_t thread);

  /// Replays the recorded ops in order; kFinished forever past the end.
  workload::Op next() override;

  /// Replays the recorded ifetch stream; throws TraceError(kMismatch) if
  /// the configuration requests more fetches than the recorded budget.
  mem::Addr next_ifetch_addr() override;

  std::unique_ptr<workload::OpSource> clone() const override {
    return std::make_unique<TraceOpSource>(*this);
  }

 private:
  std::shared_ptr<const TraceData> data_;
  std::uint32_t thread_;
  std::size_t op_pos_ = 0;
  std::size_t ifetch_pos_ = 0;
};

/// Factory over a decoded trace; the data is shared by every stream.
workload::OpSourceFactory trace_factory(
    std::shared_ptr<const TraceData> data);

/// Runs `data` through configuration `id` exactly as run_experiment runs
/// the live synthetic workload (oracle configurations and the trace sink
/// included). The trace header overrides options.cluster_cores,
/// workload_scale and seed: the die-variation map and the controller
/// arbitration streams must be seeded exactly as the live run was for
/// bit-identical results. Reads `data` in place without copying it, so any
/// number of threads may replay one loaded trace concurrently. Throws
/// TraceError(kMismatch) when `options` enables a fault plan or a tech
/// override (replay reuses the recorded configuration; fit the trace and
/// run the profile instead), or when the configuration's cluster_cores
/// disagrees with the trace's thread count.
core::SimResult replay_trace(core::ConfigId id, const TraceData& data,
                             const core::RunOptions& options = {});

/// The live counterpart of replay_trace: reruns the recorded benchmark
/// synthetically with the trace header's scale/seed/thread count.
core::SimResult live_run_for(core::ConfigId id, const TraceData& data,
                             const core::RunOptions& options = {});

/// Runs one request whatever its workload reference: a recorded trace
/// (replay_trace), a fitted profile (fit::run_profile) or a catalog
/// benchmark (core::run_experiment). The one dispatcher behind the
/// serving worker and respin_sim.
core::SimResult run_request(const core::RequestSpec& spec);

/// Field-by-field bit-identity diff of two SimResults; returns "" when
/// identical, otherwise one line per drifted field. (The gtest twin lives
/// in tests/sim_result_eq.hpp; this one serves the CLI.)
std::string diff_results(const core::SimResult& a, const core::SimResult& b);

}  // namespace respin::trace
