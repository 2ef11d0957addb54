// Trace fitting: measure a decoded trace into a workload::WorkloadProfile
// and drive the synthesis side (profile JSON serde, trace synthesis, and
// the profile-backed experiment runner the serving layer uses).
//
// fit_trace measures, per thread and aggregated:
//   - read/write mix and memory intensity (mem ops per instruction),
//   - the exact LRU stack-distance (reuse-distance) histogram over
//     64-byte lines, via the classic last-access + Fenwick-tree counting
//     algorithm (O(n log n), exact — not sampled),
//   - the sharing fraction (accesses to lines touched by >= 2 threads)
//     and the distinct shared-line count,
//   - windowed phase structure (instruction-equal windows, each with its
//     own mix/intensity/IPC).
//
// The profile is a plain value: serialize it with profile_to_json (the
// canonical JSON form `respin_trace fit --out` writes), regenerate a
// matching workload with workload::synth_factory, or run it through any
// configuration with run_profile. Determinism: fit is a pure function of
// the trace bytes; synthesis is a pure function of (profile, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "obs/json.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "workload/synth.hpp"

namespace respin::trace::fit {

struct FitOptions {
  /// Phase windows the trace is split into (by instruction count).
  /// Streams shorter than the window count collapse to fewer phases.
  std::size_t windows = 8;
};

/// Measures `data` into a profile (see file comment). Throws TraceError
/// (kMismatch) when the trace holds no memory accesses — there is nothing
/// to fit.
workload::WorkloadProfile fit_trace(const TraceData& data,
                                    const FitOptions& options = {});

/// Canonical JSON form (versioned, fixed field order; doubles use the
/// obs::json shortest-round-trip text, so serialize -> parse -> serialize
/// is byte-stable).
obs::json::Value profile_to_json(const workload::WorkloadProfile& profile);

/// Parses profile_to_json output (or a hand-written profile). Throws
/// obs::json::Error on missing/mistyped fields and std::logic_error on
/// values synthesis cannot use.
workload::WorkloadProfile profile_from_json(const obs::json::Value& value);

/// File forms of the above. load_profile throws TraceError(kIo) when the
/// file cannot be read.
void save_profile(const workload::WorkloadProfile& profile,
                  const std::string& path);
workload::WorkloadProfile load_profile(const std::string& path);

/// Drains a synthesized workload into a native .rspt trace at `path`
/// (the synth counterpart of trace::record_benchmark): thread_count
/// threads, every phase budget scaled by `scale`, instance selected by
/// `seed`. The result replays bit-identically like any recorded trace.
RecordStats synthesize_trace(const workload::WorkloadProfile& profile,
                             std::uint32_t thread_count, double scale,
                             std::uint64_t seed, const std::string& path);

/// Runs a profile-backed workload through configuration `id` exactly as
/// core::run_experiment runs a catalog benchmark (oracle dispatch, fault
/// plans and tech overrides included); options.cluster_cores sets the
/// synthesized thread count.
core::SimResult run_profile(core::ConfigId id,
                            std::shared_ptr<const workload::WorkloadProfile>
                                profile,
                            const core::RunOptions& options = {});

}  // namespace respin::trace::fit
