// Profile-driven workload synthesis: an OpSource that regenerates a
// parameterized synthetic workload from a measured trace profile.
//
// respin::trace::fit measures a trace (any trace — recorded from the
// catalog or imported from a foreign format) into a WorkloadProfile:
// read/write mix, memory intensity, sharing, a per-thread reuse-distance
// histogram, and windowed phase structure. SynthFromProfile inverts that
// measurement: it emits an op stream whose fitted profile matches the
// input within documented tolerances (docs/traces.md, "Ingestion &
// synthesis"), deterministically from (profile, thread, thread_count,
// scale, seed) — the same purity contract ThreadWorkload has, so synth
// workloads capture, replay, snapshot and serve exactly like catalog
// benchmarks.
//
// Address generation is reuse-distance driven: each memory access draws a
// target stack-distance bucket from the profile histogram and re-touches
// the line at that recency depth (move-to-front over a bounded per-thread
// recency stack), so the synthesized stream reproduces the measured
// locality rather than just the miss ratio of one particular cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/op_source.hpp"
#include "workload/workload.hpp"

namespace respin::workload {

/// Reuse-distance histogram shape shared by fit and synthesis: bucket 0
/// holds distance 0 (immediate line re-touch), bucket b >= 1 holds
/// distances in [2^(b-1), 2^b), and the last bucket holds cold accesses
/// (first touch of a line). 20 buckets cover distances up to 256K
/// distinct 64-byte lines (16 MB of working set) before saturating.
inline constexpr std::size_t kReuseBuckets = 20;

/// Maps a reuse distance to its histogram bucket; pass kColdDistance for
/// a first touch.
inline constexpr std::uint64_t kColdDistance = ~std::uint64_t{0};
std::size_t reuse_bucket(std::uint64_t distance);

/// One phase of measured behaviour (a window of the source trace).
struct ProfilePhase {
  std::uint64_t instructions = 0;  ///< Per-thread instructions.
  double ipc = 1.0;                ///< Issue IPC for compute runs.
  double mem_fraction = 0.3;       ///< Memory ops per instruction.
  double store_fraction = 0.3;     ///< Stores among memory ops.
  double shared_fraction = 0.0;    ///< Accesses to cross-thread lines.
};

/// A fitted workload: everything synthesis needs, plus the aggregate
/// measurements tests and the CLI report. Built by trace::fit::fit_trace
/// or parsed from its JSON form.
struct WorkloadProfile {
  std::string name = "profile";
  std::uint32_t thread_count = 0;  ///< Threads the source trace ran.
  /// Distinct cross-thread (shared) lines measured; synthesis draws cold
  /// shared lines uniformly from a pool of this size so threads overlap.
  std::uint64_t shared_pool_lines = 0;
  /// Aggregated per-thread reuse-distance histogram (kReuseBuckets).
  std::vector<std::uint64_t> reuse_hist =
      std::vector<std::uint64_t>(kReuseBuckets, 0);
  /// Windowed phase structure, in stream order. Never empty after fit.
  std::vector<ProfilePhase> phases;

  // Aggregates over the whole trace (reporting + tolerance tests).
  std::uint64_t instructions = 0;  ///< Per-thread mean.
  std::uint64_t mem_ops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t barriers = 0;      ///< Per-thread barrier count.
  double mem_fraction = 0.0;
  double store_fraction = 0.0;
  double shared_fraction = 0.0;
  double avg_ipc = 1.0;
};

/// Validates the fields synthesis depends on; throws std::logic_error
/// with a caller-printable message on nonsense (no phases, fractions
/// outside [0,1], histogram size mismatch, zero memory ops).
void validate(const WorkloadProfile& profile);

/// Deterministic per-thread op stream synthesized from a profile.
class SynthFromProfile final : public OpSource {
 public:
  /// `scale` multiplies every phase's instruction budget; `seed` selects
  /// the instance. Throws std::logic_error on an invalid profile.
  SynthFromProfile(std::shared_ptr<const WorkloadProfile> profile,
                   std::uint32_t thread_id, std::uint32_t thread_count,
                   double scale, std::uint64_t seed);

  Op next() override;
  mem::Addr next_ifetch_addr() override;
  std::unique_ptr<OpSource> clone() const override {
    return std::make_unique<SynthFromProfile>(*this);
  }

 private:
  const ProfilePhase& phase() const { return profile_->phases[phase_index_]; }
  void enter_phase(std::size_t index);
  mem::Addr data_address();

  std::shared_ptr<const WorkloadProfile> profile_;
  std::uint32_t thread_id_;
  double scale_;
  util::Rng rng_;
  util::Rng ifetch_rng_;

  /// Cumulative reuse-histogram weights for bucket draws.
  std::vector<std::uint64_t> reuse_cumulative_;
  std::uint64_t reuse_total_ = 0;

  /// Per-thread recency stack of line addresses (MRU at the back),
  /// bounded so pathological profiles cannot grow it without limit.
  std::vector<mem::Addr> recency_;
  mem::Addr next_private_line_ = 0;

  std::size_t phase_index_ = 0;
  std::uint64_t phase_budget_ = 0;
  double mem_gap_log_ = 0.0;
  std::uint64_t next_barrier_id_ = 0;
  bool pending_mem_ = false;
  bool finished_ = false;
  mem::Addr code_cursor_ = 0;
};

/// Factory over SynthFromProfile; the profile is shared by every stream
/// (and by clones), so the factory is safe to keep past the caller's
/// scope — serving holds these across async request execution.
OpSourceFactory synth_factory(std::shared_ptr<const WorkloadProfile> profile,
                              double scale, std::uint64_t seed);

}  // namespace respin::workload
