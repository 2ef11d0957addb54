#include "workload/synth.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace respin::workload {

namespace {

/// Recency-stack bound: deeper reuse collapses into the deepest live
/// entry. 2^18 lines = 16 MB of tracked working set, past the last finite
/// histogram bucket, so the clamp never distorts a representable draw.
constexpr std::size_t kStackCap = std::size_t{1} << 18;
/// Overflow trim granularity (amortizes the front erase).
constexpr std::size_t kStackTrim = 4096;
/// Code window for the synthesized ifetch stream.
constexpr std::uint64_t kCodeBytes = 32 * 1024;
/// Largest single compute run (mirrors ThreadWorkload).
constexpr std::uint64_t kMaxComputeRun = 4096;

}  // namespace

std::size_t reuse_bucket(std::uint64_t distance) {
  if (distance == kColdDistance) return kReuseBuckets - 1;
  if (distance == 0) return 0;
  std::size_t bucket = 1;
  while (bucket + 1 < kReuseBuckets - 1 &&
         distance >= (std::uint64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

void validate(const WorkloadProfile& profile) {
  RESPIN_REQUIRE(!profile.phases.empty(), "profile needs at least one phase");
  RESPIN_REQUIRE(profile.thread_count >= 1,
                 "profile thread_count must be positive");
  RESPIN_REQUIRE(profile.reuse_hist.size() == kReuseBuckets,
                 "profile reuse histogram must have " +
                     std::to_string(kReuseBuckets) + " buckets");
  RESPIN_REQUIRE(profile.mem_ops > 0, "profile holds no memory accesses");
  for (const ProfilePhase& p : profile.phases) {
    RESPIN_REQUIRE(p.instructions > 0, "profile phase with zero instructions");
    RESPIN_REQUIRE(p.ipc > 0.0 && p.ipc <= 2.0,
                   "profile phase IPC must be in (0, 2]");
    RESPIN_REQUIRE(p.mem_fraction >= 0.0 && p.mem_fraction <= 1.0,
                   "profile mem_fraction must be in [0, 1]");
    RESPIN_REQUIRE(p.store_fraction >= 0.0 && p.store_fraction <= 1.0,
                   "profile store_fraction must be in [0, 1]");
    RESPIN_REQUIRE(p.shared_fraction >= 0.0 && p.shared_fraction <= 1.0,
                   "profile shared_fraction must be in [0, 1]");
  }
}

SynthFromProfile::SynthFromProfile(
    std::shared_ptr<const WorkloadProfile> profile, std::uint32_t thread_id,
    std::uint32_t thread_count, double scale, std::uint64_t seed)
    : profile_(std::move(profile)),
      thread_id_(thread_id),
      scale_(scale),
      rng_("synth." + (profile_ ? profile_->name : std::string()),
           seed * 1000003ULL + thread_id),
      ifetch_rng_("synth.ifetch." + (profile_ ? profile_->name : std::string()),
                  seed * 1000003ULL + thread_id),
      code_cursor_(ThreadWorkload::code_base() + 64 * thread_id) {
  RESPIN_REQUIRE(profile_ != nullptr, "null profile");
  validate(*profile_);
  RESPIN_REQUIRE(thread_count >= 1 && thread_id < thread_count,
                 "bad thread id/count");
  RESPIN_REQUIRE(scale > 0.0, "scale must be positive");
  // Cumulative weights for the per-access reuse-bucket draw. A histogram
  // that is all-cold or all-hot still works: the draw degenerates to the
  // one populated bucket.
  reuse_cumulative_.reserve(kReuseBuckets);
  for (const std::uint64_t weight : profile_->reuse_hist) {
    reuse_total_ += weight;
    reuse_cumulative_.push_back(reuse_total_);
  }
  RESPIN_REQUIRE(reuse_total_ > 0, "profile reuse histogram is empty");
  enter_phase(0);
}

void SynthFromProfile::enter_phase(std::size_t index) {
  if (index >= profile_->phases.size()) {
    finished_ = true;
    return;
  }
  phase_index_ = index;
  phase_budget_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(phase().instructions) * scale_));
  const double mem = phase().mem_fraction;
  mem_gap_log_ = mem > 0.0 && mem < 1.0 ? std::log1p(-mem) : 0.0;
}

mem::Addr SynthFromProfile::data_address() {
  // Draw a target stack-distance bucket from the measured histogram.
  const std::uint64_t pick = rng_.uniform_u64(reuse_total_);
  std::size_t bucket = 0;
  while (reuse_cumulative_[bucket] <= pick) ++bucket;

  const std::size_t stack = recency_.size();
  const bool cold = bucket == kReuseBuckets - 1 || stack == 0;
  if (!cold) {
    // Distance range of the bucket, clamped into the live stack.
    std::uint64_t lo = bucket == 0 ? 0 : (std::uint64_t{1} << (bucket - 1));
    std::uint64_t hi =
        bucket == 0 ? 1 : (std::uint64_t{1} << bucket);  // Exclusive.
    lo = std::min<std::uint64_t>(lo, stack - 1);
    hi = std::min<std::uint64_t>(hi, stack);
    const std::uint64_t distance =
        lo + (hi > lo ? rng_.uniform_u64(hi - lo) : 0);
    const std::size_t index = stack - 1 - static_cast<std::size_t>(distance);
    const mem::Addr line = recency_[index];
    recency_.erase(recency_.begin() + static_cast<std::ptrdiff_t>(index));
    recency_.push_back(line);
    return line * 64;
  }

  // First touch: allocate from the shared pool (uniform, so threads
  // overlap on the same lines) or the thread's private sequence.
  mem::Addr line;
  const bool shared = profile_->shared_pool_lines > 0 &&
                      rng_.bernoulli(phase().shared_fraction);
  if (shared) {
    line = ThreadWorkload::shared_base() / 64 +
           rng_.uniform_u64(profile_->shared_pool_lines);
  } else {
    line = ThreadWorkload::private_base(thread_id_) / 64 + next_private_line_;
    ++next_private_line_;
  }
  // Keep stack entries distinct: a pool draw may hit a line that is
  // already resident (then this is a re-touch at its old depth, folded
  // into the tolerance budget), so drop the stale entry first.
  if (shared) {
    const auto it = std::find(recency_.begin(), recency_.end(), line);
    if (it != recency_.end()) recency_.erase(it);
  }
  recency_.push_back(line);
  if (recency_.size() > kStackCap + kStackTrim) {
    recency_.erase(recency_.begin(),
                   recency_.begin() + static_cast<std::ptrdiff_t>(
                                          recency_.size() - kStackCap));
  }
  return line * 64;
}

Op SynthFromProfile::next() {
  if (finished_) return Op{};

  if (phase_budget_ == 0) {
    // Phase boundary: every thread follows the same phase schedule, so a
    // program-wide barrier keeps the synthesized phase structure visible
    // to the governor exactly as the catalog generators do.
    const std::uint64_t id = next_barrier_id_++;
    enter_phase(phase_index_ + 1);
    return Op{.kind = OpKind::kBarrier, .count = 0, .addr = id};
  }

  const ProfilePhase& p = phase();
  if (p.mem_fraction <= 0.0) {
    const auto run = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(phase_budget_, kMaxComputeRun));
    phase_budget_ -= run;
    return Op{.kind = OpKind::kCompute, .count = run, .addr = 0, .ipc = p.ipc};
  }

  // Geometric compute gap before each memory access (same scheme as
  // ThreadWorkload, so mem_fraction is reproduced in expectation).
  if (!pending_mem_) {
    const std::uint64_t gap =
        p.mem_fraction >= 1.0
            ? 0
            : rng_.geometric_from_log(mem_gap_log_, kMaxComputeRun);
    if (gap > 0) {
      const auto run = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(gap, phase_budget_));
      if (run > 0) {
        pending_mem_ = true;
        phase_budget_ -= run;
        return Op{.kind = OpKind::kCompute, .count = run, .addr = 0,
                  .ipc = p.ipc};
      }
    }
  }
  pending_mem_ = false;

  phase_budget_ -= 1;
  const bool store = rng_.bernoulli(p.store_fraction);
  return Op{.kind = store ? OpKind::kStore : OpKind::kLoad,
            .count = 1,
            .addr = data_address()};
}

mem::Addr SynthFromProfile::next_ifetch_addr() {
  const mem::Addr code_base = ThreadWorkload::code_base();
  if (ifetch_rng_.bernoulli(0.12)) {
    code_cursor_ = code_base + 32 * ifetch_rng_.uniform_u64(kCodeBytes / 32);
  } else {
    code_cursor_ += 32;
    if (code_cursor_ >= code_base + kCodeBytes) code_cursor_ = code_base;
  }
  return code_cursor_;
}

OpSourceFactory synth_factory(std::shared_ptr<const WorkloadProfile> profile,
                              double scale, std::uint64_t seed) {
  RESPIN_REQUIRE(profile != nullptr, "synth_factory needs a profile");
  validate(*profile);
  return [profile, scale, seed](std::uint32_t thread_id,
                                std::uint32_t thread_count) {
    return OpStream(std::make_unique<SynthFromProfile>(
        profile, thread_id, thread_count, scale, seed));
  };
}

}  // namespace respin::workload
