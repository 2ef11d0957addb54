// respin::trace::fit + workload synthesis — the trace-fitting analyzer
// and the profile-driven generator. Pins:
//   - fit_trace measures hand-built traces exactly (mix, sharing, exact
//     LRU stack-distance histogram),
//   - the profile JSON form round-trips byte-stably,
//   - SynthFromProfile is deterministic in (profile, seed) and clones
//     mid-stream (the ClusterSim snapshot contract),
//   - fit(synth(fit(trace))) reproduces the measured mix and reuse
//     histogram within the tolerances documented in docs/traces.md,
//   - a synthesized trace replays bit-identically to the live synth run,
//   - profile-backed request specs get canonical keys.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/serde.hpp"
#include "scratch_path.hpp"
#include "sim_result_eq.hpp"
#include "trace/capture.hpp"
#include "trace/fit/fit.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "workload/synth.hpp"
#include "workload/workload.hpp"

namespace respin {
namespace {

using workload::OpKind;
using workload::WorkloadProfile;

workload::Op compute(std::uint32_t count, double ipc = 1.0) {
  return {.kind = OpKind::kCompute, .count = count, .addr = 0, .ipc = ipc};
}

workload::Op load(mem::Addr addr) {
  return {.kind = OpKind::kLoad, .count = 1, .addr = addr};
}

workload::Op store(mem::Addr addr) {
  return {.kind = OpKind::kStore, .count = 1, .addr = addr};
}

/// Writes a hand-built trace: one op vector per thread.
std::string write_trace(const std::string& name,
                        const std::vector<std::vector<workload::Op>>& threads) {
  const std::string path = test::scratch_path(name);
  trace::TraceHeader header;
  header.thread_count = static_cast<std::uint32_t>(threads.size());
  header.benchmark = "handmade";
  trace::TraceWriter writer(path, header);
  for (std::uint32_t t = 0; t < threads.size(); ++t) {
    for (const workload::Op& op : threads[t]) writer.add_op(t, op);
  }
  writer.finish();
  return path;
}

/// Records the radix benchmark small and fits it — the shared fixture for
/// the round-trip and synthesis tests.
WorkloadProfile fitted_radix(double scale = 0.02, std::uint32_t threads = 4) {
  const std::string path = test::scratch_path("radix_fixture.rspt");
  trace::record_benchmark(workload::benchmark("radix"), threads, scale, 7,
                          path);
  const trace::TraceData data = trace::load_trace(path);
  WorkloadProfile profile = trace::fit::fit_trace(data);
  std::remove(path.c_str());
  return profile;
}

// ---- Measurement ---------------------------------------------------------

TEST(FitProfile, MeasuresMixAndExactReuseDistances) {
  // One thread: 8 compute, then accesses with known stack distances.
  //   load A   cold
  //   load A   distance 0 -> bucket 0
  //   load B   cold
  //   load A   distance 1 -> bucket 1
  //   store B  distance 1 -> bucket 1
  const mem::Addr A = 0x1000, B = 0x2000;
  const std::string path = write_trace(
      "mix.rspt",
      {{compute(8), load(A), load(A), load(B), load(A), store(B)}});
  const WorkloadProfile p = trace::fit::fit_trace(trace::load_trace(path));

  EXPECT_EQ(p.thread_count, 1u);
  EXPECT_EQ(p.instructions, 13u);  // 8 compute + 5 accesses.
  EXPECT_EQ(p.mem_ops, 5u);
  EXPECT_EQ(p.loads, 4u);
  EXPECT_EQ(p.stores, 1u);
  EXPECT_DOUBLE_EQ(p.mem_fraction, 5.0 / 13.0);
  EXPECT_DOUBLE_EQ(p.store_fraction, 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(p.shared_fraction, 0.0);
  EXPECT_EQ(p.shared_pool_lines, 0u);

  ASSERT_EQ(p.reuse_hist.size(), workload::kReuseBuckets);
  EXPECT_EQ(p.reuse_hist[0], 1u);                            // Distance 0.
  EXPECT_EQ(p.reuse_hist[1], 2u);                            // Distance 1.
  EXPECT_EQ(p.reuse_hist[workload::kReuseBuckets - 1], 2u);  // Cold.
  std::uint64_t total = 0;
  for (const std::uint64_t b : p.reuse_hist) total += b;
  EXPECT_EQ(total, p.mem_ops);
  std::remove(path.c_str());
}

TEST(FitProfile, MeasuresSharingAcrossThreads) {
  // Line S is touched by both threads (3 of 4 accesses); P is private.
  const mem::Addr S = 0x8000, P = 0x9000;
  const std::string path = write_trace(
      "share.rspt", {{load(S), load(S)}, {load(S), store(P)}});
  const WorkloadProfile p = trace::fit::fit_trace(trace::load_trace(path));
  EXPECT_EQ(p.mem_ops, 4u);
  EXPECT_DOUBLE_EQ(p.shared_fraction, 3.0 / 4.0);
  EXPECT_EQ(p.shared_pool_lines, 1u);
  std::remove(path.c_str());
}

TEST(FitProfile, ComputeOnlyTraceHasNothingToFit) {
  const std::string path = write_trace("pure.rspt", {{compute(100)}});
  const trace::TraceData data = trace::load_trace(path);
  try {
    trace::fit::fit_trace(data);
    FAIL() << "expected TraceError";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.kind(), trace::TraceErrorKind::kMismatch);
  }
  std::remove(path.c_str());
}

TEST(FitProfile, ReuseBucketMappingIsLog2) {
  EXPECT_EQ(workload::reuse_bucket(0), 0u);
  EXPECT_EQ(workload::reuse_bucket(1), 1u);
  EXPECT_EQ(workload::reuse_bucket(2), 2u);
  EXPECT_EQ(workload::reuse_bucket(3), 2u);
  EXPECT_EQ(workload::reuse_bucket(4), 3u);
  EXPECT_EQ(workload::reuse_bucket(workload::kColdDistance),
            workload::kReuseBuckets - 1);
  // Deep-but-finite distances saturate the last finite bucket, not cold.
  EXPECT_EQ(workload::reuse_bucket(std::uint64_t{1} << 40),
            workload::kReuseBuckets - 2);
}

// ---- Profile JSON --------------------------------------------------------

TEST(FitProfile, JsonRoundTripsByteStably) {
  const WorkloadProfile p = fitted_radix();
  const std::string dumped = trace::fit::profile_to_json(p).dump();
  const WorkloadProfile parsed =
      trace::fit::profile_from_json(obs::json::parse(dumped));
  // Byte-stable: serialize -> parse -> serialize is the identity.
  EXPECT_EQ(trace::fit::profile_to_json(parsed).dump(), dumped);

  EXPECT_EQ(parsed.name, p.name);
  EXPECT_EQ(parsed.thread_count, p.thread_count);
  EXPECT_EQ(parsed.mem_ops, p.mem_ops);
  EXPECT_EQ(parsed.reuse_hist, p.reuse_hist);
  ASSERT_EQ(parsed.phases.size(), p.phases.size());
  for (std::size_t i = 0; i < p.phases.size(); ++i) {
    EXPECT_EQ(parsed.phases[i].instructions, p.phases[i].instructions);
    EXPECT_EQ(parsed.phases[i].mem_fraction, p.phases[i].mem_fraction);
    EXPECT_EQ(parsed.phases[i].store_fraction, p.phases[i].store_fraction);
  }
}

TEST(FitProfile, SaveAndLoadFileForms) {
  const WorkloadProfile p = fitted_radix();
  const std::string path = test::scratch_path("profile.json");
  trace::fit::save_profile(p, path);
  const WorkloadProfile loaded = trace::fit::load_profile(path);
  EXPECT_EQ(trace::fit::profile_to_json(loaded).dump(),
            trace::fit::profile_to_json(p).dump());
  std::remove(path.c_str());

  try {
    trace::fit::load_profile(test::scratch_path("missing_profile.json"));
    FAIL() << "expected TraceError";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.kind(), trace::TraceErrorKind::kIo);
  }
}

// ---- Synthesis -----------------------------------------------------------

TEST(SynthFromProfile, DeterministicAndCloneable) {
  const auto profile = std::make_shared<const WorkloadProfile>(fitted_radix());
  workload::SynthFromProfile a(profile, 0, 4, 1.0, 3);
  workload::SynthFromProfile b(profile, 0, 4, 1.0, 3);

  // Drain halfway, snapshot, and require the clone to continue in
  // lockstep with the original — ClusterSim snapshots depend on this.
  std::unique_ptr<workload::OpSource> clone;
  for (int i = 0; i < 100000; ++i) {
    const workload::Op oa = a.next();
    const workload::Op ob = i < 500 ? b.next() : clone->next();
    if (i == 499) clone = b.clone();
    ASSERT_EQ(static_cast<int>(oa.kind), static_cast<int>(ob.kind)) << i;
    ASSERT_EQ(oa.count, ob.count) << i;
    ASSERT_EQ(oa.addr, ob.addr) << i;
    if (oa.kind == OpKind::kFinished) break;
  }
  EXPECT_EQ(a.next_ifetch_addr(), b.next_ifetch_addr());

  // A different seed diverges (not a constant generator).
  workload::SynthFromProfile c(profile, 0, 4, 1.0, 4);
  bool diverged = false;
  workload::SynthFromProfile a2(profile, 0, 4, 1.0, 3);
  for (int i = 0; i < 1000 && !diverged; ++i) {
    const workload::Op oa = a2.next();
    const workload::Op oc = c.next();
    diverged = oa.kind != oc.kind || oa.count != oc.count || oa.addr != oc.addr;
  }
  EXPECT_TRUE(diverged);
}

TEST(SynthFromProfile, ThreadsShareIdenticalBarrierSchedules) {
  const auto profile = std::make_shared<const WorkloadProfile>(fitted_radix());
  std::vector<std::uint64_t> barrier_counts;
  for (std::uint32_t t = 0; t < 4; ++t) {
    workload::SynthFromProfile s(profile, t, 4, 1.0, 3);
    std::uint64_t barriers = 0;
    for (;;) {
      const workload::Op op = s.next();
      if (op.kind == OpKind::kFinished) break;
      if (op.kind == OpKind::kBarrier) ++barriers;
    }
    barrier_counts.push_back(barriers);
  }
  // Every thread must arrive at every barrier or replay would deadlock.
  for (const std::uint64_t count : barrier_counts) {
    EXPECT_EQ(count, barrier_counts.front());
  }
  EXPECT_EQ(barrier_counts.front(), profile->phases.size());
}

// The headline tolerance contract (documented in docs/traces.md):
// fitting a synthesized trace reproduces the source profile's read/write
// mix within 10% relative (0.02 absolute floor) and its reuse-distance
// histogram within 0.15 total-variation distance.
TEST(SynthFromProfile, FitOfSynthReproducesProfileWithinTolerance) {
  const WorkloadProfile p = fitted_radix(/*scale=*/0.05);
  const std::string path = test::scratch_path("synth_rt.rspt");
  trace::fit::synthesize_trace(p, p.thread_count, 1.0, 11, path);
  const WorkloadProfile q =
      trace::fit::fit_trace(trace::load_trace(path));
  std::remove(path.c_str());

  const auto close = [](double got, double want, double rel, double floor) {
    const double tol = std::max(floor, rel * std::abs(want));
    EXPECT_NEAR(got, want, tol);
  };
  close(q.mem_fraction, p.mem_fraction, 0.10, 0.02);
  close(q.store_fraction, p.store_fraction, 0.10, 0.02);
  close(q.shared_fraction, p.shared_fraction, 0.25, 0.05);
  close(static_cast<double>(q.instructions),
        static_cast<double>(p.instructions), 0.10, 0.0);

  // Total-variation distance between the normalized reuse histograms.
  double tv = 0.0;
  for (std::size_t b = 0; b < p.reuse_hist.size(); ++b) {
    const double pw =
        static_cast<double>(p.reuse_hist[b]) / static_cast<double>(p.mem_ops);
    const double qw =
        static_cast<double>(q.reuse_hist[b]) / static_cast<double>(q.mem_ops);
    tv += std::abs(pw - qw);
  }
  tv /= 2.0;
  EXPECT_LE(tv, 0.15) << "reuse-distance histogram drifted";
}

TEST(SynthReplay, SynthesizedTraceReplaysBitIdenticallyToLiveRun) {
  const WorkloadProfile p = fitted_radix();
  const std::string path = test::scratch_path("synth_replay.rspt");
  trace::fit::synthesize_trace(p, /*thread_count=*/4, 1.0, 5, path);
  const trace::TraceData data = trace::load_trace(path);

  const core::ConfigId id = core::parse_config_id("SH-STT");
  const core::SimResult replayed = trace::replay_trace(id, data, {});

  core::RunOptions options;
  options.cluster_cores = 4;
  options.seed = 5;
  const core::SimResult live = trace::fit::run_profile(
      id, std::make_shared<const WorkloadProfile>(p), options);

  core::expect_same_result(live, replayed);
  EXPECT_FALSE(replayed.hit_cycle_limit);
  std::remove(path.c_str());
}

// ---- Serving integration -------------------------------------------------

TEST(ProfileRequests, ProfileFileGetsItsOwnCanonicalKey) {
  const obs::json::Value request = obs::json::parse(
      R"({"config":"SH-STT","profile_file":"p.json","cluster":4,"seed":9})");
  const core::RequestSpec spec = core::request_spec_from_json(request);
  EXPECT_EQ(spec.profile_file, "p.json");
  const std::string key = core::canonical_key(spec);
  EXPECT_NE(key.find("\"profile_file\":\"p.json\""), std::string::npos);
  EXPECT_NE(key.find("\"cluster\":4"), std::string::npos);
  EXPECT_EQ(key.find("benchmark"), std::string::npos);

  // Round trip: parsing the canonical form reproduces the key.
  EXPECT_EQ(core::canonical_key(
                core::request_spec_from_json(obs::json::parse(key))),
            key);
}

TEST(ProfileRequests, RejectsAmbiguousWorkloadReferences) {
  EXPECT_THROW(core::request_spec_from_json(obs::json::parse(
                   R"({"benchmark":"ocean","profile_file":"p.json"})")),
               std::logic_error);
  EXPECT_THROW(core::request_spec_from_json(obs::json::parse(
                   R"({"trace_file":"t.rspt","profile_file":"p.json"})")),
               std::logic_error);
}

}  // namespace
}  // namespace respin
