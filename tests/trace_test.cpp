// respin::trace — format round-trips, malformed-input robustness, the
// op-source refactor guard, and the record/replay differential tier.
//
// The headline contract: for every benchmark and every Table IV
// configuration, replaying a recorded trace reproduces the live synthetic
// run's SimResult bit for bit (expect_same_result, the same assertion the
// skip/no-skip and serial/parallel determinism tests use). The robustness
// half feeds the reader truncated/corrupted/alien bytes and requires a
// typed TraceError every time — these are the paths the ASan+UBSan CI job
// watches.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/oracle.hpp"
#include "exec/parallel.hpp"
#include "obs/golden.hpp"
#include "scratch_path.hpp"
#include "sim_result_eq.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "workload/op_source.hpp"
#include "workload/workload.hpp"

namespace respin {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

trace::TraceErrorKind load_error_kind(const std::string& path) {
  try {
    trace::load_trace(path);
  } catch (const trace::TraceError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected TraceError from " << path;
  return trace::TraceErrorKind::kIo;
}

/// A small recorded trace shared by the format tests.
std::string record_small(const std::string& name, std::uint32_t threads = 4,
                         double scale = 0.02) {
  const std::string path = test::scratch_path(name);
  trace::record_benchmark(workload::benchmark("radix"), threads, scale, 7,
                          path);
  return path;
}

// ---- Format round trip ---------------------------------------------------

TEST(TraceFormat, RecordedOpsRoundTripExactly) {
  const std::string path = record_small("roundtrip.rspt");
  const trace::TraceData data = trace::load_trace(path);

  EXPECT_EQ(data.header.benchmark, "radix");
  EXPECT_EQ(data.header.thread_count, 4u);
  EXPECT_EQ(data.header.seed, 7u);
  EXPECT_DOUBLE_EQ(data.header.scale, 0.02);

  // The decoded streams must equal a fresh drain of the generator, field
  // by field — delta/varint compression is lossless.
  for (std::uint32_t t = 0; t < 4; ++t) {
    workload::ThreadWorkload work(workload::benchmark("radix"), t, 4, 0.02,
                                  7);
    const trace::ThreadTrace& decoded = data.threads[t];
    std::size_t i = 0;
    for (;;) {
      const workload::Op expected = work.next();
      if (expected.kind == workload::OpKind::kFinished) break;
      ASSERT_LT(i, decoded.ops.size()) << "thread " << t;
      const workload::Op& got = decoded.ops[i++];
      ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(expected.kind))
          << "thread " << t << " op " << i;
      EXPECT_EQ(got.count, expected.count);
      EXPECT_EQ(got.addr, expected.addr);
      if (expected.kind == workload::OpKind::kCompute) {
        EXPECT_EQ(got.ipc, expected.ipc);  // Bit-exact through f64 bits.
      }
    }
    EXPECT_EQ(i, decoded.ops.size()) << "thread " << t;
    EXPECT_EQ(decoded.instructions, work.instructions_emitted());

    for (const mem::Addr addr : decoded.ifetch) {
      EXPECT_EQ(addr, work.next_ifetch_addr());
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFormat, ChunkIteratorSeesEveryChunkOnce) {
  const std::string path = record_small("iterator.rspt");
  trace::TraceReader reader(path);
  std::uint64_t records = 0;
  std::size_t chunks = 0;
  for (const trace::Chunk& chunk : reader) {
    EXPECT_LT(chunk.thread, reader.header().thread_count);
    EXPECT_FALSE(chunk.payload.empty());
    records += chunk.record_count;
    ++chunks;
  }
  EXPECT_GE(chunks, 8u);  // At least ops + ifetch per thread.
  const trace::TraceData data = trace::load_trace(path);
  // record_count counts kSetIpc metadata records too, so it bounds the
  // decoded op/ifetch totals from above.
  EXPECT_GE(records, data.total_ops() + data.total_ifetches());
  std::remove(path.c_str());
}

TEST(TraceFormat, WriterRejectsOutOfRangeThread) {
  const std::string path = test::scratch_path("badthread.rspt");
  trace::TraceHeader header;
  header.thread_count = 2;
  header.benchmark = "x";
  trace::TraceWriter writer(path, header);
  try {
    writer.add_ifetch(5, 0x1000);
    FAIL() << "expected TraceError";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.kind(), trace::TraceErrorKind::kBadRecord);
  }
  std::remove(path.c_str());
}

TEST(TraceFormat, Crc32KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(trace::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                         check.size()),
            0xCBF4'3926u);
  EXPECT_EQ(trace::crc32(nullptr, 0), 0u);
}

/// Bit-at-a-time IEEE CRC32: the definition the sliced version must match.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFF'FFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFF'FFFFu;
}

// Every length 0..64 (the 8-byte body plus each tail length) from every
// start offset 0..7, so no input alignment is assumed.
TEST(TraceFormat, Crc32MatchesBytewiseReference) {
  std::vector<std::uint8_t> bytes(64 + 8);
  std::uint32_t x = 0x1234'5678u;
  for (std::uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = bytes.data() + start;
      EXPECT_EQ(trace::crc32(p, len), crc32_bitwise(p, len))
          << "start " << start << " length " << len;
    }
  }
}

// ---- Malformed-input robustness ------------------------------------------

TEST(TraceRobustness, BadMagicIsTyped) {
  const std::string path = record_small("badmagic.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[0] ^= 0xFF;
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadMagic);
  std::remove(path.c_str());
}

TEST(TraceRobustness, WrongVersionIsTyped) {
  const std::string path = record_small("badversion.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[4] = 0x7F;  // version u16 lives at offset 4.
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadVersion);
  std::remove(path.c_str());
}

TEST(TraceRobustness, ZeroThreadHeaderIsTyped) {
  const std::string path = record_small("zerothreads.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  for (int i = 8; i < 12; ++i) bytes[i] = 0;  // thread_count u32 at offset 8.
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadHeader);
  std::remove(path.c_str());
}

TEST(TraceRobustness, FlippedHeaderByteFailsCrc) {
  const std::string path = record_small("hdrcrc.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[12] ^= 0x01;  // Inside the seed field: caught only by the CRC.
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kCrcMismatch);
  std::remove(path.c_str());
}

TEST(TraceRobustness, FlippedPayloadByteFailsChunkCrc) {
  const std::string path = record_small("chunkcrc.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  // Header = 30-byte prefix + 5-byte name ("radix") + 4-byte CRC; first
  // chunk header is 13 bytes, then its payload.
  const std::size_t payload_start = 30 + 5 + 4 + 13;
  ASSERT_LT(payload_start + 8, bytes.size());
  bytes[payload_start + 8] ^= 0x20;
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kCrcMismatch);
  std::remove(path.c_str());
}

TEST(TraceRobustness, TruncationIsTypedEverywhere) {
  const std::string path = record_small("trunc.rspt");
  const std::vector<std::uint8_t> bytes = read_file(path);
  // Cut inside the header, inside a chunk, and just before the end
  // marker: always kTruncated, never UB or silent success.
  for (const std::size_t keep :
       {std::size_t{10}, std::size_t{33}, bytes.size() / 2,
        bytes.size() - 5}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    write_file(path, cut);
    EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kTruncated)
        << "truncated to " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(TraceRobustness, TrailingGarbageIsTyped) {
  const std::string path = record_small("trailing.rspt");
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.push_back(0xAB);
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadRecord);
  std::remove(path.c_str());
}

TEST(TraceRobustness, UnknownRecordTagIsTyped) {
  const std::string path = test::scratch_path("badtag.rspt");
  trace::TraceHeader header;
  header.thread_count = 1;
  header.benchmark = "x";
  std::vector<std::uint8_t> bytes = trace::encode_header(header);
  // Hand-built ops chunk whose single record has tag 9 (undefined) but a
  // correct CRC: must fail in the decoder, not the checksum.
  const std::vector<std::uint8_t> payload = {9};
  trace::put_u32(bytes, 0);  // thread
  trace::put_u8(bytes, 0);   // StreamKind::kOps
  trace::put_u32(bytes, 1);  // record_count
  trace::put_u32(bytes, static_cast<std::uint32_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  trace::put_u32(bytes, trace::crc32(payload));
  trace::put_u32(bytes, trace::kEndMarker);
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadRecord);
  std::remove(path.c_str());
}

TEST(TraceRobustness, OversizedChunkLengthIsTypedNotAllocated) {
  const std::string path = test::scratch_path("bigchunk.rspt");
  trace::TraceHeader header;
  header.thread_count = 1;
  header.benchmark = "x";
  std::vector<std::uint8_t> bytes = trace::encode_header(header);
  trace::put_u32(bytes, 0);
  trace::put_u8(bytes, 0);
  trace::put_u32(bytes, 1);
  trace::put_u32(bytes, 0xFFFF'FFF0u);  // Absurd payload length.
  write_file(path, bytes);
  EXPECT_EQ(load_error_kind(path), trace::TraceErrorKind::kBadRecord);
  std::remove(path.c_str());
}

TEST(TraceRobustness, MissingFileIsTyped) {
  EXPECT_EQ(load_error_kind(test::scratch_path("does_not_exist.rspt")),
            trace::TraceErrorKind::kIo);
}

// ---- Op-source refactor guard --------------------------------------------

TEST(OpSource, StreamCopyIsDeepAndPositionPreserving) {
  const workload::WorkloadSpec& spec = workload::benchmark("fft");
  workload::OpStream a = workload::synthetic_factory(spec, 0.05, 3)(0, 4);
  for (int i = 0; i < 100; ++i) a.next();
  for (int i = 0; i < 10; ++i) a.next_ifetch_addr();

  workload::OpStream b = a;  // Deep copy at position 100/10.
  for (int i = 0; i < 200; ++i) {
    const workload::Op oa = a.next();
    const workload::Op ob = b.next();
    ASSERT_EQ(static_cast<int>(oa.kind), static_cast<int>(ob.kind)) << i;
    ASSERT_EQ(oa.count, ob.count) << i;
    ASSERT_EQ(oa.addr, ob.addr) << i;
    ASSERT_EQ(a.next_ifetch_addr(), b.next_ifetch_addr()) << i;
  }
}

// The refactor's own regression: driving the goldens grid through the
// explicit op-source factory constructor (no trace files anywhere) must
// reproduce the checked-in goldens-grid counters exactly. Guards the
// ThreadWorkload -> OpStream lifting independently of the trace format.
TEST(OpSource, FactoryConstructorMatchesGoldenCounters) {
  std::ifstream in(RESPIN_GOLDENS_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << RESPIN_GOLDENS_FILE;
  const std::vector<obs::MetricsRow> golden = obs::read_metrics_csv(in);
  ASSERT_FALSE(golden.empty());

  const core::RunOptions options = core::golden_options();
  std::vector<obs::MetricsRow> live;
  for (const core::ConfigId id : core::all_config_ids()) {
    for (const std::string& name : core::golden_benchmarks()) {
      const workload::WorkloadSpec& spec = workload::benchmark(name);
      const core::ClusterConfig config = core::make_cluster_config(
          id, options.size, options.cluster_cores, options.seed);
      core::SimParams params;
      params.workload_scale = options.workload_scale;
      params.seed = options.seed;
      params.cycle_skip = options.cycle_skip;
      core::ClusterSim sim(
          config, name,
          workload::synthetic_factory(spec, options.workload_scale,
                                      options.seed),
          params);
      core::SimResult result;
      if (config.governor == core::GovernorKind::kOracle) {
        result = core::run_with_oracle(
            sim, core::OracleParams{.stride = options.oracle_stride});
      } else {
        sim.run();
        result = sim.result();
      }
      live.push_back(core::metrics_row(result));
    }
  }

  const obs::GoldenDiff diff = obs::diff_metrics(golden, live);
  EXPECT_TRUE(diff.ok()) << "factory-built sims drifted off the goldens:\n"
                         << diff.report();
}

// ---- Record/replay differential tier -------------------------------------

class TraceReplayEquivalence : public testing::TestWithParam<const char*> {};

// The headline property: recorded-trace replay is bit-identical to the
// live synthetic run for every Table IV configuration.
TEST_P(TraceReplayEquivalence, BitIdenticalAcrossAllConfigs) {
  const std::string benchmark = GetParam();
  const std::string path = test::scratch_path("replay_" + benchmark + ".rspt");
  trace::record_benchmark(workload::benchmark(benchmark), 8, 0.04, 1, path);
  const trace::TraceData data = trace::load_trace(path);

  for (const core::ConfigId id : core::all_config_ids()) {
    SCOPED_TRACE(core::to_string(id));
    const core::RunOptions options;
    const core::SimResult live = trace::live_run_for(id, data, options);
    const core::SimResult replay = trace::replay_trace(id, data, options);
    core::expect_same_result(live, replay);
    EXPECT_EQ(trace::diff_results(live, replay), "");
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, TraceReplayEquivalence,
                         testing::Values("radix", "raytrace"));

// A sweep that loads a trace once and fans the eight Table IV
// configurations out over the host pool. Replays read the trace in place,
// so they share it across pool threads; each result must still match a
// serial replay bit for bit.
TEST(SharedTraceReplay, ConcurrentReplaysMatchSerial) {
  const std::string path = test::scratch_path("shared_radix.rspt");
  trace::record_benchmark(workload::benchmark("radix"), 8, 0.02, 3, path);
  const trace::TraceData data = trace::load_trace(path);
  const std::vector<core::ConfigId> all = core::all_config_ids();
  const std::vector<core::ConfigId> table_iv(all.begin(), all.begin() + 8);

  std::vector<core::SimResult> serial;
  for (const core::ConfigId id : table_iv) {
    serial.push_back(trace::replay_trace(id, data));
  }
  exec::ThreadPool pool(4);
  const std::vector<core::SimResult> concurrent =
      exec::parallel_map(pool, table_iv, [&](core::ConfigId id) {
        return trace::replay_trace(id, data);
      });
  ASSERT_EQ(concurrent.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(trace::diff_results(serial[i], concurrent[i]), "")
        << core::to_string(table_iv[i]);
  }
}

TEST(TraceReplay, RecordingWrapperIsTransparentToTheSimulation) {
  // A live simulation whose streams are tee'd through RecordingOpSource
  // must behave identically to the unrecorded one — recording is a pure
  // observer.
  const workload::WorkloadSpec& spec = workload::benchmark("fft");
  const core::ClusterConfig config = core::make_cluster_config(
      core::ConfigId::kShSttCc, core::CacheSize::kMedium, 8, 1);
  core::SimParams params;
  params.workload_scale = 0.04;
  params.seed = 1;

  core::ClusterSim plain(config, spec, params);
  plain.run();

  const std::string path = test::scratch_path("teerecord.rspt");
  trace::TraceHeader header;
  header.thread_count = 8;
  header.seed = 1;
  header.scale = 0.04;
  header.benchmark = spec.name;
  {
    trace::TraceWriter writer(path, header);
    core::ClusterSim recorded(
        config, spec.name,
        trace::recording_factory(
            workload::synthetic_factory(spec, 0.04, 1), &writer),
        params);
    recorded.run();
    core::SimResult a = plain.result();
    core::SimResult b = recorded.result();
    core::expect_same_result(a, b);
    writer.finish();
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, TraceSourceReturnsFinishedForever) {
  const std::string path = record_small("finished.rspt", 2, 0.01);
  auto data = std::make_shared<const trace::TraceData>(
      trace::load_trace(path));
  trace::TraceOpSource source(data, 0);
  for (;;) {
    if (source.next().kind == workload::OpKind::kFinished) break;
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<int>(source.next().kind),
              static_cast<int>(workload::OpKind::kFinished));
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, ThreadCountMismatchIsTyped) {
  const std::string path = record_small("mismatch.rspt", 4, 0.01);
  const trace::TraceData data = trace::load_trace(path);
  // Any configuration with cluster_cores != 4 must be rejected.
  try {
    const core::ClusterConfig config = core::make_cluster_config(
        core::ConfigId::kShStt, core::CacheSize::kMedium, 8, 1);
    core::SimParams params;
    core::ClusterSim sim(
        config, data.header.benchmark,
        trace::trace_factory(std::make_shared<const trace::TraceData>(data)),
        params);
    FAIL() << "expected TraceError";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.kind(), trace::TraceErrorKind::kMismatch);
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, IfetchExhaustionIsTyped) {
  const std::string path = record_small("ifetchdry.rspt", 4, 0.02);
  trace::TraceData data = trace::load_trace(path);
  // Starve the ifetch streams: replay must fail with a typed error, not
  // read out of bounds.
  for (trace::ThreadTrace& t : data.threads) t.ifetch.resize(1);
  try {
    trace::replay_trace(core::ConfigId::kShStt, data);
    FAIL() << "expected TraceError";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.kind(), trace::TraceErrorKind::kMismatch);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace respin
