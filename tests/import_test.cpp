// respin::trace import — foreign-format ingestion. Covers the HybridSim
// text reader (field forms, comment handling, compute-gap synthesis,
// cluster padding), conversion determinism (same input -> byte-identical
// .rspt), the replay bit-identity contract for imported traces, and the
// malformed-input taxonomy: every bad foreign file raises a typed
// ImportError (never a crash) — these paths run under the ASan+UBSan CI
// job.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "scratch_path.hpp"
#include "sim_result_eq.hpp"
#include "trace/capture.hpp"
#include "trace/import/import.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"

namespace respin {
namespace {

std::string write_text(const std::string& name, const std::string& content) {
  // The basename carries the prefix: it becomes the default trace label.
  const std::string path = test::scratch_path("respin_import_test_" + name);
  std::ofstream os(path, std::ios::trunc);
  os << content;
  EXPECT_TRUE(os.good()) << path;
  return path;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

/// Imports `content` as a hybridsim trace and returns the typed failure.
trace::ImportErrorKind import_error_kind(const std::string& name,
                                         const std::string& content,
                                         const trace::ImportOptions& options =
                                             {}) {
  const std::string in = write_text(name, content);
  const std::string out = test::scratch_path(name + ".rspt");
  try {
    trace::import_trace("hybridsim", in, out, options);
  } catch (const trace::ImportError& e) {
    std::remove(in.c_str());
    return e.kind();
  }
  std::remove(in.c_str());
  ADD_FAILURE() << "expected ImportError for " << name;
  return trace::ImportErrorKind::kIo;
}

constexpr const char* kMini =
    "# comment line, then mixed mnemonics / radixes\n"
    "0 100 0x1000 R\n"
    "1 105 0x2000 W\n"
    "0 160 0x1040 read\n"
    "1 170 0x2000 LOAD\n"
    "0 200 0x1000 write\n"
    "1 240 0x3000 STORE\n"
    "0 260 4096 LD\n";

// ---- Conversion ----------------------------------------------------------

TEST(ImportHybridSim, ConvertsMultiCoreTextToNativeTrace) {
  const std::string in = write_text("mini.hst", kMini);
  const std::string out = test::scratch_path("mini.rspt");
  const trace::ImportStats stats = trace::import_trace("hybridsim", in, out);

  EXPECT_EQ(stats.cores_seen, 2u);
  EXPECT_EQ(stats.thread_count, 2u);
  EXPECT_EQ(stats.lines, 8u);
  EXPECT_EQ(stats.mem_ops, 7u);

  const trace::TraceData data = trace::load_trace(out);
  EXPECT_EQ(data.header.thread_count, 2u);
  // Default label is derived from the input file's basename.
  EXPECT_EQ(data.header.benchmark, "import:respin_import_test_mini");
  ASSERT_EQ(data.threads.size(), 2u);

  // Core 0: the first record starts its clock (no gap); each later record
  // synthesizes a compute run covering the timestamp delta.
  using workload::OpKind;
  const std::vector<workload::Op>& ops = data.threads[0].ops;
  ASSERT_EQ(ops.size(), 7u);
  EXPECT_EQ(ops[0].kind, OpKind::kLoad);
  EXPECT_EQ(ops[0].addr, 0x1000u);
  EXPECT_EQ(ops[1].kind, OpKind::kCompute);
  EXPECT_EQ(ops[1].count, 60u);  // 160 - 100.
  EXPECT_EQ(ops[2].kind, OpKind::kLoad);
  EXPECT_EQ(ops[2].addr, 0x1040u);
  EXPECT_EQ(ops[3].kind, OpKind::kCompute);
  EXPECT_EQ(ops[3].count, 40u);
  EXPECT_EQ(ops[4].kind, OpKind::kStore);
  EXPECT_EQ(ops[4].addr, 0x1000u);
  EXPECT_EQ(ops[6].kind, OpKind::kLoad);
  EXPECT_EQ(ops[6].addr, 4096u);  // Decimal address form.
  EXPECT_EQ(data.threads[0].instructions, 164u);

  // No barriers are ever synthesized: imported cores finish independently
  // (a partial barrier would deadlock the all-arrive release).
  for (const trace::ThreadTrace& thread : data.threads) {
    for (const workload::Op& op : thread.ops) {
      EXPECT_NE(op.kind, OpKind::kBarrier);
    }
    // The ifetch budget covers the replay core model's fetch cadence.
    EXPECT_GE(thread.ifetch.size(),
              thread.instructions / trace::kMinInstructionsPerFetch);
  }
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(ImportHybridSim, PadsCoreCountToReplayableClusterSize) {
  const std::string in = write_text("three.hst",
                                    "0 1 0x100 R\n"
                                    "1 2 0x200 W\n"
                                    "2 3 0x300 R\n");
  const std::string out = test::scratch_path("three.rspt");
  const trace::ImportStats stats = trace::import_trace("hybridsim", in, out);
  EXPECT_EQ(stats.cores_seen, 3u);
  EXPECT_EQ(stats.thread_count, 4u);  // Padded to the next cluster size.

  const trace::TraceData data = trace::load_trace(out);
  ASSERT_EQ(data.threads.size(), 4u);
  EXPECT_FALSE(data.threads[2].ops.empty());
  EXPECT_TRUE(data.threads[3].ops.empty());  // Padding thread: no work.
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(ImportHybridSim, ClampsPathologicalTimestampGaps) {
  trace::ImportOptions options;
  options.max_compute_gap = 500;
  const std::string in = write_text("gap.hst",
                                    "0 0 0x100 R\n"
                                    "0 9999999 0x140 R\n");
  const std::string out = test::scratch_path("gap.rspt");
  trace::import_trace("hybridsim", in, out, options);
  const trace::TraceData data = trace::load_trace(out);
  ASSERT_GE(data.threads[0].ops.size(), 3u);
  EXPECT_EQ(data.threads[0].ops[1].kind, workload::OpKind::kCompute);
  EXPECT_EQ(data.threads[0].ops[1].count, 500u);  // Clamped, not 9999999.
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(ImportHybridSim, SameInputYieldsByteIdenticalTraces) {
  const std::string in = write_text("det.hst", kMini);
  const std::string out1 = test::scratch_path("det1.rspt");
  const std::string out2 = test::scratch_path("det2.rspt");
  trace::ImportOptions options;
  options.name = "det";  // Pin the label so both conversions match fully.
  trace::import_trace("hybridsim", in, out1, options);
  trace::import_trace("hybridsim", in, out2, options);
  EXPECT_EQ(read_file(out1), read_file(out2));
  std::remove(in.c_str());
  std::remove(out1.c_str());
  std::remove(out2.c_str());
}

TEST(ImportHybridSim, PaddedThreadCountFollowsClusterContract) {
  EXPECT_EQ(trace::padded_thread_count(1), 2u);
  EXPECT_EQ(trace::padded_thread_count(2), 2u);
  EXPECT_EQ(trace::padded_thread_count(3), 4u);
  EXPECT_EQ(trace::padded_thread_count(9), 16u);
  EXPECT_EQ(trace::padded_thread_count(32), 32u);
  try {
    trace::padded_thread_count(33);
    FAIL() << "expected ImportError";
  } catch (const trace::ImportError& e) {
    EXPECT_EQ(e.kind(), trace::ImportErrorKind::kLimit);
  }
}

// ---- Replay determinism --------------------------------------------------

TEST(ImportReplay, ImportedTraceReplaysBitIdentically) {
  const std::string in = write_text("replay.hst", kMini);
  const std::string out = test::scratch_path("replay.rspt");
  trace::import_trace("hybridsim", in, out);

  // Two independent loads + replays of the same file must agree bit for
  // bit, on a plain governor and on the consolidation governor.
  for (const char* config : {"SH-STT", "SH-STT-CC"}) {
    const core::ConfigId id = core::parse_config_id(config);
    const trace::TraceData first = trace::load_trace(out);
    const trace::TraceData second = trace::load_trace(out);
    const core::SimResult a = trace::replay_trace(id, first, {});
    const core::SimResult b = trace::replay_trace(id, second, {});
    core::expect_same_result(a, b);
    EXPECT_GT(a.instructions, 0u);
    EXPECT_FALSE(a.hit_cycle_limit);
  }
  std::remove(in.c_str());
  std::remove(out.c_str());
}

// ---- Malformed input taxonomy --------------------------------------------

TEST(ImportErrors, TruncatedLineIsSyntax) {
  EXPECT_EQ(import_error_kind("trunc.hst", "0 100 0x1000\n"),
            trace::ImportErrorKind::kSyntax);
}

TEST(ImportErrors, ExtraFieldIsSyntax) {
  EXPECT_EQ(import_error_kind("extra.hst", "0 100 0x1000 R 7\n"),
            trace::ImportErrorKind::kSyntax);
}

TEST(ImportErrors, NonNumericFieldsAreSyntax) {
  EXPECT_EQ(import_error_kind("nan_core.hst", "zero 100 0x1000 R\n"),
            trace::ImportErrorKind::kSyntax);
  EXPECT_EQ(import_error_kind("nan_ts.hst", "0 10s0 0x1000 R\n"),
            trace::ImportErrorKind::kSyntax);
  EXPECT_EQ(import_error_kind("nan_addr.hst", "0 100 0xZZ R\n"),
            trace::ImportErrorKind::kSyntax);
  EXPECT_EQ(import_error_kind("neg.hst", "0 -100 0x1000 R\n"),
            trace::ImportErrorKind::kSyntax);
  EXPECT_EQ(import_error_kind("overflow.hst",
                              "0 99999999999999999999999 0x1000 R\n"),
            trace::ImportErrorKind::kSyntax);
}

TEST(ImportErrors, UnknownOperationIsSyntax) {
  EXPECT_EQ(import_error_kind("badop.hst", "0 100 0x1000 X\n"),
            trace::ImportErrorKind::kSyntax);
}

TEST(ImportErrors, OutOfRangeCoreIdIsTyped) {
  EXPECT_EQ(import_error_kind("core99.hst", "99 100 0x1000 R\n"),
            trace::ImportErrorKind::kBadCoreId);
}

TEST(ImportErrors, BackwardsTimestampIsInterleavingViolation) {
  const std::string bad =
      "0 200 0x1000 R\n"
      "1 100 0x2000 R\n"  // Fine: cross-core order is free.
      "0 100 0x3000 R\n";  // Core 0 went backwards.
  try {
    const std::string in = write_text("order.hst", bad);
    const std::string out = test::scratch_path("order.rspt");
    trace::import_trace("hybridsim", in, out);
    FAIL() << "expected ImportError";
  } catch (const trace::ImportError& e) {
    EXPECT_EQ(e.kind(), trace::ImportErrorKind::kBadOrder);
    EXPECT_EQ(e.line(), 3u);  // 1-based line numbers in every message.
  }
}

TEST(ImportErrors, EmptyInputIsTyped) {
  EXPECT_EQ(import_error_kind("empty.hst", ""),
            trace::ImportErrorKind::kEmpty);
  EXPECT_EQ(import_error_kind("comments.hst", "# nothing here\n\n"),
            trace::ImportErrorKind::kEmpty);
}

TEST(ImportErrors, MissingFileIsIo) {
  try {
    trace::import_trace("hybridsim", test::scratch_path("does_not_exist.hst"),
                        test::scratch_path("x.rspt"));
    FAIL() << "expected ImportError";
  } catch (const trace::ImportError& e) {
    EXPECT_EQ(e.kind(), trace::ImportErrorKind::kIo);
  }
}

TEST(ImportErrors, UnknownFormatListsRegisteredNames) {
  try {
    trace::import_trace("nosuch", "in", "out");
    FAIL() << "expected ImportError";
  } catch (const trace::ImportError& e) {
    EXPECT_EQ(e.kind(), trace::ImportErrorKind::kUnknownFormat);
    EXPECT_NE(std::string(e.what()).find("hybridsim"), std::string::npos);
  }
}

TEST(ImportErrors, CoreCountBeyondLargestClusterIsLimit) {
  trace::ImportOptions options;
  options.max_cores = 64;  // Let the parser accept the id; padding rejects.
  EXPECT_EQ(import_error_kind("wide.hst", "40 100 0x1000 R\n", options),
            trace::ImportErrorKind::kLimit);
}

}  // namespace
}  // namespace respin
