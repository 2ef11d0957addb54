#include "trace/capture.hpp"

#include "util/require.hpp"

namespace respin::trace {

workload::OpSourceFactory recording_factory(workload::OpSourceFactory inner,
                                            TraceWriter* writer) {
  RESPIN_REQUIRE(writer != nullptr, "recording_factory needs a writer");
  return [inner = std::move(inner), writer](std::uint32_t thread_id,
                                            std::uint32_t thread_count) {
    return workload::OpStream(std::make_unique<RecordingOpSource>(
        inner(thread_id, thread_count), writer, thread_id));
  };
}

void record_thread(workload::OpSource& source, std::uint32_t thread,
                   TraceWriter& writer, RecordStats& stats) {
  std::uint64_t instructions = 0;
  for (;;) {
    const workload::Op op = source.next();
    if (op.kind == workload::OpKind::kFinished) break;
    writer.add_op(thread, op);
    instructions += op.count;
    ++stats.ops;
  }
  stats.instructions += instructions;
  const std::uint64_t budget = ifetch_budget(instructions);
  for (std::uint64_t i = 0; i < budget; ++i) {
    writer.add_ifetch(thread, source.next_ifetch_addr());
  }
  stats.ifetches += budget;
}

RecordStats record_benchmark(const workload::WorkloadSpec& spec,
                             std::uint32_t threads, double scale,
                             std::uint64_t seed, const std::string& path) {
  RESPIN_REQUIRE(threads >= 1, "need at least one thread");
  TraceHeader header;
  header.thread_count = threads;
  header.seed = seed;
  header.scale = scale;
  header.benchmark = spec.name;
  TraceWriter writer(path, header);

  RecordStats stats;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workload::SyntheticOpSource source(
        workload::ThreadWorkload(spec, t, threads, scale, seed));
    record_thread(source, t, writer, stats);
  }
  writer.finish();
  return stats;
}

}  // namespace respin::trace
