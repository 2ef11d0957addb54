// Trace capture: a transparent recording hook over any op source, plus
// the standalone benchmark recorder behind `respin_trace record`.
//
// The synthetic generator is a pure function of (benchmark, thread_id,
// thread_count, scale, seed) and independent of the architecture
// configuration, so record_benchmark drains each thread's stream directly
// — no simulator in the loop — and the resulting trace replays
// bit-identically through EVERY Table IV configuration (the simulator
// consumes each thread's ops strictly in order; only the timing differs).
//
// Instruction-fetch addresses come from their own generator stream. How
// many the simulator requests depends on the core's fetch-group size
// (instructions_per_fetch), so the recorder captures the stream to a
// budget that covers any fetch group of kMinInstructionsPerFetch or more;
// replay raises TraceError(kMismatch) if a configuration ever outruns it.
#pragma once

#include <cstdint>
#include <string>

#include "trace/writer.hpp"
#include "workload/op_source.hpp"

namespace respin::trace {

/// Smallest fetch group the recorded ifetch budget covers (the paper's
/// cores fetch every 8 instructions; 4 leaves 2x headroom).
inline constexpr std::uint32_t kMinInstructionsPerFetch = 4;

/// Ifetch addresses recorded for a thread that commits `instructions`:
/// one per kMinInstructionsPerFetch, plus slack for the partial fetch
/// groups around scheduling boundaries.
inline std::uint64_t ifetch_budget(std::uint64_t instructions) {
  return instructions / kMinInstructionsPerFetch + 16;
}

/// Transparent tee: forwards an inner stream while recording everything
/// it emits. clone() intentionally drops the recording side — ClusterSim
/// snapshots (oracle trial epochs) would otherwise re-record every op
/// they consume and corrupt the trace; only the primary stream records.
class RecordingOpSource final : public workload::OpSource {
 public:
  RecordingOpSource(workload::OpStream inner, TraceWriter* writer,
                    std::uint32_t thread)
      : inner_(std::move(inner)), writer_(writer), thread_(thread) {}

  workload::Op next() override {
    const workload::Op op = inner_.next();
    writer_->add_op(thread_, op);
    return op;
  }

  mem::Addr next_ifetch_addr() override {
    const mem::Addr addr = inner_.next_ifetch_addr();
    writer_->add_ifetch(thread_, addr);
    return addr;
  }

  std::unique_ptr<workload::OpSource> clone() const override {
    return inner_.source()->clone();
  }

 private:
  workload::OpStream inner_;
  TraceWriter* writer_;  ///< Non-owning; must outlive the source.
  std::uint32_t thread_;
};

/// Wraps `inner` so every stream it builds records into `writer`.
workload::OpSourceFactory recording_factory(workload::OpSourceFactory inner,
                                            TraceWriter* writer);

struct RecordStats {
  std::uint64_t ops = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t instructions = 0;
};

/// Records thread `thread` into `writer`: drains `source` to exhaustion,
/// then its first ifetch_budget() fetch addresses. Adds to `stats`.
void record_thread(workload::OpSource& source, std::uint32_t thread,
                   TraceWriter& writer, RecordStats& stats);

/// Records benchmark (spec, threads, scale, seed) to a trace file at
/// `path` by draining every thread's synthetic stream with record_thread.
/// Throws TraceError on I/O failure.
RecordStats record_benchmark(const workload::WorkloadSpec& spec,
                             std::uint32_t threads, double scale,
                             std::uint64_t seed, const std::string& path);

}  // namespace respin::trace
