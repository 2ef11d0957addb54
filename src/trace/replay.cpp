#include "trace/replay.hpp"

#include <sstream>

#include "trace/capture.hpp"
#include "trace/fit/fit.hpp"

namespace respin::trace {

TraceOpSource::TraceOpSource(std::shared_ptr<const TraceData> data,
                             std::uint32_t thread)
    : data_(std::move(data)), thread_(thread) {
  if (data_ == nullptr || thread_ >= data_->threads.size()) {
    throw TraceError(TraceErrorKind::kMismatch,
                     "trace has no thread " + std::to_string(thread));
  }
}

workload::Op TraceOpSource::next() {
  const ThreadTrace& t = data_->threads[thread_];
  if (op_pos_ >= t.ops.size()) return workload::Op{};  // kFinished forever.
  return t.ops[op_pos_++];
}

mem::Addr TraceOpSource::next_ifetch_addr() {
  const ThreadTrace& t = data_->threads[thread_];
  if (ifetch_pos_ >= t.ifetch.size()) {
    throw TraceError(
        TraceErrorKind::kMismatch,
        "ifetch stream exhausted on thread " + std::to_string(thread_) +
            " after " + std::to_string(t.ifetch.size()) +
            " fetches — the core configuration fetches more often than the "
            "recorded budget (instructions_per_fetch < " +
            std::to_string(kMinInstructionsPerFetch) + "?)");
  }
  return t.ifetch[ifetch_pos_++];
}

workload::OpSourceFactory trace_factory(
    std::shared_ptr<const TraceData> data) {
  if (data == nullptr) {
    throw TraceError(TraceErrorKind::kMismatch, "null trace data");
  }
  return [data](std::uint32_t thread_id, std::uint32_t thread_count) {
    if (thread_count != data->header.thread_count) {
      throw TraceError(TraceErrorKind::kMismatch,
                       "trace recorded " +
                           std::to_string(data->header.thread_count) +
                           " threads, configuration wants " +
                           std::to_string(thread_count));
    }
    return workload::OpStream(
        std::make_unique<TraceOpSource>(data, thread_id));
  };
}

namespace {

/// `options` with the trace header's thread count, scale and seed, which
/// replay_trace and live_run_for both take from the recording.
core::RunOptions recorded_options(const TraceData& data,
                                  core::RunOptions options) {
  options.cluster_cores = data.header.thread_count;
  options.workload_scale = data.header.scale;
  options.seed = data.header.seed;
  return options;
}

}  // namespace

core::SimResult replay_trace(core::ConfigId id, const TraceData& data,
                             const core::RunOptions& options) {
  if (options.faults.enabled || options.tech.any()) {
    throw TraceError(TraceErrorKind::kMismatch,
                     "trace replay reuses the recorded configuration and "
                     "takes no fault plan or tech override; fit the trace "
                     "and run the profile instead");
  }
  // Borrow `data` through an owner-less aliasing handle instead of copying
  // it: concurrent replays of one loaded trace then share a single decoded
  // copy. This is safe because the simulator and every oracle snapshot
  // cloned from it (the only holders of the handle) are destroyed before
  // core::simulate returns; SimResult keeps no reference into the trace.
  const std::shared_ptr<const TraceData> borrowed(
      std::shared_ptr<const TraceData>(), &data);
  return core::simulate(id, data.header.benchmark, trace_factory(borrowed),
                        recorded_options(data, options));
}

core::SimResult live_run_for(core::ConfigId id, const TraceData& data,
                             const core::RunOptions& options) {
  return core::run_experiment(id, data.header.benchmark,
                              recorded_options(data, options));
}

core::SimResult run_request(const core::RequestSpec& spec) {
  if (!spec.trace_file.empty()) {
    return replay_trace(spec.config, load_trace(spec.trace_file),
                        spec.options);
  }
  if (!spec.profile_file.empty()) {
    return fit::run_profile(spec.config,
                            std::make_shared<const workload::WorkloadProfile>(
                                fit::load_profile(spec.profile_file)),
                            spec.options);
  }
  return core::run_experiment(spec.config, spec.benchmark, spec.options);
}

namespace {

class ResultDiffer {
 public:
  template <typename T>
  void field(const char* name, const T& a, const T& b) {
    if (a != b) {
      os_ << "  " << name << ": " << a << " != " << b << "\n";
      ++count_;
    }
  }

  void histogram(const char* name, const util::Histogram& a,
                 const util::Histogram& b) {
    field((std::string(name) + ".buckets").c_str(), a.bucket_count(),
          b.bucket_count());
    if (a.bucket_count() != b.bucket_count()) return;
    field((std::string(name) + ".total").c_str(), a.total(), b.total());
    for (std::size_t i = 0; i < a.bucket_count(); ++i) {
      field((std::string(name) + ".bucket" + std::to_string(i)).c_str(),
            a.bucket(i), b.bucket(i));
    }
  }

  std::string str() const { return count_ == 0 ? "" : os_.str(); }

 private:
  std::ostringstream os_;
  std::size_t count_ = 0;
};

}  // namespace

std::string diff_results(const core::SimResult& a, const core::SimResult& b) {
  ResultDiffer d;
  d.field("config_name", a.config_name, b.config_name);
  d.field("benchmark", a.benchmark, b.benchmark);
  d.field("cycles", a.cycles, b.cycles);
  d.field("seconds", a.seconds, b.seconds);  // Bit-identical, not approx.
  d.field("instructions", a.instructions, b.instructions);
  d.field("hit_cycle_limit", a.hit_cycle_limit, b.hit_cycle_limit);

  d.field("counts.instructions", a.counts.instructions,
          b.counts.instructions);
  d.field("counts.core_busy_cycles", a.counts.core_busy_cycles,
          b.counts.core_busy_cycles);
  d.field("counts.core_idle_cycles", a.counts.core_idle_cycles,
          b.counts.core_idle_cycles);
  d.field("counts.l1_reads", a.counts.l1_reads, b.counts.l1_reads);
  d.field("counts.l1_writes", a.counts.l1_writes, b.counts.l1_writes);
  d.field("counts.l2_reads", a.counts.l2_reads, b.counts.l2_reads);
  d.field("counts.l2_writes", a.counts.l2_writes, b.counts.l2_writes);
  d.field("counts.l3_reads", a.counts.l3_reads, b.counts.l3_reads);
  d.field("counts.l3_writes", a.counts.l3_writes, b.counts.l3_writes);
  d.field("counts.dram_accesses", a.counts.dram_accesses,
          b.counts.dram_accesses);
  d.field("counts.coherence_messages", a.counts.coherence_messages,
          b.counts.coherence_messages);
  d.field("counts.level_shifter_crossings",
          a.counts.level_shifter_crossings,
          b.counts.level_shifter_crossings);
  d.field("counts.core_on_ps", a.counts.core_on_ps, b.counts.core_on_ps);

  d.field("energy.core_dynamic", a.energy.core_dynamic,
          b.energy.core_dynamic);
  d.field("energy.core_leakage", a.energy.core_leakage,
          b.energy.core_leakage);
  d.field("energy.cache_dynamic", a.energy.cache_dynamic,
          b.energy.cache_dynamic);
  d.field("energy.cache_leakage", a.energy.cache_leakage,
          b.energy.cache_leakage);
  d.field("energy.dram", a.energy.dram, b.energy.dram);
  d.field("energy.network", a.energy.network, b.energy.network);

  d.histogram("read_hit_latency", a.read_hit_latency, b.read_hit_latency);
  d.field("dl1_read_hits", a.dl1_read_hits, b.dl1_read_hits);
  d.field("dl1_read_misses", a.dl1_read_misses, b.dl1_read_misses);
  d.field("dl1_half_misses", a.dl1_half_misses, b.dl1_half_misses);
  d.field("dl1_store_rejections", a.dl1_store_rejections,
          b.dl1_store_rejections);
  d.histogram("dl1_arrivals", a.dl1_arrivals, b.dl1_arrivals);
  d.field("dl1_cycles", a.dl1_cycles, b.dl1_cycles);

  d.field("trace.size", a.trace.size(), b.trace.size());
  if (a.trace.size() == b.trace.size()) {
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      const std::string prefix = "trace[" + std::to_string(i) + "].";
      d.field((prefix + "cycle").c_str(), a.trace[i].cycle, b.trace[i].cycle);
      d.field((prefix + "active_cores").c_str(), a.trace[i].active_cores,
              b.trace[i].active_cores);
      d.field((prefix + "epi_pj").c_str(), a.trace[i].epi_pj,
              b.trace[i].epi_pj);
    }
  }
  d.field("avg_active_cores", a.avg_active_cores, b.avg_active_cores);
  d.field("min_active_cores", a.min_active_cores, b.min_active_cores);
  d.field("max_active_cores", a.max_active_cores, b.max_active_cores);
  return d.str();
}

}  // namespace respin::trace
