#include "trace/fit/fit.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/require.hpp"

namespace respin::trace::fit {

namespace obsj = obs::json;
using workload::kColdDistance;
using workload::kReuseBuckets;
using workload::ProfilePhase;
using workload::WorkloadProfile;

namespace {

/// Fenwick tree over memory-access indices, for the exact stack-distance
/// algorithm: a set bit at position i means "the line last accessed at i
/// has not been touched since", so a prefix-sum difference counts the
/// distinct lines accessed between two positions.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t i, std::int32_t delta) {
    for (; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }

  std::int64_t prefix(std::size_t i) const {
    std::int64_t sum = 0;
    for (; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

 private:
  std::vector<std::int32_t> tree_;
};

constexpr std::uint32_t kSharedOwner = 0xFFFF'FFFFu;
constexpr mem::Addr kLineShift = 6;  // 64-byte lines.

/// Per-window accumulator, summed across threads.
struct WindowAccum {
  std::uint64_t instructions = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t stores = 0;
  std::uint64_t shared = 0;
  double ipc_weight = 0.0;             ///< sum(count * ipc) over compute.
  std::uint64_t compute_instr = 0;
};

double clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

WorkloadProfile fit_trace(const TraceData& data, const FitOptions& options) {
  RESPIN_REQUIRE(options.windows >= 1, "fit needs at least one window");

  // Pass 1: classify every line as thread-private or shared (touched by
  // two or more threads) — the sharing fraction needs the final verdict
  // before accesses are counted.
  std::unordered_map<mem::Addr, std::uint32_t> line_owner;
  for (std::uint32_t t = 0; t < data.threads.size(); ++t) {
    for (const workload::Op& op : data.threads[t].ops) {
      if (op.kind != workload::OpKind::kLoad &&
          op.kind != workload::OpKind::kStore) {
        continue;
      }
      const mem::Addr line = op.addr >> kLineShift;
      auto [it, inserted] = line_owner.emplace(line, t);
      if (!inserted && it->second != t) it->second = kSharedOwner;
    }
  }
  std::uint64_t shared_lines = 0;
  for (const auto& [line, owner] : line_owner) {
    if (owner == kSharedOwner) ++shared_lines;
  }

  // Pass 2: per-thread mix, exact reuse distances, windowed phases.
  WorkloadProfile profile;
  profile.name = data.header.benchmark.empty() ? "profile"
                                               : data.header.benchmark;
  profile.thread_count = data.header.thread_count;
  profile.shared_pool_lines = shared_lines;
  profile.reuse_hist.assign(kReuseBuckets, 0);

  std::vector<WindowAccum> windows(options.windows);
  std::uint64_t total_instructions = 0;
  std::uint64_t total_shared_accesses = 0;
  std::uint64_t total_barriers = 0;
  double total_ipc_weight = 0.0;
  std::uint64_t total_compute_instr = 0;
  std::uint32_t active_threads = 0;

  for (const ThreadTrace& thread : data.threads) {
    if (thread.ops.empty()) continue;
    ++active_threads;

    std::uint64_t thread_instructions = 0;
    std::uint64_t mem_count = 0;
    for (const workload::Op& op : thread.ops) {
      thread_instructions += op.count;
      if (op.kind == workload::OpKind::kLoad ||
          op.kind == workload::OpKind::kStore) {
        ++mem_count;
      }
    }
    if (thread_instructions == 0) continue;

    Fenwick fenwick(mem_count);
    std::unordered_map<mem::Addr, std::size_t> last_access;
    last_access.reserve(line_owner.size() / data.threads.size() + 16);

    std::uint64_t instr_cursor = 0;
    std::size_t access_index = 0;
    for (const workload::Op& op : thread.ops) {
      const std::size_t window = static_cast<std::size_t>(
          std::min<std::uint64_t>(options.windows - 1,
                                  instr_cursor * options.windows /
                                      thread_instructions));
      WindowAccum& w = windows[window];
      instr_cursor += op.count;
      w.instructions += op.count;

      switch (op.kind) {
        case workload::OpKind::kCompute:
          w.ipc_weight += static_cast<double>(op.count) * op.ipc;
          w.compute_instr += op.count;
          total_ipc_weight += static_cast<double>(op.count) * op.ipc;
          total_compute_instr += op.count;
          break;
        case workload::OpKind::kBarrier:
          ++total_barriers;
          break;
        case workload::OpKind::kLoad:
        case workload::OpKind::kStore: {
          ++w.mem_ops;
          ++profile.mem_ops;
          if (op.kind == workload::OpKind::kStore) {
            ++w.stores;
            ++profile.stores;
          } else {
            ++profile.loads;
          }
          const mem::Addr line = op.addr >> kLineShift;
          if (line_owner[line] == kSharedOwner) {
            ++w.shared;
            ++total_shared_accesses;
          }
          // Exact LRU stack distance: distinct lines touched strictly
          // between this access and the line's previous one.
          ++access_index;
          std::uint64_t distance = kColdDistance;
          const auto it = last_access.find(line);
          if (it != last_access.end()) {
            distance = static_cast<std::uint64_t>(
                fenwick.prefix(access_index - 1) - fenwick.prefix(it->second));
            fenwick.add(it->second, -1);
          }
          fenwick.add(access_index, +1);
          last_access[line] = access_index;
          ++profile.reuse_hist[workload::reuse_bucket(distance)];
          break;
        }
        case workload::OpKind::kFinished:
          break;
      }
    }
    total_instructions += thread_instructions;
  }

  if (profile.mem_ops == 0) {
    throw TraceError(TraceErrorKind::kMismatch,
                     "trace holds no memory accesses; nothing to fit");
  }
  RESPIN_REQUIRE(active_threads > 0, "trace has no active threads");

  profile.instructions = total_instructions / active_threads;
  profile.barriers = total_barriers / active_threads;
  profile.mem_fraction =
      static_cast<double>(profile.mem_ops) /
      static_cast<double>(total_instructions);
  profile.store_fraction = static_cast<double>(profile.stores) /
                           static_cast<double>(profile.mem_ops);
  profile.shared_fraction = static_cast<double>(total_shared_accesses) /
                            static_cast<double>(profile.mem_ops);
  profile.avg_ipc =
      total_compute_instr > 0
          ? clamp(total_ipc_weight / static_cast<double>(total_compute_instr),
                  0.05, 2.0)
          : 1.0;

  for (const WindowAccum& w : windows) {
    if (w.instructions == 0) continue;  // Short streams fill fewer windows.
    ProfilePhase phase;
    phase.instructions = std::max<std::uint64_t>(1u, w.instructions /
                                                         active_threads);
    phase.mem_fraction =
        clamp(static_cast<double>(w.mem_ops) /
                  static_cast<double>(w.instructions),
              0.0, 1.0);
    phase.store_fraction =
        w.mem_ops > 0 ? static_cast<double>(w.stores) /
                            static_cast<double>(w.mem_ops)
                      : 0.0;
    phase.shared_fraction =
        w.mem_ops > 0 ? static_cast<double>(w.shared) /
                            static_cast<double>(w.mem_ops)
                      : 0.0;
    phase.ipc = w.compute_instr > 0
                    ? clamp(w.ipc_weight /
                                static_cast<double>(w.compute_instr),
                            0.05, 2.0)
                    : profile.avg_ipc;
    profile.phases.push_back(phase);
  }
  RESPIN_REQUIRE(!profile.phases.empty(), "fit produced no phases");
  return profile;
}

// ---- JSON serde ----------------------------------------------------------

obsj::Value profile_to_json(const WorkloadProfile& profile) {
  // Field order is fixed (append-only) so the dumped form is byte-stable
  // and usable inside canonical request keys.
  obsj::Value v = obsj::Value::object();
  v.set("v", obsj::Value::number(std::uint64_t{1}));
  v.set("name", obsj::Value::str(profile.name));
  v.set("thread_count", obsj::Value::number(profile.thread_count));
  v.set("shared_pool_lines", obsj::Value::number(profile.shared_pool_lines));
  v.set("instructions", obsj::Value::number(profile.instructions));
  v.set("mem_ops", obsj::Value::number(profile.mem_ops));
  v.set("loads", obsj::Value::number(profile.loads));
  v.set("stores", obsj::Value::number(profile.stores));
  v.set("barriers", obsj::Value::number(profile.barriers));
  v.set("mem_fraction", obsj::Value::number(profile.mem_fraction));
  v.set("store_fraction", obsj::Value::number(profile.store_fraction));
  v.set("shared_fraction", obsj::Value::number(profile.shared_fraction));
  v.set("avg_ipc", obsj::Value::number(profile.avg_ipc));
  obsj::Array hist;
  hist.reserve(profile.reuse_hist.size());
  for (const std::uint64_t bucket : profile.reuse_hist) {
    hist.push_back(obsj::Value::number(bucket));
  }
  v.set("reuse_hist", obsj::Value::array(std::move(hist)));
  obsj::Array phases;
  phases.reserve(profile.phases.size());
  for (const ProfilePhase& p : profile.phases) {
    obsj::Value phase = obsj::Value::object();
    phase.set("instructions", obsj::Value::number(p.instructions));
    phase.set("ipc", obsj::Value::number(p.ipc));
    phase.set("mem_fraction", obsj::Value::number(p.mem_fraction));
    phase.set("store_fraction", obsj::Value::number(p.store_fraction));
    phase.set("shared_fraction", obsj::Value::number(p.shared_fraction));
    phases.push_back(std::move(phase));
  }
  v.set("phases", obsj::Value::array(std::move(phases)));
  return v;
}

namespace {

const obsj::Value& require_field(const obsj::Value& object, const char* key) {
  const obsj::Value* v = object.find(key);
  if (v == nullptr) {
    throw obsj::Error(std::string("profile is missing field '") + key + "'",
                      0);
  }
  return *v;
}

}  // namespace

WorkloadProfile profile_from_json(const obsj::Value& value) {
  const std::uint64_t version = require_field(value, "v").as_u64();
  if (version != 1) {
    throw obsj::Error("unsupported profile version " +
                          std::to_string(version),
                      0);
  }
  WorkloadProfile profile;
  profile.name = require_field(value, "name").as_string();
  profile.thread_count = static_cast<std::uint32_t>(
      require_field(value, "thread_count").as_u64());
  profile.shared_pool_lines =
      require_field(value, "shared_pool_lines").as_u64();
  profile.instructions = require_field(value, "instructions").as_u64();
  profile.mem_ops = require_field(value, "mem_ops").as_u64();
  profile.loads = require_field(value, "loads").as_u64();
  profile.stores = require_field(value, "stores").as_u64();
  profile.barriers = require_field(value, "barriers").as_u64();
  profile.mem_fraction = require_field(value, "mem_fraction").as_double();
  profile.store_fraction = require_field(value, "store_fraction").as_double();
  profile.shared_fraction =
      require_field(value, "shared_fraction").as_double();
  profile.avg_ipc = require_field(value, "avg_ipc").as_double();
  profile.reuse_hist.clear();
  for (const obsj::Value& bucket :
       require_field(value, "reuse_hist").as_array()) {
    profile.reuse_hist.push_back(bucket.as_u64());
  }
  profile.phases.clear();
  for (const obsj::Value& entry : require_field(value, "phases").as_array()) {
    ProfilePhase phase;
    phase.instructions = require_field(entry, "instructions").as_u64();
    phase.ipc = require_field(entry, "ipc").as_double();
    phase.mem_fraction = require_field(entry, "mem_fraction").as_double();
    phase.store_fraction = require_field(entry, "store_fraction").as_double();
    phase.shared_fraction =
        require_field(entry, "shared_fraction").as_double();
    profile.phases.push_back(phase);
  }
  workload::validate(profile);
  return profile;
}

void save_profile(const WorkloadProfile& profile, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) {
    throw TraceError(TraceErrorKind::kIo,
                     "cannot open " + path + " for writing");
  }
  os << profile_to_json(profile).dump() << "\n";
  if (!os.good()) {
    throw TraceError(TraceErrorKind::kIo, "write failure on " + path);
  }
}

WorkloadProfile load_profile(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    throw TraceError(TraceErrorKind::kIo, "cannot open " + path);
  }
  std::ostringstream text;
  text << is.rdbuf();
  if (is.bad()) {
    throw TraceError(TraceErrorKind::kIo, "read failure on " + path);
  }
  return profile_from_json(obsj::parse(text.str()));
}

// ---- Synthesis drivers ---------------------------------------------------

RecordStats synthesize_trace(const WorkloadProfile& profile,
                             std::uint32_t thread_count, double scale,
                             std::uint64_t seed, const std::string& path) {
  workload::validate(profile);
  RESPIN_REQUIRE(thread_count >= 1, "need at least one thread");
  auto shared = std::make_shared<const WorkloadProfile>(profile);

  TraceHeader header;
  header.thread_count = thread_count;
  header.seed = seed;
  header.scale = scale;
  header.benchmark = profile.name;
  TraceWriter writer(path, header);

  RecordStats stats;
  for (std::uint32_t t = 0; t < thread_count; ++t) {
    workload::SynthFromProfile source(shared, t, thread_count, scale, seed);
    record_thread(source, t, writer, stats);
  }
  writer.finish();
  return stats;
}

core::SimResult run_profile(
    core::ConfigId id,
    std::shared_ptr<const WorkloadProfile> profile,
    const core::RunOptions& options) {
  RESPIN_REQUIRE(profile != nullptr, "run_profile needs a profile");
  return core::simulate(
      id, profile->name,
      workload::synth_factory(profile, options.workload_scale, options.seed),
      options);
}

}  // namespace respin::trace::fit
