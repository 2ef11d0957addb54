#include "core/serde.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace respin::core {

namespace obsj = obs::json;

namespace {

// ---- field helpers -------------------------------------------------------

const obsj::Value& require_field(const obsj::Value& object, const char* key) {
  const obsj::Value* v = object.find(key);
  if (v == nullptr) {
    throw obsj::Error(std::string("missing field '") + key + "'", 0);
  }
  return *v;
}

double f64_field(const obsj::Value& object, const char* key) {
  return require_field(object, key).as_double();
}

std::uint64_t u64_field(const obsj::Value& object, const char* key) {
  return require_field(object, key).as_u64();
}

std::int64_t i64_field(const obsj::Value& object, const char* key) {
  return require_field(object, key).as_i64();
}

std::uint32_t u32_field(const obsj::Value& object, const char* key) {
  const std::uint64_t v = u64_field(object, key);
  if (v > 0xFFFFFFFFull) {
    throw obsj::Error(std::string("field '") + key + "' exceeds uint32", 0);
  }
  return static_cast<std::uint32_t>(v);
}

// ---- histograms ----------------------------------------------------------

obsj::Value histogram_to_json(const util::Histogram& h) {
  obsj::Array buckets;
  buckets.reserve(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    buckets.push_back(obsj::Value::number(h.bucket(i)));
  }
  return obsj::Value::array(std::move(buckets));
}

util::Histogram histogram_from_json(const obsj::Value& value,
                                    std::size_t expected_buckets) {
  const obsj::Array& buckets = value.as_array();
  if (buckets.size() != expected_buckets) {
    throw obsj::Error("histogram bucket count mismatch", 0);
  }
  util::Histogram h(expected_buckets);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t weight = buckets[i].as_u64();
    // add() maps index -> bucket exactly for every i < bucket_count, so
    // replaying (index, weight) reconstructs buckets and total verbatim.
    if (weight > 0) h.add(i, weight);
  }
  return h;
}

// ---- fault plan / tech override ------------------------------------------

obsj::Value fault_plan_to_json(const fault::FaultPlan& plan) {
  obsj::Value v = obsj::Value::object();
  v.set("seed", obsj::Value::number(plan.seed));
  obsj::Value sram = obsj::Value::object();
  sram.set("vccmin_mean", obsj::Value::number(plan.sram.vccmin_mean));
  sram.set("vccmin_sigma", obsj::Value::number(plan.sram.vccmin_sigma));
  sram.set("vth_coupling", obsj::Value::number(plan.sram.vth_coupling));
  sram.set("vdd_override", obsj::Value::number(plan.sram.vdd_override));
  v.set("sram", std::move(sram));
  obsj::Value stt = obsj::Value::object();
  stt.set("write_fail_prob", obsj::Value::number(plan.stt.write_fail_prob));
  stt.set("max_write_retries", obsj::Value::number(plan.stt.max_write_retries));
  stt.set("retry_cycles", obsj::Value::number(plan.stt.retry_cycles));
  v.set("stt", std::move(stt));
  obsj::Value ecc = obsj::Value::object();
  ecc.set("word_bits", obsj::Value::number(plan.ecc.word_bits));
  ecc.set("correction_cycles", obsj::Value::number(plan.ecc.correction_cycles));
  v.set("ecc", std::move(ecc));
  return v;
}

fault::FaultPlan fault_plan_from_json(const obsj::Value& value) {
  fault::FaultPlan plan;
  plan.enabled = true;
  if (const obsj::Value* seed = value.find("seed")) plan.seed = seed->as_u64();
  if (const obsj::Value* sram = value.find("sram")) {
    if (const auto* f = sram->find("vccmin_mean"))
      plan.sram.vccmin_mean = f->as_double();
    if (const auto* f = sram->find("vccmin_sigma"))
      plan.sram.vccmin_sigma = f->as_double();
    if (const auto* f = sram->find("vth_coupling"))
      plan.sram.vth_coupling = f->as_double();
    if (const auto* f = sram->find("vdd_override"))
      plan.sram.vdd_override = f->as_double();
  }
  if (const obsj::Value* stt = value.find("stt")) {
    if (const auto* f = stt->find("write_fail_prob"))
      plan.stt.write_fail_prob = f->as_double();
    if (const auto* f = stt->find("max_write_retries"))
      plan.stt.max_write_retries = static_cast<std::uint32_t>(f->as_u64());
    if (const auto* f = stt->find("retry_cycles"))
      plan.stt.retry_cycles = static_cast<std::uint32_t>(f->as_u64());
  }
  if (const obsj::Value* ecc = value.find("ecc")) {
    if (const auto* f = ecc->find("word_bits"))
      plan.ecc.word_bits = static_cast<std::uint32_t>(f->as_u64());
    if (const auto* f = ecc->find("correction_cycles"))
      plan.ecc.correction_cycles = static_cast<std::uint32_t>(f->as_u64());
  }
  return plan;
}

obsj::Value tech_override_to_json(const TechOverride& tech) {
  obsj::Value v = obsj::Value::object();
  if (tech.shared_tech) {
    v.set("shared_tech", obsj::Value::str(nvsim::to_string(*tech.shared_tech)));
  }
  if (tech.private_tech) {
    v.set("private_tech",
          obsj::Value::str(nvsim::to_string(*tech.private_tech)));
  }
  if (tech.hybrid_sram_ways != 0 || tech.hybrid_nvm_ways != 0) {
    v.set("hybrid_sram_ways", obsj::Value::number(tech.hybrid_sram_ways));
    v.set("hybrid_nvm_ways", obsj::Value::number(tech.hybrid_nvm_ways));
  }
  return v;
}

TechOverride tech_override_from_json(const obsj::Value& value) {
  TechOverride tech;
  if (const obsj::Value* t = value.find("shared_tech")) {
    tech.shared_tech = nvsim::parse_mem_tech(t->as_string());
  }
  if (const obsj::Value* t = value.find("private_tech")) {
    tech.private_tech = nvsim::parse_mem_tech(t->as_string());
  }
  if (const obsj::Value* t = value.find("hybrid_sram_ways")) {
    tech.hybrid_sram_ways = static_cast<std::uint32_t>(t->as_u64());
  }
  if (const obsj::Value* t = value.find("hybrid_nvm_ways")) {
    tech.hybrid_nvm_ways = static_cast<std::uint32_t>(t->as_u64());
  }
  return tech;
}

// ---- activity counts / energy --------------------------------------------

obsj::Value counts_to_json(const power::ActivityCounts& c) {
  obsj::Value v = obsj::Value::object();
  v.set("instructions", obsj::Value::number(c.instructions));
  v.set("core_busy_cycles", obsj::Value::number(c.core_busy_cycles));
  v.set("core_idle_cycles", obsj::Value::number(c.core_idle_cycles));
  v.set("l1_reads", obsj::Value::number(c.l1_reads));
  v.set("l1_writes", obsj::Value::number(c.l1_writes));
  v.set("l1_sram_reads", obsj::Value::number(c.l1_sram_reads));
  v.set("l1_sram_writes", obsj::Value::number(c.l1_sram_writes));
  v.set("l2_reads", obsj::Value::number(c.l2_reads));
  v.set("l2_writes", obsj::Value::number(c.l2_writes));
  v.set("l3_reads", obsj::Value::number(c.l3_reads));
  v.set("l3_writes", obsj::Value::number(c.l3_writes));
  v.set("dram_accesses", obsj::Value::number(c.dram_accesses));
  v.set("coherence_messages", obsj::Value::number(c.coherence_messages));
  v.set("level_shifter_crossings",
        obsj::Value::number(c.level_shifter_crossings));
  v.set("core_on_ps", obsj::Value::number(c.core_on_ps));
  return v;
}

power::ActivityCounts counts_from_json(const obsj::Value& v) {
  power::ActivityCounts c;
  c.instructions = u64_field(v, "instructions");
  c.core_busy_cycles = u64_field(v, "core_busy_cycles");
  c.core_idle_cycles = u64_field(v, "core_idle_cycles");
  c.l1_reads = u64_field(v, "l1_reads");
  c.l1_writes = u64_field(v, "l1_writes");
  c.l1_sram_reads = u64_field(v, "l1_sram_reads");
  c.l1_sram_writes = u64_field(v, "l1_sram_writes");
  c.l2_reads = u64_field(v, "l2_reads");
  c.l2_writes = u64_field(v, "l2_writes");
  c.l3_reads = u64_field(v, "l3_reads");
  c.l3_writes = u64_field(v, "l3_writes");
  c.dram_accesses = u64_field(v, "dram_accesses");
  c.coherence_messages = u64_field(v, "coherence_messages");
  c.level_shifter_crossings = u64_field(v, "level_shifter_crossings");
  c.core_on_ps = f64_field(v, "core_on_ps");
  return c;
}

obsj::Value energy_to_json(const power::EnergyBreakdown& e) {
  obsj::Value v = obsj::Value::object();
  v.set("core_dynamic", obsj::Value::number(e.core_dynamic));
  v.set("core_leakage", obsj::Value::number(e.core_leakage));
  v.set("cache_dynamic", obsj::Value::number(e.cache_dynamic));
  v.set("cache_leakage", obsj::Value::number(e.cache_leakage));
  v.set("dram", obsj::Value::number(e.dram));
  v.set("network", obsj::Value::number(e.network));
  return v;
}

power::EnergyBreakdown energy_from_json(const obsj::Value& v) {
  power::EnergyBreakdown e;
  e.core_dynamic = f64_field(v, "core_dynamic");
  e.core_leakage = f64_field(v, "core_leakage");
  e.cache_dynamic = f64_field(v, "cache_dynamic");
  e.cache_leakage = f64_field(v, "cache_leakage");
  e.dram = f64_field(v, "dram");
  e.network = f64_field(v, "network");
  return e;
}

obsj::Value fault_stats_to_json(const fault::FaultStats& f) {
  obsj::Value v = obsj::Value::object();
  v.set("sram_lines_mapped", obsj::Value::number(f.sram_lines_mapped));
  v.set("sram_lines_correctable",
        obsj::Value::number(f.sram_lines_correctable));
  v.set("sram_lines_disabled", obsj::Value::number(f.sram_lines_disabled));
  v.set("ecc_corrections", obsj::Value::number(f.ecc_corrections));
  v.set("stt_write_faults", obsj::Value::number(f.stt_write_faults));
  v.set("stt_write_retries", obsj::Value::number(f.stt_write_retries));
  v.set("stt_lines_disabled", obsj::Value::number(f.stt_lines_disabled));
  return v;
}

fault::FaultStats fault_stats_from_json(const obsj::Value& v) {
  fault::FaultStats f;
  f.sram_lines_mapped = u64_field(v, "sram_lines_mapped");
  f.sram_lines_correctable = u64_field(v, "sram_lines_correctable");
  f.sram_lines_disabled = u64_field(v, "sram_lines_disabled");
  f.ecc_corrections = u64_field(v, "ecc_corrections");
  f.stt_write_faults = u64_field(v, "stt_write_faults");
  f.stt_write_retries = u64_field(v, "stt_write_retries");
  f.stt_lines_disabled = u64_field(v, "stt_lines_disabled");
  return f;
}

}  // namespace

// ---- requests ------------------------------------------------------------

RequestSpec request_spec_from_json(const obsj::Value& request) {
  RequestSpec spec;
  if (const obsj::Value* v = request.find("config")) {
    spec.config = parse_config_id(v->as_string());
  }
  const obsj::Value* benchmark = request.find("benchmark");
  const obsj::Value* trace_file = request.find("trace_file");
  const obsj::Value* profile_file = request.find("profile_file");
  const int workload_refs = (benchmark != nullptr ? 1 : 0) +
                            (trace_file != nullptr ? 1 : 0) +
                            (profile_file != nullptr ? 1 : 0);
  if (workload_refs > 1) {
    throw std::logic_error(
        "request names more than one of 'benchmark', 'trace_file' and "
        "'profile_file'; pick one workload reference");
  }
  if (benchmark != nullptr) spec.benchmark = benchmark->as_string();
  if (trace_file != nullptr) spec.trace_file = trace_file->as_string();
  if (profile_file != nullptr) spec.profile_file = profile_file->as_string();
  if (const obsj::Value* v = request.find("size")) {
    spec.options.size = parse_cache_size(v->as_string());
  }
  if (const obsj::Value* v = request.find("cluster")) {
    spec.options.cluster_cores = static_cast<std::uint32_t>(v->as_u64());
  }
  if (const obsj::Value* v = request.find("scale")) {
    spec.options.workload_scale = v->as_double();
  }
  if (const obsj::Value* v = request.find("seed")) {
    spec.options.seed = v->as_u64();
  }
  if (const obsj::Value* v = request.find("oracle_stride")) {
    spec.options.oracle_stride = static_cast<std::uint32_t>(v->as_u64());
  }
  if (const obsj::Value* v = request.find("cycle_skip")) {
    // Honoured at execution time but excluded from the canonical key: the
    // determinism contract makes skip and no-skip results bit-identical.
    spec.options.cycle_skip = v->as_bool();
  }
  if (const obsj::Value* v = request.find("faults")) {
    spec.options.faults = fault_plan_from_json(*v);
    fault::validate(spec.options.faults);
  }
  if (const obsj::Value* v = request.find("tech")) {
    spec.options.tech = tech_override_from_json(*v);
  }
  if (!spec.trace_file.empty()) {
    // Trace replay takes scale/seed/threads from the trace header and has
    // no fault/tech plumbing; reject silently-ignored knobs.
    RESPIN_REQUIRE(!spec.options.faults.enabled,
                   "trace_file requests do not support fault plans");
    RESPIN_REQUIRE(!spec.options.tech.any(),
                   "trace_file requests do not support tech overrides");
  }
  return spec;
}

obsj::Value request_spec_to_json(const RequestSpec& spec) {
  // Field order is the canonical key order — append-only; bump "v" if an
  // existing field ever has to change meaning.
  obsj::Value v = obsj::Value::object();
  v.set("v", obsj::Value::number(std::uint64_t{1}));
  v.set("config", obsj::Value::str(to_string(spec.config)));
  if (!spec.trace_file.empty()) {
    v.set("trace_file", obsj::Value::str(spec.trace_file));
    v.set("size", obsj::Value::str(to_string(spec.options.size)));
    v.set("oracle_stride", obsj::Value::number(spec.options.oracle_stride));
    return v;
  }
  if (!spec.profile_file.empty()) {
    // A profile workload is synthesized at run time, so every knob that
    // feeds synthesis or the simulator participates in the key.
    v.set("profile_file", obsj::Value::str(spec.profile_file));
  } else {
    v.set("benchmark", obsj::Value::str(spec.benchmark));
  }
  v.set("size", obsj::Value::str(to_string(spec.options.size)));
  v.set("cluster", obsj::Value::number(spec.options.cluster_cores));
  v.set("scale", obsj::Value::number(spec.options.workload_scale));
  v.set("seed", obsj::Value::number(spec.options.seed));
  v.set("oracle_stride", obsj::Value::number(spec.options.oracle_stride));
  if (spec.options.faults.enabled) {
    v.set("faults", fault_plan_to_json(spec.options.faults));
  }
  if (spec.options.tech.any()) {
    v.set("tech", tech_override_to_json(spec.options.tech));
  }
  return v;
}

std::string canonical_key(const RequestSpec& spec) {
  return request_spec_to_json(spec).dump();
}

std::uint64_t key_hash(std::string_view key) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis.
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime.
  }
  return hash;
}

std::string key_hash_hex(std::string_view key) {
  static const char* digits = "0123456789abcdef";
  std::uint64_t hash = key_hash(key);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

// ---- results -------------------------------------------------------------

obsj::Value result_to_json(const SimResult& r) {
  obsj::Value v = obsj::Value::object();
  v.set("config", obsj::Value::str(r.config_name));
  v.set("benchmark", obsj::Value::str(r.benchmark));
  v.set("cycles", obsj::Value::number(r.cycles));
  v.set("seconds", obsj::Value::number(r.seconds));
  v.set("instructions", obsj::Value::number(r.instructions));
  v.set("hit_cycle_limit", obsj::Value::boolean(r.hit_cycle_limit));
  v.set("counts", counts_to_json(r.counts));
  v.set("energy", energy_to_json(r.energy));
  v.set("read_hit_latency", histogram_to_json(r.read_hit_latency));
  v.set("dl1_read_hits", obsj::Value::number(r.dl1_read_hits));
  v.set("dl1_read_misses", obsj::Value::number(r.dl1_read_misses));
  v.set("dl1_half_misses", obsj::Value::number(r.dl1_half_misses));
  v.set("dl1_store_rejections", obsj::Value::number(r.dl1_store_rejections));
  v.set("dl1_arrivals", histogram_to_json(r.dl1_arrivals));
  v.set("dl1_cycles", obsj::Value::number(r.dl1_cycles));
  obsj::Array trace;
  trace.reserve(r.trace.size());
  for (const ConsolidationSample& s : r.trace) {
    obsj::Array sample;
    sample.reserve(3);
    sample.push_back(obsj::Value::number(s.cycle));
    sample.push_back(obsj::Value::number(s.active_cores));
    sample.push_back(obsj::Value::number(s.epi_pj));
    trace.push_back(obsj::Value::array(std::move(sample)));
  }
  v.set("trace", obsj::Value::array(std::move(trace)));
  v.set("avg_active_cores", obsj::Value::number(r.avg_active_cores));
  v.set("min_active_cores", obsj::Value::number(r.min_active_cores));
  v.set("max_active_cores", obsj::Value::number(r.max_active_cores));
  v.set("hybrid_sram_ways", obsj::Value::number(r.hybrid_sram_ways));
  v.set("hybrid_nvm_ways", obsj::Value::number(r.hybrid_nvm_ways));
  v.set("faults_enabled", obsj::Value::boolean(r.faults_enabled));
  if (r.faults_enabled) {
    v.set("faults", fault_stats_to_json(r.faults));
    v.set("fault_l1_disabled_ways",
          obsj::Value::number(r.fault_l1_disabled_ways));
    v.set("fault_l1_correctable_ways",
          obsj::Value::number(r.fault_l1_correctable_ways));
    v.set("fault_l1_usable_bytes",
          obsj::Value::number(r.fault_l1_usable_bytes));
    v.set("fault_l1_total_bytes", obsj::Value::number(r.fault_l1_total_bytes));
  }
  return v;
}

SimResult result_from_json(const obsj::Value& v) {
  SimResult r;
  r.config_name = require_field(v, "config").as_string();
  r.benchmark = require_field(v, "benchmark").as_string();
  r.cycles = i64_field(v, "cycles");
  r.seconds = f64_field(v, "seconds");
  r.instructions = u64_field(v, "instructions");
  r.hit_cycle_limit = require_field(v, "hit_cycle_limit").as_bool();
  r.counts = counts_from_json(require_field(v, "counts"));
  r.energy = energy_from_json(require_field(v, "energy"));
  r.read_hit_latency = histogram_from_json(
      require_field(v, "read_hit_latency"), r.read_hit_latency.bucket_count());
  r.dl1_read_hits = u64_field(v, "dl1_read_hits");
  r.dl1_read_misses = u64_field(v, "dl1_read_misses");
  r.dl1_half_misses = u64_field(v, "dl1_half_misses");
  r.dl1_store_rejections = u64_field(v, "dl1_store_rejections");
  r.dl1_arrivals = histogram_from_json(require_field(v, "dl1_arrivals"),
                                       r.dl1_arrivals.bucket_count());
  r.dl1_cycles = u64_field(v, "dl1_cycles");
  for (const obsj::Value& sample : require_field(v, "trace").as_array()) {
    const obsj::Array& triple = sample.as_array();
    if (triple.size() != 3) {
      throw obsj::Error("consolidation sample is not a [cycle, cores, epi] "
                        "triple",
                        0);
    }
    ConsolidationSample s;
    s.cycle = triple[0].as_i64();
    s.active_cores = static_cast<std::uint32_t>(triple[1].as_u64());
    s.epi_pj = triple[2].as_double();
    r.trace.push_back(s);
  }
  r.avg_active_cores = f64_field(v, "avg_active_cores");
  r.min_active_cores = u32_field(v, "min_active_cores");
  r.max_active_cores = u32_field(v, "max_active_cores");
  r.hybrid_sram_ways = u32_field(v, "hybrid_sram_ways");
  r.hybrid_nvm_ways = u32_field(v, "hybrid_nvm_ways");
  r.faults_enabled = require_field(v, "faults_enabled").as_bool();
  if (r.faults_enabled) {
    r.faults = fault_stats_from_json(require_field(v, "faults"));
    r.fault_l1_disabled_ways = u64_field(v, "fault_l1_disabled_ways");
    r.fault_l1_correctable_ways = u64_field(v, "fault_l1_correctable_ways");
    r.fault_l1_usable_bytes = u64_field(v, "fault_l1_usable_bytes");
    r.fault_l1_total_bytes = u64_field(v, "fault_l1_total_bytes");
  }
  return r;
}

double result_metric(const SimResult& r, std::string_view name) {
  if (name == "cycles") return static_cast<double>(r.cycles);
  if (name == "seconds") return r.seconds;
  if (name == "instructions") return static_cast<double>(r.instructions);
  if (name == "energy_pj") return r.energy.total();
  if (name == "epi_pj") return r.epi_pj();
  if (name == "watts") return r.watts();
  if (name == "leakage_pj") return r.energy.leakage();
  if (name == "dynamic_pj") return r.energy.dynamic();
  if (name == "avg_active_cores") return r.avg_active_cores;
  throw std::logic_error("unknown metric '" + std::string(name) +
                         "' (valid: " + result_metric_names() + ")");
}

const char* result_metric_names() {
  return "cycles, seconds, instructions, energy_pj, epi_pj, watts, "
         "leakage_pj, dynamic_pj, avg_active_cores";
}

}  // namespace respin::core
