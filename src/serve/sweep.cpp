#include "serve/sweep.hpp"

#include <stdexcept>

#include "core/config.hpp"
#include "serve/service.hpp"
#include "workload/workload.hpp"

namespace respin::serve {

namespace obsj = obs::json;

std::vector<SweepCell> plan_sweep(const obsj::Value& request) {
  const core::RequestSpec base = core::request_spec_from_json(request);
  const bool file_workload =
      !base.trace_file.empty() || !base.profile_file.empty();
  if (file_workload && request.find("benchmarks") != nullptr) {
    throw std::logic_error(
        "a trace_file/profile_file sweep fixes the workload; drop the "
        "'benchmarks' axis");
  }

  std::vector<core::ConfigId> configs;
  if (const obsj::Value* list = request.find("configs")) {
    for (const obsj::Value& name : list->as_array()) {
      configs.push_back(core::parse_config_id(name.as_string()));
    }
  } else {
    configs = core::all_config_ids();
  }
  std::vector<std::string> benchmarks;
  if (file_workload) {
    benchmarks.push_back(base.benchmark);  // Unused by a file's key.
  } else if (const obsj::Value* list = request.find("benchmarks")) {
    for (const obsj::Value& name : list->as_array()) {
      require_known_benchmark(name.as_string());
      benchmarks.push_back(name.as_string());
    }
  } else {
    benchmarks = workload::benchmark_names();
  }
  if (configs.empty() || benchmarks.empty()) {
    throw std::logic_error("sweep needs at least one config and one benchmark");
  }

  std::vector<SweepCell> cells;
  cells.reserve(configs.size() * benchmarks.size());
  for (const core::ConfigId config : configs) {
    for (const std::string& benchmark : benchmarks) {
      SweepCell cell;
      cell.spec = base;
      cell.spec.config = config;
      cell.spec.benchmark = benchmark;
      cell.key = core::canonical_key(cell.spec);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace respin::serve
