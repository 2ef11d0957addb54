#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "core/serde.hpp"
#include "workload/workload.hpp"

namespace respin::serve {

namespace obsj = obs::json;

namespace {

/// Every op of the line protocol, in the order error messages list them.
// clang-format off
constexpr std::array<std::string_view, 11> kOps = {
    "ping", "version", "run", "sweep", "get", "list", "pareto", "stats",
    "merge", "compact", "shutdown"};
// clang-format on

std::string valid_ops() {
  std::string out = "valid: ";
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    if (i > 0) out += ", ";
    out += kOps[i];
  }
  return out;
}

}  // namespace

obsj::Value ok_response(const char* op) {
  obsj::Value v = obsj::Value::object();
  v.set("ok", obsj::Value::boolean(true));
  v.set("op", obsj::Value::str(op));
  return v;
}

obsj::Value error_response(const char* op, const char* kind,
                           const std::string& message) {
  obsj::Value v = obsj::Value::object();
  v.set("ok", obsj::Value::boolean(false));
  if (op != nullptr) v.set("op", obsj::Value::str(op));
  obsj::Value error = obsj::Value::object();
  error.set("kind", obsj::Value::str(kind));
  error.set("message", obsj::Value::str(message));
  v.set("error", std::move(error));
  return v;
}

void require_known_benchmark(const std::string& name) {
  const std::vector<std::string> names = workload::benchmark_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw std::logic_error("unknown benchmark '" + name +
                           "' (see respin_sim --list-workloads)");
  }
}

std::string request_key(const obsj::Value& request) {
  if (const obsj::Value* key = request.find("key")) return key->as_string();
  return core::canonical_key(core::request_spec_from_json(request));
}

obsj::Value number_u64(std::uint64_t n) { return obsj::Value::number(n); }

obsj::Value list_response(const std::vector<ResultStore::Brief>& runs) {
  obsj::Value v = ok_response("list");
  obsj::Array items;
  items.reserve(runs.size());
  for (const ResultStore::Brief& brief : runs) {
    obsj::Value run = obsj::Value::object();
    run.set("key", obsj::Value::str(brief.key));
    run.set("hash", obsj::Value::str(brief.hash));
    run.set("config", obsj::Value::str(brief.config));
    run.set("benchmark", obsj::Value::str(brief.benchmark));
    items.push_back(std::move(run));
  }
  v.set("count", number_u64(items.size()));
  v.set("runs", obsj::Value::array(std::move(items)));
  return v;
}

obsj::Value counters_to_json(const obs::CounterSet& set) {
  obsj::Value v = obsj::Value::object();
  for (const obs::Counter& c : set.items()) {
    v.set(c.name, obsj::Value::number(c.value));
  }
  return v;
}

std::pair<std::string, std::string> pareto_axes(const obsj::Value& request) {
  std::pair<std::string, std::string> axes{"energy_pj", "cycles"};
  if (const obsj::Value* x = request.find("x")) axes.first = x->as_string();
  if (const obsj::Value* y = request.find("y")) axes.second = y->as_string();
  return axes;
}

obsj::Value pareto_response(const std::string& x, const std::string& y,
                            const std::vector<ParetoPoint>& frontier) {
  obsj::Value v = ok_response("pareto");
  v.set("x", obsj::Value::str(x));
  v.set("y", obsj::Value::str(y));
  obsj::Array points;
  points.reserve(frontier.size());
  for (const ParetoPoint& p : frontier) {
    obsj::Value point = obsj::Value::object();
    point.set("key", obsj::Value::str(p.key));
    point.set("hash", obsj::Value::str(p.hash));
    point.set("config", obsj::Value::str(p.config));
    point.set("benchmark", obsj::Value::str(p.benchmark));
    point.set("x", obsj::Value::number(p.x));
    point.set("y", obsj::Value::number(p.y));
    points.push_back(std::move(point));
  }
  v.set("count", number_u64(points.size()));
  v.set("points", obsj::Value::array(std::move(points)));
  return v;
}

ParetoPoint pareto_point_from_json(const obsj::Value& point) {
  ParetoPoint p;
  p.key = point.find("key")->as_string();
  p.hash = point.find("hash")->as_string();
  p.config = point.find("config")->as_string();
  p.benchmark = point.find("benchmark")->as_string();
  p.x = point.find("x")->as_double();
  p.y = point.find("y")->as_double();
  return p;
}

std::string LineService::handle_line(const std::string& line,
                                     const Emit& emit) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  obsj::Value request;
  try {
    request = obsj::parse(line);
  } catch (const obsj::Error& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(nullptr, "parse_error", e.what()).dump();
  }
  obsj::Value response;
  try {
    const obsj::Value* op_field = request.find("op");
    if (op_field == nullptr) {
      throw std::logic_error("missing 'op' (" + valid_ops() + ")");
    }
    const std::string& op = op_field->as_string();
    if (std::find(kOps.begin(), kOps.end(), op) == kOps.end()) {
      throw std::logic_error("unknown op '" + op + "' (" + valid_ops() + ")");
    }
    if (op == "ping") {
      response = ok_response("ping");
    } else {
      response = handle_request(op, request, line, emit);
    }
  } catch (const std::exception& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(nullptr, "bad_request", e.what());
  }
  // Echo the client's correlation id, if any, so pipelined requests over
  // one connection can be matched to their responses — unless the reply
  // was relayed from a worker that already echoed it (Value::set appends;
  // a second set would emit a duplicate member).
  if (const obsj::Value* id = request.find("id")) {
    if (response.find("id") == nullptr) response.set("id", *id);
  }
  return response.dump();
}

}  // namespace respin::serve
