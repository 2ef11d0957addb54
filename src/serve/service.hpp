// The transport-independent serving interface and the line envelope both
// tiers share.
//
// Both tiers of the serving stack — the worker daemon (serve::Server) and
// the sharding front end (serve::Router) — speak the same line protocol:
// one JSON object per line in, one terminal JSON object per line out,
// with optional intermediate event lines (the router's incremental sweep
// progress) emitted through the `Emit` callback before the terminal
// response. LineService::handle_line owns everything the two tiers do
// alike: parsing, op validation, `ping`, the typed parse_error /
// bad_request replies, `id` echo, and the request/protocol-error counts.
// Each tier implements handle_request for the ops it answers. The TCP and
// stdio front ends in serve/net.hpp drive any LineService; tests drive
// implementations directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "serve/store.hpp"

namespace respin::serve {

/// Emits one intermediate event line to the client (without trailing
/// newline). Must be safe to call from multiple threads: a streaming
/// sweep reports cells from every dispatch thread.
using Emit = std::function<void(const std::string&)>;

/// {"ok":true,"op":op}: the head of every successful response.
obs::json::Value ok_response(const char* op);

/// {"ok":false,"op":op,"error":{"kind":kind,"message":message}}; a null
/// `op` omits the op member.
obs::json::Value error_response(const char* op, const char* kind,
                                const std::string& message);

/// Throws std::logic_error (a bad_request) unless `name` is a catalog
/// benchmark.
void require_known_benchmark(const std::string& name);

/// The key a `get` names: its "key" member, else the canonical key of its
/// run fields.
std::string request_key(const obs::json::Value& request);

/// A count as a JSON number.
obs::json::Value number_u64(std::uint64_t n);

/// The `list` op's response: one brief per run, in the given order.
obs::json::Value list_response(const std::vector<ResultStore::Brief>& runs);

/// A counter set as one JSON object of name -> value: the `stats` op's
/// "counters" member on both tiers.
obs::json::Value counters_to_json(const obs::CounterSet& set);

/// The `pareto` op's metric axes: the request's "x"/"y", defaulting to
/// energy_pj and cycles.
std::pair<std::string, std::string> pareto_axes(
    const obs::json::Value& request);

/// The `pareto` op's response for an already-computed frontier.
obs::json::Value pareto_response(const std::string& x, const std::string& y,
                                 const std::vector<ParetoPoint>& frontier);

/// Inverse of one element of pareto_response's "points" array.
ParetoPoint pareto_point_from_json(const obs::json::Value& point);

class LineService {
 public:
  virtual ~LineService() = default;

  /// Handles one protocol request line, returning the terminal response
  /// line (without trailing newline). Intermediate event lines (sweep
  /// progress) go through `emit` as they happen; a null emit suppresses
  /// them. Never throws: malformed input becomes a typed error response.
  /// Safe to call from many threads.
  std::string handle_line(const std::string& line, const Emit& emit = Emit());

  /// Stops admitting work; queued and in-flight requests finish.
  /// Idempotent. The SIGTERM path and the `shutdown` op land here.
  void begin_drain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// begin_drain() plus blocking until every accepted request retired.
  virtual void drain() = 0;

 protected:
  /// Answers one parsed request whose `op` is a valid op other than
  /// `ping`. `line` is the request as received (the router forwards it
  /// verbatim). A thrown std::exception becomes a bad_request reply.
  virtual obs::json::Value handle_request(const std::string& op,
                                          const obs::json::Value& request,
                                          const std::string& line,
                                          const Emit& emit) = 0;

  /// Lines received / lines answered with parse_error or bad_request.
  std::uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> draining_{false};
  // Relaxed atomics: statistics, not synchronization points.
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace respin::serve
