#include "obs/obs.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace respin::obs {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  out += json::escape(text);
  out.push_back('"');
}

// std::to_chars, not snprintf %g: the output must be valid JSON even if a
// linked library switches the C locale to a comma-decimal one.
void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

std::atomic<TraceSink*> g_sink{nullptr};

}  // namespace

Event& Event::str(std::string_view key, std::string_view value) {
  Field f;
  f.key = std::string(key);
  f.type = Field::Type::kStr;
  f.str_value = std::string(value);
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::i64(std::string_view key, std::int64_t value) {
  Field f;
  f.key = std::string(key);
  f.type = Field::Type::kInt;
  f.int_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::f64(std::string_view key, double value) {
  Field f;
  f.key = std::string(key);
  f.type = Field::Type::kFloat;
  f.float_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

std::string to_json(const Event& event) {
  std::string out = "{\"event\":";
  append_escaped(out, event.kind());
  for (const Event::Field& f : event.fields()) {
    out.push_back(',');
    append_escaped(out, f.key);
    out.push_back(':');
    switch (f.type) {
      case Event::Field::Type::kStr: append_escaped(out, f.str_value); break;
      case Event::Field::Type::kInt: out += std::to_string(f.int_value); break;
      case Event::Field::Type::kFloat: append_double(out, f.float_value); break;
    }
  }
  out.push_back('}');
  return out;
}

void JsonlWriter::record(const Event& event) {
  const std::string line = to_json(event);
  const std::lock_guard<std::mutex> lock(mu_);
  os_ << line << '\n';
}

TraceSink* global_sink() { return g_sink.load(std::memory_order_acquire); }

void set_global_sink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

BasicScopedProbe<true>::BasicScopedProbe(const char* name)
    : name_(name), sink_(global_sink()) {
  if (sink_ != nullptr) {
    start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  }
}

void BasicScopedProbe<true>::add(const char* key, std::int64_t value) {
  if (sink_ == nullptr) return;
  Event::Field f;
  f.key = key;
  f.type = Event::Field::Type::kInt;
  f.int_value = value;
  extras_.push_back(std::move(f));
}

BasicScopedProbe<true>::~BasicScopedProbe() {
  if (sink_ == nullptr) return;
  const std::int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  Event event("probe");
  event.str("name", name_);
  event.f64("wall_us", static_cast<double>(end_ns - start_ns_) * 1e-3);
  for (Event::Field& f : extras_) event.i64(f.key, f.int_value);
  sink_->record(event);
}

}  // namespace respin::obs
