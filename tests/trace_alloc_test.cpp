// respin::trace — replay reads the caller's decoded trace in place.
//
// replay_trace must not copy the TraceData it is given: a sweep that
// replays one loaded trace on many configurations, possibly on many
// threads at once, should hold one decoded copy, not one per running
// replay. This binary replaces the global operator new and delete to track
// the bytes the calling thread holds while replay_trace runs, so it lives
// apart from respin_tests, whose allocations it must not disturb.
#include <gtest/gtest.h>
#include <malloc.h>
#include <stdlib.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>

#include "core/config.hpp"
#include "scratch_path.hpp"
#include "trace/capture.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/workload.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::int64_t t_live = 0;  // Net bytes since counting began.
thread_local std::int64_t t_peak = 0;  // High-water mark of t_live.

/// malloc/aligned_alloc plus accounting; nullptr when out of memory.
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p != nullptr && t_counting) {
    t_live += static_cast<std::int64_t>(malloc_usable_size(p));
    t_peak = std::max(t_peak, t_live);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr && t_counting) {
    t_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

// Every replaceable form, so no allocation bypasses the accounting and
// none is freed by a different allocator (sanitizer runtimes define them
// all).
void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, kDefaultAlign);
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace respin {
namespace {

/// Peak bytes the calling thread holds allocated while replaying `data`
/// on `id`, over what it held before the call.
std::int64_t replay_peak_bytes(core::ConfigId id,
                               const trace::TraceData& data) {
  t_live = 0;
  t_peak = 0;
  t_counting = true;
  const core::SimResult result = trace::replay_trace(id, data);
  t_counting = false;
  EXPECT_GT(result.instructions, 0u);
  return t_peak;
}

// A copy of the trace alone would hold the whole decoded size for the
// length of the replay; the simulator's own state must stay well under
// half of it. The oracle configuration is covered too: its snapshot
// clones read the same borrowed trace.
TEST(TraceReplayAllocation, ReplayDoesNotCopyTheTrace) {
  const std::string path = test::scratch_path("alloc_radix.rspt");
  trace::record_benchmark(workload::benchmark("radix"), 8, 0.25, 1, path);
  const trace::TraceData data = trace::load_trace(path);
  // One Op per op record and one address per ifetch record.
  const auto decoded = static_cast<std::int64_t>(
      data.total_ops() * sizeof(workload::Op) +
      data.total_ifetches() * sizeof(mem::Addr));

  for (const core::ConfigId id :
       {core::ConfigId::kShStt, core::ConfigId::kShSttCcOracle}) {
    SCOPED_TRACE(core::to_string(id));
    const std::int64_t peak = replay_peak_bytes(id, data);
    EXPECT_LT(peak, decoded / 2) << "replay held up to " << peak
                                 << " B against a decoded trace of "
                                 << decoded << " B";
  }
}

}  // namespace
}  // namespace respin
