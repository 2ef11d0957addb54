// Binary trace format (.rspt): constants, typed errors, and the explicit
// little-endian encoding primitives shared by TraceWriter and TraceReader.
//
// Layout (all integers little-endian, encoded byte by byte — structs are
// never reinterpret_cast to disk, so a trace recorded on any toolchain
// replays on any other, like the golden-stats snapshots):
//
//   File    := Header Chunk* EndMarker
//   Header  := magic:u32 version:u16 reserved:u16 thread_count:u32
//              seed:u64 scale:f64bits name_len:u16 name:bytes crc:u32
//   Chunk   := thread:u32 stream:u8 record_count:u32 payload_len:u32
//              payload:bytes crc:u32            (crc covers payload only)
//   EndMarker := 0xFFFFFFFF:u32
//
// Per-thread payloads are delta/varint compressed:
//   ops stream     tagged records {kCompute count} {kLoad/kStore ±Δaddr}
//                  {kBarrier ±Δid} {kSetIpc f64bits}; kSetIpc pins the
//                  issue IPC of subsequent compute records.
//   ifetch stream  one zigzag-varint address delta per record.
//
// Every malformed-input path raises TraceError with a TraceErrorKind —
// truncation, bad magic/version, CRC mismatch, oversized or unknown
// records — never undefined behaviour. The reader treats the file as
// untrusted input (the ASan+UBSan CI job runs these paths).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "workload/workload.hpp"

namespace respin::trace {

inline constexpr std::uint32_t kMagic = 0x54505352u;  // "RSPT" on disk.
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::uint32_t kEndMarker = 0xFFFF'FFFFu;

/// Sanity bounds on untrusted header/chunk fields: generous for any real
/// trace, small enough that a corrupted length cannot drive allocation.
inline constexpr std::uint32_t kMaxThreads = 4096;
inline constexpr std::uint32_t kMaxNameLen = 4096;
inline constexpr std::uint32_t kMaxChunkPayload = 1u << 24;  // 16 MiB.

// The encoders below assume these shapes; a toolchain where they fail
// needs new encoding code, not silently different traces.
static_assert(sizeof(mem::Addr) == 8, "trace format encodes 64-bit addresses");
static_assert(std::is_same_v<std::underlying_type_t<workload::OpKind>,
                             std::uint8_t>,
              "OpKind must stay a byte-sized enum");
static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559,
              "trace format stores IPC as IEEE-754 binary64 bits");
static_assert(sizeof(workload::Op) ==
                  sizeof(workload::OpKind) + 3 /*padding*/ +
                      sizeof(std::uint32_t) + sizeof(mem::Addr) +
                      sizeof(double),
              "Op gained a field — extend the trace record encoding");

/// What went wrong while parsing or replaying a trace.
enum class TraceErrorKind : std::uint8_t {
  kIo,           ///< open/read/write failure.
  kBadMagic,     ///< Not a respin trace.
  kBadVersion,   ///< Unsupported format version.
  kBadHeader,    ///< Header field out of bounds (e.g. zero threads).
  kTruncated,    ///< EOF before the structure completed.
  kCrcMismatch,  ///< Header or chunk checksum failed.
  kBadRecord,    ///< Undecodable payload (unknown tag, varint overrun...).
  kMismatch,     ///< Trace/configuration disagreement at replay time.
};

const char* to_string(TraceErrorKind kind);

/// Typed trace error: every validation failure in respin::trace throws
/// this (tests and the CLI branch on kind()).
class TraceError : public std::runtime_error {
 public:
  TraceError(TraceErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  TraceErrorKind kind() const { return kind_; }

 private:
  TraceErrorKind kind_;
};

/// Record tags of the per-thread ops stream.
enum class RecordTag : std::uint8_t {
  kCompute = 0,
  kLoad = 1,
  kStore = 2,
  kBarrier = 3,
  kSetIpc = 4,
};

/// Which per-thread stream a chunk carries.
enum class StreamKind : std::uint8_t { kOps = 0, kIfetch = 1 };

/// Trace-wide metadata. `scale`/`seed` reproduce the recorded generator
/// instance; replay reuses `seed` for the simulator's arbitration streams
/// and the die-variation map so replayed runs are bit-identical to live
/// ones.
struct TraceHeader {
  std::uint32_t thread_count = 0;
  std::uint64_t seed = 0;
  double scale = 1.0;
  std::string benchmark;
};

// ---- Little-endian primitives (append to a byte buffer) ------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);

/// LEB128 unsigned varint (1-10 bytes).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
/// Zigzag-mapped signed varint.
void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v);

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked cursor over a byte span; every read throws
/// TraceError(kTruncated/kBadRecord) instead of running past the end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::uint64_t varint();
  std::int64_t svarint() { return zigzag_decode(varint()); }
  std::string bytes(std::size_t n);

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// IEEE CRC32 (the zlib/PNG polynomial), no external dependency. Sliced
/// eight bytes at a time; input words are assembled byte by byte.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Serializes a header (magic through CRC) after validating its fields.
std::vector<std::uint8_t> encode_header(const TraceHeader& header);

}  // namespace respin::trace
