#include "trace/format.hpp"

#include <array>
#include <bit>

namespace respin::trace {

const char* to_string(TraceErrorKind kind) {
  switch (kind) {
    case TraceErrorKind::kIo: return "trace I/O error";
    case TraceErrorKind::kBadMagic: return "bad trace magic";
    case TraceErrorKind::kBadVersion: return "unsupported trace version";
    case TraceErrorKind::kBadHeader: return "malformed trace header";
    case TraceErrorKind::kTruncated: return "truncated trace";
    case TraceErrorKind::kCrcMismatch: return "trace CRC mismatch";
    case TraceErrorKind::kBadRecord: return "malformed trace record";
    case TraceErrorKind::kMismatch: return "trace/configuration mismatch";
  }
  return "trace error";
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag_encode(v));
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw TraceError(TraceErrorKind::kTruncated,
                     "need " + std::to_string(n) + " bytes, have " +
                         std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (std::uint16_t{data_[pos_++]}
                                        << (8 * i)));
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint8_t byte = u8();
    // Bits past 64 must be zero (the 10th byte may carry only one bit).
    if (i == 9 && (byte & 0xFE) != 0) {
      throw TraceError(TraceErrorKind::kBadRecord, "varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) return v;
  }
  throw TraceError(TraceErrorKind::kBadRecord, "varint longer than 10 bytes");
}

std::string ByteReader::bytes(std::size_t n) {
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian 32-bit word assembled byte by byte (any alignment, any
/// host byte order).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFF'FFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFF'FFFFu;
}

std::vector<std::uint8_t> encode_header(const TraceHeader& header) {
  if (header.thread_count == 0 || header.thread_count > kMaxThreads) {
    throw TraceError(TraceErrorKind::kBadHeader,
                     "thread count " + std::to_string(header.thread_count) +
                         " outside [1, " + std::to_string(kMaxThreads) + "]");
  }
  if (header.benchmark.size() > kMaxNameLen) {
    throw TraceError(TraceErrorKind::kBadHeader, "benchmark name too long");
  }
  if (!(header.scale > 0.0)) {
    throw TraceError(TraceErrorKind::kBadHeader, "scale must be positive");
  }
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  put_u16(out, 0);  // Reserved.
  put_u32(out, header.thread_count);
  put_u64(out, header.seed);
  put_f64(out, header.scale);
  put_u16(out, static_cast<std::uint16_t>(header.benchmark.size()));
  out.insert(out.end(), header.benchmark.begin(), header.benchmark.end());
  put_u32(out, crc32(out));
  return out;
}

}  // namespace respin::trace
