#include "common/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/checksum.hpp"

namespace stash::codec {
namespace {

/// Reserve for a decoded count without trusting it: every element costs at
/// least one input byte, so `in.remaining()` bounds the real element count.
/// Reserving the claimed count directly lets a short hostile buffer demand
/// gigabytes before the first read fails (found by the codec fuzz harness).
template <typename Vec>
void reserve_bounded(Vec& vec, std::uint64_t claimed, const Reader& in) {
  vec.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(claimed, in.remaining())));
}

/// Writes the little-endian bytes of `value` at `at`; returns the byte
/// past them.  Every fixed-width field of the format goes through here.
template <typename UInt>
std::uint8_t* write_le(std::uint8_t* at, UInt value) noexcept {
  for (std::size_t i = 0; i < sizeof(UInt); ++i)
    at[i] = static_cast<std::uint8_t>(value >> (8 * i));
  return at + sizeof(UInt);
}

std::uint8_t* write_varint(std::uint8_t* at, std::uint64_t value) noexcept {
  while (value >= 0x80) {
    *at++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *at++ = static_cast<std::uint8_t>(value);
  return at;
}

std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t n = 1;
  for (; value >= 0x80; value >>= 7) ++n;
  return n;
}

constexpr std::size_t kCellKeyBytes = 8 + 4;

std::uint8_t* write_key(std::uint8_t* at, const CellKey& key) noexcept {
  return write_le(write_le(at, key.spatial), key.temporal);
}

std::size_t attribute_size(const AttributeSummary& summary) noexcept {
  return varint_size(summary.count) + (summary.count == 0 ? 0 : 4 * 8);
}

std::uint8_t* write_attribute(std::uint8_t* at,
                              const AttributeSummary& summary) noexcept {
  at = write_varint(at, summary.count);
  if (summary.count == 0) return at;
  at = write_le(at, std::bit_cast<std::uint64_t>(summary.min));
  at = write_le(at, std::bit_cast<std::uint64_t>(summary.max));
  at = write_le(at, std::bit_cast<std::uint64_t>(summary.sum));
  return write_le(at, std::bit_cast<std::uint64_t>(summary.sum_sq));
}

std::size_t summary_size(const Summary& summary) noexcept {
  std::size_t n = varint_size(summary.num_attributes());
  for (const auto& attr : summary.attributes()) n += attribute_size(attr);
  return n;
}

std::uint8_t* write_summary(std::uint8_t* at, const Summary& summary) noexcept {
  at = write_varint(at, summary.num_attributes());
  for (const auto& attr : summary.attributes()) at = write_attribute(at, attr);
  return at;
}

/// Appends an object of `size` bytes written in place by `write`: one
/// resize per object instead of one append per field.
template <typename Write>
void append(Buffer& out, std::size_t size, Write&& write) {
  const std::size_t at = out.size();
  out.resize(at + size);
  write(out.data() + at);
}

}  // namespace

void put_varint(Buffer& out, std::uint64_t value) {
  append(out, varint_size(value),
         [&](std::uint8_t* at) { write_varint(at, value); });
}

void put_u32(Buffer& out, std::uint32_t value) {
  append(out, 4, [&](std::uint8_t* at) { write_le(at, value); });
}

void put_u64(Buffer& out, std::uint64_t value) {
  append(out, 8, [&](std::uint8_t* at) { write_le(at, value); });
}

void put_double(Buffer& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::size_t encoded_size(const CellKey&, const Summary& summary) noexcept {
  return kCellKeyBytes + summary_size(summary);
}

std::uint8_t* write_cell(std::uint8_t* at, const CellKey& key,
                         const Summary& summary) noexcept {
  return write_summary(write_key(at, key), summary);
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > size_) throw std::out_of_range("codec::Reader: truncated input");
}

std::uint64_t Reader::varint() {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0))
      throw std::overflow_error("codec::Reader: varint overflow");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return value;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return value;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void encode(Buffer& out, const CellKey& key) {
  append(out, kCellKeyBytes, [&](std::uint8_t* at) { write_key(at, key); });
}

CellKey decode_cell_key(Reader& in) {
  CellKey key;
  key.spatial = in.u64();
  key.temporal = in.u32();
  // Validate by unpacking (throws on malformed labels).
  (void)key.geohash_str();
  (void)key.bin();
  return key;
}

void encode(Buffer& out, const AttributeSummary& summary) {
  append(out, attribute_size(summary),
         [&](std::uint8_t* at) { write_attribute(at, summary); });
}

AttributeSummary decode_attribute_summary(Reader& in) {
  AttributeSummary summary;
  summary.count = in.varint();
  if (summary.count == 0) return summary;
  summary.min = in.f64();
  summary.max = in.f64();
  summary.sum = in.f64();
  summary.sum_sq = in.f64();
  return summary;
}

void encode(Buffer& out, const Summary& summary) {
  append(out, summary_size(summary),
         [&](std::uint8_t* at) { write_summary(at, summary); });
}

Summary decode_summary(Reader& in) {
  const std::uint64_t n = in.varint();
  if (n > 1024) throw std::out_of_range("codec: implausible attribute count");
  // Schema-sized summaries decode on the stack; only wider ones allocate.
  std::array<AttributeSummary, Summary::kInlineAttributes> inline_attrs;
  std::vector<AttributeSummary> wide_attrs;
  const bool wide = n > inline_attrs.size();
  if (wide) reserve_bounded(wide_attrs, n, in);
  for (std::uint64_t i = 0; i < n; ++i) {
    const AttributeSummary attr = decode_attribute_summary(in);
    if (wide)
      wide_attrs.push_back(attr);
    else
      inline_attrs[static_cast<std::size_t>(i)] = attr;
  }
  return Summary::from_attributes(
      wide ? std::span<const AttributeSummary>(wide_attrs)
           : std::span<const AttributeSummary>(inline_attrs.data(),
                                               static_cast<std::size_t>(n)));
}

void encode(Buffer& out, const ChunkContribution& contribution) {
  put_varint(out, static_cast<std::uint64_t>(contribution.res.spatial));
  put_varint(out, static_cast<std::uint64_t>(contribution.res.temporal));
  put_u64(out, contribution.chunk.prefix);
  put_u32(out, contribution.chunk.temporal);
  put_varint(out, contribution.days.size());
  for (std::int64_t day : contribution.days)
    put_varint(out, static_cast<std::uint64_t>(day));
  put_varint(out, contribution.cells.size());
  for (const auto& [key, summary] : contribution.cells)
    append(out, encoded_size(key, summary),
           [&](std::uint8_t* at) { write_cell(at, key, summary); });
}

ChunkContribution decode_chunk_contribution(Reader& in) {
  ChunkContribution c;
  c.res.spatial = static_cast<int>(in.varint());
  c.res.temporal = static_cast<TemporalRes>(in.varint());
  if (!c.res.valid()) throw std::out_of_range("codec: bad resolution");
  c.chunk.prefix = in.u64();
  c.chunk.temporal = in.u32();
  const std::uint64_t days = in.varint();
  if (days > 100000) throw std::out_of_range("codec: implausible day count");
  reserve_bounded(c.days, days, in);
  for (std::uint64_t i = 0; i < days; ++i)
    c.days.push_back(static_cast<std::int64_t>(in.varint()));
  const std::uint64_t cells = in.varint();
  if (cells > 100'000'000) throw std::out_of_range("codec: implausible cell count");
  reserve_bounded(c.cells, cells, in);
  for (std::uint64_t i = 0; i < cells; ++i) {
    CellKey key = decode_cell_key(in);
    Summary summary = decode_summary(in);
    c.cells.emplace_back(key, std::move(summary));
  }
  return c;
}

Buffer encode_replication_payload(const std::vector<ChunkContribution>& payload) {
  Buffer out;
  put_varint(out, payload.size());
  for (const auto& contribution : payload) encode(out, contribution);
  return out;
}

std::vector<ChunkContribution> decode_replication_payload(const Buffer& buffer) {
  Reader in(buffer);
  const std::uint64_t n = in.varint();
  if (n > 1'000'000) throw std::out_of_range("codec: implausible payload size");
  std::vector<ChunkContribution> payload;
  reserve_bounded(payload, n, in);
  for (std::uint64_t i = 0; i < n; ++i)
    payload.push_back(decode_chunk_contribution(in));
  if (!in.done()) throw std::out_of_range("codec: trailing bytes");
  return payload;
}

Buffer encode_frame(const Buffer& payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("codec::encode_frame: payload too large");
  Buffer out;
  out.reserve(payload.size() + kFrameOverhead);
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64(out, checksum64(payload.data(), payload.size()));
  return out;
}

Buffer decode_frame(const Buffer& frame) {
  if (frame.size() < kFrameOverhead)
    throw IntegrityError("frame shorter than its fixed overhead");
  Reader in(frame);
  if (in.u32() != kFrameMagic) throw IntegrityError("bad frame magic");
  const std::uint32_t declared = in.u32();
  // Length check BEFORE any allocation: the declared payload length must
  // equal exactly the bytes between the header and the 8-byte footer.  A
  // frame claiming more than it carries (torn/truncated) or less (trailing
  // garbage) is rejected without reserving a single byte for it.
  if (declared != frame.size() - kFrameOverhead)
    throw IntegrityError("declared payload length disagrees with frame size");
  const std::uint8_t* payload = frame.data() + 8;
  const std::uint64_t expected = checksum64(payload, declared);
  Reader footer(frame.data() + 8 + declared, 8);
  if (footer.u64() != expected) throw IntegrityError("checksum mismatch");
  return Buffer(payload, payload + declared);
}

Buffer encode_replication_frame(const std::vector<ChunkContribution>& payload) {
  return encode_frame(encode_replication_payload(payload));
}

std::vector<ChunkContribution> decode_replication_frame(const Buffer& frame) {
  return decode_replication_payload(decode_frame(frame));
}

std::size_t encoded_size(const ChunkContribution& contribution) {
  Buffer scratch;
  encode(scratch, contribution);
  return scratch.size();
}

std::size_t encoded_size(const std::vector<ChunkContribution>& payload) {
  std::size_t total = 1;  // payload-count varint (payloads are small counts)
  for (const auto& contribution : payload) total += encoded_size(contribution);
  return total;
}

}  // namespace stash::codec
