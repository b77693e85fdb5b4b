// Binary serialization for STASH's wire objects.
//
// Replication Requests ship Cliques of Cells between nodes (§VII-B.4) and
// subquery responses ship Cell summaries to the front-end; this codec
// defines the byte format (little-endian fixed ints, LEB128 varints for
// counts) so transfer sizes in the simulator come from real encoded bytes
// rather than guessed constants.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/summary.hpp"
#include "core/graph.hpp"
#include "geo/cell_key.hpp"

namespace stash::codec {

using Buffer = std::vector<std::uint8_t>;

/// A frame failed its integrity checks: bad magic, declared length
/// disagreeing with the bytes on hand, or a checksum-footer mismatch.
/// Typed so receivers can distinguish "corrupted in flight / at rest"
/// (recoverable: re-request, quarantine) from a programming error.
class IntegrityError : public std::runtime_error {
 public:
  explicit IntegrityError(const std::string& what)
      : std::runtime_error("codec::IntegrityError: " + what) {}
};

// --- primitives ---
void put_varint(Buffer& out, std::uint64_t value);
void put_u32(Buffer& out, std::uint32_t value);
void put_u64(Buffer& out, std::uint64_t value);
void put_double(Buffer& out, double value);

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer) : Reader(buffer.data(), buffer.size()) {}

  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- STASH objects ---
// Objects are sized first and then written in place, one resize each.

/// One cell record as answers and contributions carry it: key, then
/// summary.  `write_cell` writes it at `at`, which must have
/// encoded_size(key, summary) bytes, and returns the byte past it —
/// callers encoding many cells size their buffer once.
[[nodiscard]] std::size_t encoded_size(const CellKey& key,
                                       const Summary& summary) noexcept;
std::uint8_t* write_cell(std::uint8_t* at, const CellKey& key,
                         const Summary& summary) noexcept;

void encode(Buffer& out, const CellKey& key);
[[nodiscard]] CellKey decode_cell_key(Reader& in);

void encode(Buffer& out, const AttributeSummary& summary);
[[nodiscard]] AttributeSummary decode_attribute_summary(Reader& in);

void encode(Buffer& out, const Summary& summary);
[[nodiscard]] Summary decode_summary(Reader& in);

void encode(Buffer& out, const ChunkContribution& contribution);
[[nodiscard]] ChunkContribution decode_chunk_contribution(Reader& in);

/// A full Replication Request payload (§VII-B.4).
[[nodiscard]] Buffer encode_replication_payload(
    const std::vector<ChunkContribution>& payload);
[[nodiscard]] std::vector<ChunkContribution> decode_replication_payload(
    const Buffer& buffer);

// --- checksummed framing ---
// Every payload that actually crosses the wire travels inside a frame:
//
//   [magic u32] [payload_len u32] [payload bytes] [checksum64 u64]
//
// The checksum covers the payload bytes only; magic and length are
// validated structurally (any single flipped bit in the frame is caught by
// one of the three checks).  decode_frame rejects a declared length that
// disagrees with the bytes on hand BEFORE allocating anything, so a short
// hostile buffer can never demand memory it did not pay for.

inline constexpr std::uint32_t kFrameMagic = 0x31465453u;  // "STF1" on the wire
/// Bytes a frame adds around its payload: magic + length + checksum footer.
inline constexpr std::size_t kFrameOverhead = 4 + 4 + 8;

[[nodiscard]] Buffer encode_frame(const Buffer& payload);
/// Validates magic, length, and checksum; returns the payload bytes.
/// Throws IntegrityError on any mismatch — never crashes, never silently
/// accepts.
[[nodiscard]] Buffer decode_frame(const Buffer& frame);

/// Replication payload inside a checksummed frame — what the cluster's
/// replication and anti-entropy transfers actually ship.
[[nodiscard]] Buffer encode_replication_frame(
    const std::vector<ChunkContribution>& payload);
[[nodiscard]] std::vector<ChunkContribution> decode_replication_frame(
    const Buffer& frame);

/// Encoded size without materialising the buffer (cheap cost accounting).
[[nodiscard]] std::size_t encoded_size(const ChunkContribution& contribution);
[[nodiscard]] std::size_t encoded_size(
    const std::vector<ChunkContribution>& payload);

}  // namespace stash::codec
