#include "common/codec.hpp"

#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "exec/wall_clock.hpp"

namespace stash::codec {
namespace {

const TemporalBin kDay(TemporalRes::Day, 2015, 2, 2);

TEST(CodecTest, VarintRoundTrip) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1u << 20, 1ull << 35, ~0ull};
  for (std::uint64_t v : values) {
    Buffer buffer;
    put_varint(buffer, v);
    Reader reader(buffer);
    EXPECT_EQ(reader.varint(), v);
    EXPECT_TRUE(reader.done());
  }
}

TEST(CodecTest, VarintSizes) {
  Buffer one;
  put_varint(one, 127);
  EXPECT_EQ(one.size(), 1u);
  Buffer two;
  put_varint(two, 128);
  EXPECT_EQ(two.size(), 2u);
  Buffer ten;
  put_varint(ten, ~0ull);
  EXPECT_EQ(ten.size(), 10u);
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Buffer buffer;
  put_u32(buffer, 0xdeadbeef);
  put_u64(buffer, 0x0123456789abcdefULL);
  put_double(buffer, -273.15);
  put_double(buffer, 0.0);
  Reader reader(buffer);
  EXPECT_EQ(reader.u32(), 0xdeadbeef);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.f64(), -273.15);
  EXPECT_EQ(reader.f64(), 0.0);
  EXPECT_TRUE(reader.done());
}

TEST(CodecTest, PrimitiveBytesArePinned) {
  // The wire format is little-endian fixed-width ints / IEEE doubles and
  // LEB128 varints; these exact bytes must never drift.
  Buffer out;
  put_u32(out, 0x01020304u);
  put_u64(out, 0x0102030405060708ULL);
  put_double(out, 1.5);  // 0x3ff8000000000000
  put_double(out, -0.0);
  put_varint(out, 0);
  put_varint(out, 300);
  put_varint(out, ~0ULL);
  const Buffer want = {
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // 1.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x00,                                            // varint 0
      0xac, 0x02,                                      // varint 300
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_EQ(out, want);
}

TEST(CodecTest, AnswerDigestIsPinned) {
  // A fixed small answer — cells of two resolutions, an empty attribute,
  // awkward doubles — whose canonical bytes were pinned before the bulk
  // encoder replaced per-byte appends.
  CellSummaryMap cells;
  const TemporalBin hour(TemporalRes::Hour, 2015, 2, 2, 13);
  for (std::size_t i = 0; i < 6; ++i) {
    std::string gh = "9q8y";
    gh.push_back(geohash::kAlphabet[i * 5]);
    Summary s(4);
    for (int k = 0; k <= static_cast<int>(i); ++k) {
      const double obs[4] = {273.15 + 0.1 * k, -1.0 / (k + 3), 1e-300 * k,
                             static_cast<double>(i) * 1e12};
      s.add_observation(obs, 4);
    }
    cells.emplace(CellKey(gh, i % 2 == 0 ? kDay : hour), std::move(s));
  }
  std::vector<AttributeSummary> attrs(2);
  attrs[0].count = attrs[1].count = 0;
  cells.emplace(CellKey("dr5", kDay), Summary::from_attributes(attrs));
  const Buffer bytes = exec::canonical_answer(cells);
  EXPECT_EQ(bytes.size(), 885u);
  EXPECT_EQ(exec::answer_digest(cells, kChecksumSeed), 0x19f53134bf9c254dULL);
}

TEST(CodecTest, TruncatedInputThrows) {
  Buffer buffer;
  put_u64(buffer, 42);
  buffer.pop_back();
  Reader reader(buffer);
  EXPECT_THROW((void)reader.u64(), std::out_of_range);
}

TEST(CodecTest, VarintOverflowThrows) {
  Buffer buffer(11, 0xff);  // unterminated 11-byte varint
  Reader reader(buffer);
  EXPECT_THROW((void)reader.varint(), std::exception);
}

TEST(CodecTest, CellKeyRoundTrip) {
  const CellKey key("9q8y7z", kDay);
  Buffer buffer;
  encode(buffer, key);
  Reader reader(buffer);
  EXPECT_EQ(decode_cell_key(reader), key);
}

TEST(CodecTest, CellKeyValidationOnDecode) {
  Buffer buffer;
  put_u64(buffer, 0);  // length nibble 0: invalid geohash packing
  put_u32(buffer, kDay.pack());
  Reader reader(buffer);
  EXPECT_THROW((void)decode_cell_key(reader), std::invalid_argument);
}

TEST(CodecTest, SummaryRoundTrip) {
  Rng rng(1);
  Summary summary(kNamAttributeCount);
  for (int i = 0; i < 50; ++i) {
    double obs[kNamAttributeCount];
    for (auto& v : obs) v = rng.normal(0.0, 100.0);
    summary.add_observation(obs, kNamAttributeCount);
  }
  Buffer buffer;
  encode(buffer, summary);
  Reader reader(buffer);
  EXPECT_EQ(decode_summary(reader), summary);
}

TEST(CodecTest, EmptySummaryIsCompact) {
  const Summary empty(kNamAttributeCount);
  Buffer buffer;
  encode(buffer, empty);
  // 1 byte attr count + 1 byte zero-count per attribute.
  EXPECT_EQ(buffer.size(), 1u + kNamAttributeCount);
  Reader reader(buffer);
  EXPECT_EQ(decode_summary(reader), empty);
}

ChunkContribution sample_contribution(int cells) {
  ChunkContribution c;
  c.res = {6, TemporalRes::Day};
  c.chunk = ChunkKey("9q8y", kDay);
  Rng rng(7);
  for (int i = 0; i < cells; ++i) {
    std::string gh = "9q8y";
    gh.push_back(geohash::kAlphabet[static_cast<std::size_t>(i) % 32]);
    gh.push_back(geohash::kAlphabet[static_cast<std::size_t>(i / 32) % 32]);
    Summary s(kNamAttributeCount);
    double obs[kNamAttributeCount] = {rng.next_double(), rng.next_double(),
                                      rng.next_double(), rng.next_double()};
    s.add_observation(obs, kNamAttributeCount);
    c.cells.emplace_back(CellKey(gh, kDay), std::move(s));
  }
  c.days.push_back(c.chunk.first_day());
  return c;
}

TEST(CodecTest, ChunkContributionRoundTrip) {
  const ChunkContribution original = sample_contribution(40);
  Buffer buffer;
  encode(buffer, original);
  Reader reader(buffer);
  const ChunkContribution decoded = decode_chunk_contribution(reader);
  EXPECT_EQ(decoded.res, original.res);
  EXPECT_EQ(decoded.chunk, original.chunk);
  EXPECT_EQ(decoded.days, original.days);
  ASSERT_EQ(decoded.cells.size(), original.cells.size());
  for (std::size_t i = 0; i < decoded.cells.size(); ++i) {
    EXPECT_EQ(decoded.cells[i].first, original.cells[i].first);
    EXPECT_EQ(decoded.cells[i].second, original.cells[i].second);
  }
}

TEST(CodecTest, ReplicationPayloadRoundTrip) {
  std::vector<ChunkContribution> payload;
  payload.push_back(sample_contribution(12));
  payload.push_back(sample_contribution(0));  // known-empty chunk
  const Buffer buffer = encode_replication_payload(payload);
  const auto decoded = decode_replication_payload(buffer);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].cells.size(), 12u);
  EXPECT_TRUE(decoded[1].cells.empty());
  EXPECT_EQ(decoded[1].days, payload[1].days);
}

TEST(CodecTest, TrailingBytesRejected) {
  Buffer buffer = encode_replication_payload({sample_contribution(1)});
  buffer.push_back(0);
  EXPECT_THROW((void)decode_replication_payload(buffer), std::out_of_range);
}

TEST(CodecTest, EncodedSizeMatchesActual) {
  const std::vector<ChunkContribution> payload{sample_contribution(17),
                                               sample_contribution(3)};
  EXPECT_EQ(encoded_size(payload), encode_replication_payload(payload).size());
}

TEST(CodecTest, PayloadInstallsIntoGraphExactly) {
  // End-to-end: encode a clique payload, decode it on the "helper", absorb
  // into a guest graph — the served cells must match the source bit-for-bit.
  StashGraph source;
  const auto contribution = sample_contribution(25);
  source.absorb(contribution, 0);
  const Buffer wire = encode_replication_payload({contribution});

  StashGraph guest;
  for (const auto& decoded : decode_replication_payload(wire))
    guest.absorb(decoded, 1000);
  for (const auto& [key, summary] : contribution.cells) {
    const Summary* found = guest.find_cell(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, summary);
  }
}

TEST(FrameTest, RoundTripEmptyAndNonEmpty) {
  for (const Buffer& payload :
       {Buffer{}, Buffer{0x42}, Buffer(300, 0xa5)}) {
    const Buffer frame = encode_frame(payload);
    EXPECT_EQ(frame.size(), payload.size() + kFrameOverhead);
    EXPECT_EQ(decode_frame(frame), payload);
  }
}

TEST(FrameTest, RejectsBadMagic) {
  Buffer frame = encode_frame({1, 2, 3});
  frame[0] ^= 0xff;
  EXPECT_THROW((void)decode_frame(frame), IntegrityError);
}

TEST(FrameTest, RejectsShortBuffer) {
  const Buffer frame = encode_frame({1, 2, 3});
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const Buffer prefix(frame.begin(), frame.begin() + static_cast<long>(n));
    EXPECT_THROW((void)decode_frame(prefix), IntegrityError) << "len " << n;
  }
}

TEST(FrameTest, RejectsTrailingBytes) {
  Buffer frame = encode_frame({1, 2, 3});
  frame.push_back(0);
  EXPECT_THROW((void)decode_frame(frame), IntegrityError);
}

TEST(FrameTest, RejectsHostileLengthBeforeAllocating) {
  // A 16-byte buffer claiming a 1 GiB payload must be rejected on the
  // length check alone — decode_frame never allocates for a declared
  // length the buffer cannot back.
  Buffer frame;
  put_u32(frame, kFrameMagic);
  put_u32(frame, 1u << 30);
  put_u64(frame, 0);  // "checksum"
  EXPECT_THROW((void)decode_frame(frame), IntegrityError);
}

TEST(FrameTest, EverySingleBitFlipRejected) {
  // The tentpole guarantee: any one flipped bit anywhere in the frame —
  // magic, length, payload, or footer — is caught.
  Buffer payload;
  for (int i = 0; i < 29; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  const Buffer clean = encode_frame(payload);
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    Buffer frame = clean;
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW((void)decode_frame(frame), IntegrityError) << "bit " << bit;
  }
  EXPECT_EQ(decode_frame(clean), payload);  // and the clean frame still decodes
}

TEST(FrameTest, ReplicationFrameRoundTrip) {
  const std::vector<ChunkContribution> payload{sample_contribution(11),
                                               sample_contribution(5)};
  const Buffer frame = encode_replication_frame(payload);
  EXPECT_EQ(frame.size(),
            encode_replication_payload(payload).size() + kFrameOverhead);
  const auto decoded = decode_replication_frame(frame);
  ASSERT_EQ(decoded.size(), payload.size());
  EXPECT_EQ(encode_replication_payload(decoded),
            encode_replication_payload(payload));
}

TEST(FrameTest, ReplicationFrameFlipYieldsIntegrityErrorNotParseError) {
  // With the footer in place a flipped payload bit surfaces as the typed
  // IntegrityError — it never reaches the structural payload parser.
  Buffer frame = encode_replication_frame({sample_contribution(9)});
  frame[frame.size() / 2] ^= 0x10;
  EXPECT_THROW((void)decode_replication_frame(frame), IntegrityError);
}

}  // namespace
}  // namespace stash::codec
