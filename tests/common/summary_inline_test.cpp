// Inline Summary storage: schema-sized summaries (up to
// Summary::kInlineAttributes attributes) are built, copied, moved, merged
// and decoded without a heap allocation; wider ones spill to the heap and
// behave exactly as before.  Allocations are counted with a replaced
// global operator new, so this file is the only one in its test binary
// that replaces it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/summary.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace stash {
namespace {

std::vector<double> observation(std::size_t n, double scale) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = scale * static_cast<double>(i + 1) - 0.25;
  return v;
}

Summary filled(std::size_t n) {
  Summary s(n);
  for (int k = 1; k <= 3; ++k) {
    const std::vector<double> v = observation(n, 1.5 * k);
    s.add_observation(v.data(), n);
  }
  return s;
}

TEST(SummaryInlineTest, SchemaSizedSummariesNeverAllocate) {
  for (std::size_t n = 1; n <= Summary::kInlineAttributes; ++n) {
    const std::vector<double> obs = observation(n, 2.0);  // before counting
    const std::size_t before = g_allocations;
    Summary s(n);
    s.add_observation(obs.data(), n);
    Summary copy = s;
    copy.merge(s);
    Summary moved = std::move(copy);
    Summary assigned;
    assigned = moved;
    assigned.merge(moved);
    Summary empty;
    empty.merge(assigned);
    const Summary rebuilt = Summary::from_attributes(assigned.attributes());
    const std::size_t allocations = g_allocations - before;
    EXPECT_EQ(allocations, 0u) << "attributes=" << n;
    EXPECT_EQ(rebuilt, assigned);
    EXPECT_EQ(empty, assigned);
    EXPECT_EQ(assigned.observation_count(), 4u);
  }
}

TEST(SummaryInlineTest, WideSummariesSpillAndStillWork) {
  Summary a = filled(8);
  ASSERT_EQ(a.num_attributes(), 8u);
  EXPECT_EQ(a.observation_count(), 3u);
  Summary b = a;
  EXPECT_EQ(b, a);
  b.merge(a);
  EXPECT_EQ(b.observation_count(), 6u);
  EXPECT_EQ(b.attribute(7).count, 6u);
  EXPECT_NE(b, a);
  Summary c = std::move(b);
  EXPECT_EQ(c.observation_count(), 6u);
  EXPECT_EQ(b.num_attributes(), 0u);  // NOLINT(bugprone-use-after-move)
  c = a;
  EXPECT_EQ(c, a);
  EXPECT_THROW(c.merge(filled(4)), std::invalid_argument);
  EXPECT_THROW((void)c.attribute(8), std::out_of_range);
  EXPECT_NE(filled(4), filled(5));  // same leading stats, different width
}

TEST(SummaryInlineTest, ByteSizeKeepsTheCacheAccountingModel) {
  // The cache-capacity model: a 24-byte header plus one AttributeSummary
  // per attribute, whatever the object's real layout.
  EXPECT_EQ(Summary().byte_size(), 24u);
  EXPECT_EQ(Summary(1).byte_size(), 24u + sizeof(AttributeSummary));
  EXPECT_EQ(Summary(4).byte_size(), 24u + 4 * sizeof(AttributeSummary));
  EXPECT_EQ(Summary(8).byte_size(), 24u + 8 * sizeof(AttributeSummary));
}

TEST(SummaryInlineTest, CodecRoundTripsAreExact) {
  for (const std::size_t n : {1u, 4u, 5u, 8u}) {
    const Summary s = filled(n);
    codec::Buffer bytes;
    codec::encode(bytes, s);
    codec::Reader in(bytes);
    const Summary back = codec::decode_summary(in);
    EXPECT_EQ(back, s) << "attributes=" << n;
    EXPECT_EQ(back.num_attributes(), n);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST(SummaryInlineTest, SchemaSizedDecodeDoesNotAllocate) {
  const Summary s = filled(Summary::kInlineAttributes);
  codec::Buffer bytes;
  codec::encode(bytes, s);
  const std::size_t before = g_allocations;
  codec::Reader in(bytes);
  const Summary back = codec::decode_summary(in);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(back, s);
}

}  // namespace
}  // namespace stash
