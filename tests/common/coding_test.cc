#include "common/coding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace retrasyn {
namespace {

TEST(VarintTest, RoundtripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 35) - 1,
                             1ull << 35,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(v, &buf);
    size_t offset = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &offset, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(VarintTest, RejectsTruncatedAndOverlongInput) {
  std::string buf;
  PutVarint64(std::numeric_limits<uint64_t>::max(), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t offset = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), cut, &offset, &out)) << cut;
  }
  // 11 continuation bytes can never be a valid 64-bit varint.
  const std::string overlong(11, '\x80');
  size_t offset = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(overlong.data(), overlong.size(), &offset, &out));
}

TEST(VarintTest, ZigzagRoundtripsNegatives) {
  const int64_t values[] = {0, -1, 1, -2, 886,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(CodingTest, FixedWidthIntegersAreLittleEndian) {
  std::string buf;
  PutFixed32(0x01020304u, &buf);
  PutFixed64(0x0102030405060708ull, &buf);
  EXPECT_EQ(buf, std::string("\x04\x03\x02\x01"
                             "\x08\x07\x06\x05\x04\x03\x02\x01",
                             12));
  EXPECT_EQ(GetFixed32(buf.data()), 0x01020304u);
  EXPECT_EQ(GetFixed64(buf.data() + 4), 0x0102030405060708ull);
  std::string high;
  PutFixed64(std::numeric_limits<uint64_t>::max(), &high);
  EXPECT_EQ(GetFixed64(high.data()), std::numeric_limits<uint64_t>::max());
}

TEST(CodingTest, DoublesKeepTheirExactBits) {
  const double values[] = {1.5, -2.25, -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity()};
  for (double v : values) {
    std::string buf;
    PutDouble(v, &buf);
    ASSERT_EQ(buf.size(), 8u);
    ByteReader r(buf.data(), buf.size());
    double out = 0.0;
    ASSERT_TRUE(r.GetDouble(&out));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(std::signbit(out), std::signbit(v));
    EXPECT_EQ(out, v);
  }
  // 1.5 is 0x3FF8000000000000: the sign/exponent byte comes last.
  std::string buf;
  PutDouble(1.5, &buf);
  EXPECT_EQ(buf, std::string("\0\0\0\0\0\0\xf8\x3f", 8));
}

TEST(CodingTest, Fnv1a64MatchesTheReferenceVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ByteReaderTest, EveryGetterRejectsTruncation) {
  std::string buf;
  PutFixed64(7, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(buf.data(), cut);
    uint64_t fixed = 0;
    double d = 0.0;
    EXPECT_FALSE(r.GetFixedU64(&fixed)) << cut;
    EXPECT_FALSE(r.GetDouble(&d)) << cut;
  }
  ByteReader empty(buf.data(), 0);
  uint8_t byte = 0;
  bool flag = false;
  uint64_t varint = 0;
  const char* bytes = nullptr;
  EXPECT_FALSE(empty.GetByte(&byte));
  EXPECT_FALSE(empty.GetBool(&flag));
  EXPECT_FALSE(empty.GetVarint(&varint));
  EXPECT_FALSE(empty.GetBytes(1, &bytes));
  EXPECT_TRUE(empty.GetBytes(0, &bytes));
  EXPECT_TRUE(empty.done());
}

TEST(ByteReaderTest, RejectsValuesThatDoNotFitTheirDestination) {
  const std::string two("\x02", 1);
  ByteReader bools(two.data(), two.size());
  bool flag = false;
  EXPECT_FALSE(bools.GetBool(&flag));

  std::string wide;
  PutVarint64(uint64_t{UINT32_MAX} + 1, &wide);
  ByteReader u32(wide.data(), wide.size());
  uint32_t value = 0;
  EXPECT_FALSE(u32.GetU32(&value));
}

TEST(ByteReaderTest, GetCountRefusesCountsTheBufferCannotHold) {
  // A count of 3 items at 4 bytes each needs 12 more bytes; 11 is too few.
  std::string buf;
  PutVarint64(3, &buf);
  buf.append(11, '\0');
  uint64_t count = 0;
  ByteReader short_reader(buf.data(), buf.size());
  EXPECT_FALSE(short_reader.GetCount(4, &count));
  buf.push_back('\0');
  ByteReader exact(buf.data(), buf.size());
  ASSERT_TRUE(exact.GetCount(4, &count));
  EXPECT_EQ(count, 3u);
  // A huge count with no bytes behind it is refused before any allocation.
  std::string huge;
  PutVarint64(std::numeric_limits<uint64_t>::max(), &huge);
  ByteReader absurd(huge.data(), huge.size());
  EXPECT_FALSE(absurd.GetCount(1, &count));
}

TEST(ByteReaderTest, ReadsAMixedSequenceAndReportsLeftovers) {
  std::string buf;
  buf.push_back(1);
  PutVarint64(ZigzagEncode(-886), &buf);
  PutFixed64(42, &buf);
  buf.append("xyz");
  ByteReader r(buf.data(), buf.size());
  bool flag = false;
  int64_t signed_value = 0;
  uint64_t fixed = 0;
  const char* bytes = nullptr;
  ASSERT_TRUE(r.GetBool(&flag) && r.GetSigned(&signed_value) &&
              r.GetFixedU64(&fixed) && r.GetBytes(2, &bytes));
  EXPECT_TRUE(flag);
  EXPECT_EQ(signed_value, -886);
  EXPECT_EQ(fixed, 42u);
  EXPECT_EQ(std::string(bytes, 2), "xy");
  EXPECT_FALSE(r.done());
  ASSERT_TRUE(r.GetBytes(1, &bytes));
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace retrasyn
