#include "journal/event_codec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/crc32c.h"

/// Counts every heap allocation in this binary, so the encoder's
/// allocation-free claim is a measured number rather than prose.
std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace retrasyn {
namespace {

std::vector<JournalEvent> AllEventKinds() {
  return {
      JournalEvent::Enter(0, Point{0.0, 0.0}),
      JournalEvent::Enter(42, Point{-12.75, 9876.5}),
      JournalEvent::Enter(std::numeric_limits<uint64_t>::max(),
                          Point{1e300, -1e-300}),
      JournalEvent::Move(7, Point{3.25, -4.5}),
      JournalEvent::Quit(129),
      JournalEvent::Tick(),
  };
}

TEST(Crc32cTest, MatchesTheStandardTestVector) {
  // Pins the wire format to real CRC32C (Castagnoli): the canonical
  // check value for "123456789" — a polynomial/reflection refactor that
  // only self-checks would silently orphan every existing journal.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
}

TEST(EventCodecTest, RoundtripsEveryEventKind) {
  for (const JournalEvent& event : AllEventKinds()) {
    std::string buf;
    EncodeRecord(event, &buf);
    size_t offset = 0;
    JournalEvent out;
    ASSERT_TRUE(DecodeRecord(buf.data(), buf.size(), &offset, &out).ok())
        << JournalEventTypeName(event.type);
    EXPECT_EQ(out, event) << JournalEventTypeName(event.type);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(EventCodecTest, RoundtripsExactDoubleBits) {
  // Replay must relocate the identical coordinates; the codec ships raw
  // IEEE-754 bits, so even a denormal or negative zero survives.
  const double x = -0.0;
  const double y = std::numeric_limits<double>::denorm_min();
  std::string buf;
  EncodeRecord(JournalEvent::Move(1, Point{x, y}), &buf);
  size_t offset = 0;
  JournalEvent out;
  ASSERT_TRUE(DecodeRecord(buf.data(), buf.size(), &offset, &out).ok());
  EXPECT_EQ(std::signbit(out.location.x), std::signbit(x));
  EXPECT_EQ(out.location.y, y);
}

TEST(EventCodecTest, RoundtripsConcatenatedStream) {
  const std::vector<JournalEvent> events = AllEventKinds();
  std::string buf;
  for (const JournalEvent& e : events) EncodeRecord(e, &buf);
  size_t offset = 0;
  for (const JournalEvent& expected : events) {
    JournalEvent out;
    ASSERT_TRUE(DecodeRecord(buf.data(), buf.size(), &offset, &out).ok());
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(EventCodecTest, TruncationAtEveryByteIsOutOfRange) {
  std::string buf;
  EncodeRecord(JournalEvent::Enter(1234567, Point{1.5, -2.5}), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t offset = 0;
    JournalEvent out;
    const Status st = DecodeRecord(buf.data(), cut, &offset, &out);
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << "cut=" << cut;
    EXPECT_EQ(offset, 0u) << "offset must not advance on failure";
  }
}

TEST(EventCodecTest, BitFlipAnywhereIsDetected) {
  std::string pristine;
  EncodeRecord(JournalEvent::Enter(99, Point{10.0, 20.0}), &pristine);
  for (size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = pristine;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      size_t offset = 0;
      JournalEvent out;
      const Status st =
          DecodeRecord(corrupt.data(), corrupt.size(), &offset, &out);
      EXPECT_FALSE(st.ok()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(EventCodecTest, ChecksumMismatchIsIOError) {
  std::string buf;
  EncodeRecord(JournalEvent::Quit(3), &buf);
  buf[buf.size() - 1] = static_cast<char>(buf[buf.size() - 1] ^ 0x01);
  size_t offset = 0;
  JournalEvent out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &offset, &out).code(),
            StatusCode::kIOError);
}

// Hand-builds a record with a valid frame and CRC around \p payload.
std::string FrameRaw(const std::string& payload) {
  std::string buf;
  PutVarint64(payload.size(), &buf);
  buf.append(payload);
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  return buf;
}

TEST(EventCodecTest, UnknownTypeWithValidChecksumIsInvalidArgument) {
  // Type 250, and the retired type 5 (an AdvanceTo record, target zigzag -3).
  for (const std::string& payload :
       {std::string(1, static_cast<char>(250)), std::string("\x05\x05")}) {
    const std::string buf = FrameRaw(payload);
    size_t offset = 0;
    JournalEvent out;
    EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &offset, &out).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(EventCodecTest, TrailingPayloadBytesAreInvalidArgument) {
  // A Tick payload with an extra byte: well-framed, checksummed garbage.
  std::string payload;
  payload.push_back(static_cast<char>(JournalEventType::kTick));
  payload.push_back('\x00');
  const std::string buf = FrameRaw(payload);
  size_t offset = 0;
  JournalEvent out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &offset, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(EventCodecTest, ImplausibleLengthIsIOError) {
  // Far beyond any v1 payload, and zero (a zero-filled tail reads as one).
  for (const uint64_t length : {uint64_t{1} << 20, uint64_t{0}}) {
    std::string buf;
    PutVarint64(length, &buf);
    buf.append(8, '\x00');
    size_t offset = 0;
    JournalEvent out;
    EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &offset, &out).code(),
              StatusCode::kIOError)
        << "length " << length;
  }
}

TEST(EventCodecTest, EncodingIntoAReservedBufferAllocatesNothing) {
  // The journal encodes every accepted event on the append path. An
  // Enter/Move payload is longer than the small-string buffer, so a
  // per-record temporary would cost one heap allocation per event.
  constexpr int kRecords = 1000;
  const JournalEvent move =
      JournalEvent::Move(std::numeric_limits<uint64_t>::max(),
                         Point{-12.75, 9876.5});
  std::string buf;
  buf.reserve(static_cast<size_t>(kRecords) * 64);
  const uint64_t before = g_allocations.load();
  for (int i = 0; i < kRecords; ++i) EncodeRecord(move, &buf);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);

  size_t offset = 0;
  for (int i = 0; i < kRecords; ++i) {
    JournalEvent out;
    ASSERT_TRUE(DecodeRecord(buf.data(), buf.size(), &offset, &out).ok());
    EXPECT_EQ(out, move);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(EventCodecTest, SegmentHeaderRoundtripAndRejection) {
  constexpr uint64_t kFingerprint = 0xDEADBEEFCAFEF00Dull;
  std::string buf;
  AppendSegmentHeader(kFingerprint, &buf);
  ASSERT_EQ(buf.size(), kSegmentHeaderSize);
  size_t offset = 0;
  uint64_t fingerprint = 0;
  EXPECT_TRUE(
      CheckSegmentHeader(buf.data(), buf.size(), &offset, &fingerprint).ok());
  EXPECT_EQ(offset, kSegmentHeaderSize);
  EXPECT_EQ(fingerprint, kFingerprint);

  // Torn header.
  offset = 0;
  EXPECT_EQ(
      CheckSegmentHeader(buf.data(), buf.size() - 1, &offset, &fingerprint)
          .code(),
      StatusCode::kOutOfRange);

  // Bad magic.
  std::string bad = buf;
  bad[0] = 'X';
  offset = 0;
  EXPECT_EQ(
      CheckSegmentHeader(bad.data(), bad.size(), &offset, &fingerprint).code(),
      StatusCode::kInvalidArgument);

  // Future version.
  std::string future = buf;
  future[sizeof(kJournalMagic)] = 99;
  offset = 0;
  EXPECT_EQ(CheckSegmentHeader(future.data(), future.size(), &offset,
                               &fingerprint)
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace retrasyn
