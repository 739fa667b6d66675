// The one byte encoding behind every on-disk format and identity hash: the
// journal segment header and records, the journal BASE file, the framed
// checkpoint and history files, the grid Describe() blobs, the model-file
// grid hash and the deployment fingerprint.
//
//   fixed32 / fixed64   little-endian, whatever the host byte order
//   double              its IEEE-754 bit pattern as a fixed64, so a decoded
//                       value is the identical double (-0.0 and denormals too)
//   varint64            LEB128: 7 bits per byte, low group first
//   zigzag              signed -> unsigned so small magnitudes stay short
//   Fnv1a64             64-bit FNV-1a over a byte string
//
// The encoders are inline: the journal append path calls them per event.
// Decoding goes through ByteReader, which checks every read against the
// buffer end; raw GetFixed32/GetFixed64 are for callers that have already
// checked the length (a fixed-size header or frame).

#ifndef RETRASYN_COMMON_CODING_H_
#define RETRASYN_COMMON_CODING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace retrasyn {

// --- encoders ---------------------------------------------------------------

inline void PutFixed32(uint32_t value, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  out->append(buf, sizeof(buf));
}

inline void PutFixed64(uint64_t value, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  out->append(buf, sizeof(buf));
}

inline void PutDouble(double value, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(bits, out);
}

inline void PutVarint64(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// --- decoders ---------------------------------------------------------------

/// The fixed32 at \p p; the caller guarantees 4 readable bytes.
inline uint32_t GetFixed32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

/// The fixed64 at \p p; the caller guarantees 8 readable bytes.
inline uint64_t GetFixed64(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

/// Decodes the varint at \p *offset and advances past it. False when the
/// buffer ends mid-varint or the varint overflows 64 bits (\p *offset is
/// then unspecified).
inline bool GetVarint64(const char* data, size_t size, size_t* offset,
                        uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*offset >= size) return false;
    const uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    if (shift == 63 && byte > 1) return false;  // overflows 64 bits
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;
}

/// 64-bit FNV-1a over \p bytes.
inline uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

/// \brief Bounds-checked reader over an encoded buffer. Every getter returns
/// false on truncation or on a value that cannot fit its destination, so a
/// decoder can chain getters with && and fold any false into one error.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  /// True once every byte has been consumed (the trailing-bytes check).
  bool done() const { return offset_ == size_; }

  bool GetByte(uint8_t* value) {
    if (offset_ >= size_) return false;
    *value = static_cast<uint8_t>(data_[offset_++]);
    return true;
  }
  /// A byte that must be 0 or 1.
  bool GetBool(bool* value) {
    uint8_t b = 0;
    if (!GetByte(&b) || b > 1) return false;
    *value = (b == 1);
    return true;
  }
  bool GetFixedU64(uint64_t* value) {
    if (size_ - offset_ < 8) return false;
    *value = GetFixed64(data_ + offset_);
    offset_ += 8;
    return true;
  }
  bool GetDouble(double* value) {
    uint64_t bits = 0;
    if (!GetFixedU64(&bits)) return false;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }
  bool GetVarint(uint64_t* value) {
    return GetVarint64(data_, size_, &offset_, value);
  }
  /// A varint that must fit 32 bits.
  bool GetU32(uint32_t* value) {
    uint64_t raw = 0;
    if (!GetVarint(&raw) || raw > UINT32_MAX) return false;
    *value = static_cast<uint32_t>(raw);
    return true;
  }
  /// A zigzag varint.
  bool GetSigned(int64_t* value) {
    uint64_t raw = 0;
    if (!GetVarint(&raw)) return false;
    *value = ZigzagDecode(raw);
    return true;
  }
  /// A varint count that must leave at least \p min_bytes_per_item bytes
  /// per item: rejects absurd counts before any allocation can balloon.
  bool GetCount(size_t min_bytes_per_item, uint64_t* count) {
    if (!GetVarint(count)) return false;
    return min_bytes_per_item == 0 ||
           *count <= (size_ - offset_) / min_bytes_per_item;
  }
  /// Points \p *bytes at the next \p n raw bytes and skips past them.
  bool GetBytes(uint64_t n, const char** bytes) {
    if (n > size_ - offset_) return false;
    *bytes = data_ + offset_;
    offset_ += n;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_CODING_H_
