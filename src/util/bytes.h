// Byte-level serialization.
//
// Everything that crosses a simulated radio link or is written to simulated flash is
// serialized through ByteWriter/ByteReader so that *sizes are real*: the energy model
// charges for exactly the bytes these encoders produce. Radio messages, flash pages,
// fed_wire frames, checkpoints and FedMail bodies all ride these two classes, so their
// primitives are inline and allocation-free on the common path:
//
//   - ByteWriter writes through a pointer at its logical end, inside the vector's
//     allocation. Each write asks for exactly its own room (a varint for its encoded
//     length, not the 10-byte worst case); growth is geometric and takes the
//     allocation's spare capacity first, so Reserve()d room is used in place and an
//     encoder that reserves its exact size makes one exact-size allocation. The room
//     is zero-filled at most 4 KiB past the written bytes, so capacity a writer never
//     fills costs no resident pages.
//   - ByteReader's fixed-width and one-byte varint reads are a bounds check and a
//     load; only the failure (and the multi-byte varint loop) is out of line.
//
// The failure rule, for every decoder. A ByteReader keeps its first failure: a short
// read, a bad varint, or a semantic refusal its caller reports with Fail(). Every read
// returns a plain value; once the reader has failed, each later read returns zero (or
// empty) and consumes nothing, and Fail() keeps the first failure. A decoder therefore
// reads straight through its fields and whoever owns the byte span checks status()
// once at the end. The one care a decoder takes: a value read from the bytes that
// sizes an allocation, indexes a table or bounds a loop is used only once ok() holds
// (or after its own check against remaining()).

#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/span.h"

namespace presto {

// Longest LEB128 encoding of a uint64_t.
inline constexpr int kMaxVarU64Bytes = 10;

// Length of `v`'s LEB128 encoding: one byte per started group of 7 significant bits.
inline int VarU64Bytes(uint64_t v) {
  const int bits = 64 - __builtin_clzll(v | 1);
  return (bits + 6) / 7;
}

// Writes `v` as an LEB128 varint to `out` (room for VarU64Bytes(v)); returns the
// length. ByteWriter::WriteVarU64 emits the same bytes.
inline int EncodeVarU64(uint64_t v, uint8_t* out) {
  int n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

// Little-endian store/load of an unsigned integer, whatever the host's byte order.
template <typename T>
inline void StoreLe(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
template <typename T>
inline T LoadLe(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

// Appends little-endian primitive encodings to a growable buffer.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { *Claim(1) = v; }
  void WriteU16(uint16_t v) { StoreLe(Claim(2), v); }
  void WriteU32(uint32_t v) { StoreLe(Claim(4), v); }
  void WriteU64(uint64_t v) { StoreLe(Claim(8), v); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU32(bits);
  }
  void WriteF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }

  // LEB128 variable-length unsigned integer (1 byte for < 128, etc.).
  void WriteVarU64(uint64_t v) {
    if (v < 0x80) {
      *Claim(1) = static_cast<uint8_t>(v);
      return;
    }
    EncodeVarU64(v, Claim(static_cast<size_t>(VarU64Bytes(v))));
  }
  // Zigzag-encoded signed varint; small magnitudes of either sign stay short.
  void WriteVarI64(int64_t v) {
    WriteVarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  // Length-prefixed (varint) raw bytes / string.
  void WriteBytes(span<const uint8_t> bytes) { WriteBlob(bytes.data(), bytes.size()); }
  void WriteString(const std::string& s) {
    WriteBlob(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Room for `bytes` more without reallocating: an encoder that knows its size
  // writes into one allocation of exactly that size.
  void Reserve(size_t bytes) {
    if (buffer_.capacity() - size_ < bytes) {
      Reallocate(size_ + bytes);
    }
  }

  size_t size() const { return size_; }
  // The bytes written so far: exactly size() of them.
  const std::vector<uint8_t>& buffer() const {
    buffer_.resize(size_);
    return buffer_;
  }
  std::vector<uint8_t> TakeBuffer() {
    buffer_.resize(size_);
    size_ = 0;
    return std::move(buffer_);
  }

 private:
  size_t room() const { return buffer_.size() - size_; }

  // The next `n` bytes of the buffer, to be written by the caller.
  uint8_t* Claim(size_t n) {
    if (room() < n) {
      Grow(n);
    }
    uint8_t* out = buffer_.data() + size_;
    size_ += n;
    return out;
  }

  void WriteBlob(const uint8_t* data, size_t n) {
    WriteVarU64(n);
    if (n != 0) {
      std::memcpy(Claim(n), data, n);
    }
  }

  // Room for `n` more bytes: the allocation's spare capacity, else a geometric step.
  void Grow(size_t n);
  // Moves the written bytes into an allocation of exactly `capacity` bytes.
  void Reallocate(size_t capacity);

  // buffer_.size() is the room's end, inside the allocation; bytes [0, size_) are
  // written. buffer() trims it, hence mutable.
  mutable std::vector<uint8_t> buffer_;
  size_t size_ = 0;
};

// Bounds-checked reader over a byte span, under the failure rule above: a short
// buffer is a failure, never undefined behaviour. The span must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(span<const uint8_t> data) : data_(data) {}

  uint8_t ReadU8() { return ReadFixed<uint8_t, uint8_t>(); }
  uint16_t ReadU16() { return ReadFixed<uint16_t, uint16_t>(); }
  uint32_t ReadU32() { return ReadFixed<uint32_t, uint32_t>(); }
  uint64_t ReadU64() { return ReadFixed<uint64_t, uint64_t>(); }
  int64_t ReadI64() { return ReadFixed<int64_t, uint64_t>(); }
  float ReadF32() { return ReadFixed<float, uint32_t>(); }
  double ReadF64() { return ReadFixed<double, uint64_t>(); }
  uint64_t ReadVarU64() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) {
      return data_[pos_++];
    }
    return ReadLongVarU64();
  }
  int64_t ReadVarI64() {
    const uint64_t zigzag = ReadVarU64();
    return static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
  }
  std::vector<uint8_t> ReadBytes() {
    const span<const uint8_t> bytes = ReadByteSpan();
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
  }
  // ReadBytes without the copy: a view into the reader's data.
  span<const uint8_t> ReadByteSpan();
  std::string ReadString() {
    const span<const uint8_t> bytes = ReadByteSpan();
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  // The first failure wins: a later Fail() (or failed read) keeps it. Failing moves
  // the reader to its end, so nothing more is consumed.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void Fail(Status why);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  // A T whose little-endian bits are the next sizeof(Bits) bytes, or zero.
  template <typename T, typename Bits>
  T ReadFixed() {
    static_assert(sizeof(T) == sizeof(Bits));
    Bits bits = 0;
    if (remaining() >= sizeof(Bits)) {
      bits = LoadLe<Bits>(data_.data() + pos_);
      pos_ += sizeof(Bits);
    } else {
      FailShort("ByteReader: buffer exhausted");
    }
    T v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // The varint loop, for a varint of two or more bytes or a read at the end.
  uint64_t ReadLongVarU64();
  // Fails as OutOfRange with `message`, built only for the first failure.
  void FailShort(const char* message);

  span<const uint8_t> data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace presto

#endif  // SRC_UTIL_BYTES_H_
