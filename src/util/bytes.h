// Byte-level serialization.
//
// Everything that crosses a simulated radio link or is written to simulated flash is
// serialized through ByteWriter/ByteReader so that *sizes are real*: the energy model
// charges for exactly the bytes these encoders produce.

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

// Writes `v` as an LEB128 varint to `out` (room for kMaxVarU64Bytes); returns the
// length. ByteWriter::WriteVarU64 emits the same bytes.
int EncodeVarU64(uint64_t v, uint8_t* out);

// Length of `v`'s LEB128 encoding.
int VarU64Bytes(uint64_t v);

// Appends little-endian primitive encodings to a growable buffer.
class ByteWriter {
 public:
  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  void WriteF64(double v);

  // LEB128 variable-length unsigned integer (1 byte for < 128, etc.).
  void WriteVarU64(uint64_t v);
  // Zigzag-encoded signed varint; small magnitudes of either sign stay short.
  void WriteVarI64(int64_t v);

  // Length-prefixed (varint) raw bytes / string.
  void WriteBytes(span<const uint8_t> bytes);
  void WriteString(const std::string& s);

  // Room for `bytes` more without reallocating: an encoder that knows its size
  // writes into one allocation of exactly that size.
  void Reserve(size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Bounds-checked reader over a byte span. All reads return a Result; a short buffer is
// an error, never undefined behaviour. The span must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Result<uint64_t> ReadVarU64();
  Result<int64_t> ReadVarI64();
  Result<std::vector<uint8_t>> ReadBytes();
  // ReadBytes without the copy: a view into the reader's data.
  Result<span<const uint8_t>> ReadByteSpan();
  Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Need(size_t n) const { return remaining() >= n; }

  span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace presto

#endif  // SRC_UTIL_BYTES_H_
