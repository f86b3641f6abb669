#include "src/util/bytes.h"

namespace presto {

void ByteWriter::WriteU8(uint8_t v) { buffer_.push_back(v); }

void ByteWriter::WriteU16(uint16_t v) {
  WriteU8(static_cast<uint8_t>(v));
  WriteU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::WriteU32(uint32_t v) {
  WriteU16(static_cast<uint16_t>(v));
  WriteU16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::WriteU64(uint64_t v) {
  WriteU32(static_cast<uint32_t>(v));
  WriteU32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::WriteF32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU32(bits);
}

void ByteWriter::WriteF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

int EncodeVarU64(uint64_t v, uint8_t* out) {
  int n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

int VarU64Bytes(uint64_t v) {
  int n = 1;
  for (; v >= 0x80; v >>= 7) {
    ++n;
  }
  return n;
}

void ByteWriter::WriteVarU64(uint64_t v) {
  uint8_t bytes[kMaxVarU64Bytes];
  buffer_.insert(buffer_.end(), bytes, bytes + EncodeVarU64(v, bytes));
}

void ByteWriter::WriteVarI64(int64_t v) {
  const uint64_t zigzag =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  WriteVarU64(zigzag);
}

void ByteWriter::WriteBytes(span<const uint8_t> bytes) {
  WriteVarU64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteString(const std::string& s) {
  WriteBytes(span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

Result<uint8_t> ByteReader::ReadU8() {
  if (!Need(1)) {
    return OutOfRangeError("ByteReader: buffer exhausted");
  }
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (!Need(2)) {
    return OutOfRangeError("ByteReader: buffer exhausted");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (!Need(4)) {
    return OutOfRangeError("ByteReader: buffer exhausted");
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (!Need(8)) {
    return OutOfRangeError("ByteReader: buffer exhausted");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v.ok()) {
    return v.status();
  }
  return static_cast<int64_t>(*v);
}

Result<float> ByteReader::ReadF32() {
  auto bits = ReadU32();
  if (!bits.ok()) {
    return bits.status();
  }
  float v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Result<double> ByteReader::ReadF64() {
  auto bits = ReadU64();
  if (!bits.ok()) {
    return bits.status();
  }
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Result<uint64_t> ByteReader::ReadVarU64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (!Need(1)) {
      return OutOfRangeError("ByteReader: truncated varint");
    }
    if (shift >= 64) {
      return InvalidArgumentError("ByteReader: varint too long");
    }
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

Result<int64_t> ByteReader::ReadVarI64() {
  auto zigzag = ReadVarU64();
  if (!zigzag.ok()) {
    return zigzag.status();
  }
  return static_cast<int64_t>((*zigzag >> 1) ^ (~(*zigzag & 1) + 1));
}

Result<span<const uint8_t>> ByteReader::ReadByteSpan() {
  auto len = ReadVarU64();
  if (!len.ok()) {
    return len.status();
  }
  if (!Need(*len)) {
    return OutOfRangeError("ByteReader: truncated byte array");
  }
  const span<const uint8_t> out = data_.subspan(pos_, static_cast<size_t>(*len));
  pos_ += static_cast<size_t>(*len);
  return out;
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes() {
  auto bytes = ReadByteSpan();
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::vector<uint8_t>(bytes->begin(), bytes->end());
}

Result<std::string> ByteReader::ReadString() {
  auto bytes = ReadBytes();
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::string(bytes->begin(), bytes->end());
}

}  // namespace presto
