#include "src/util/bytes.h"

#include <algorithm>

namespace presto {

namespace {

// The first allocation of a writer that was not Reserve()d. Doubling from 32 lands on
// the powers of two std::vector's own growth reaches, so a buffer handed over and kept
// (a flash page, a mail body) holds as much spare capacity as a push_back writer's.
constexpr size_t kFirstCapacity = 32;

// The most room Grow() zero-fills past the written bytes at once. Spare capacity a
// writer never fills (up to half of a doubled allocation) stays untouched, so it
// costs no resident pages.
constexpr size_t kMaxRoomStep = 4096;

}  // namespace

void ByteWriter::Grow(size_t n) {
  const size_t need = size_ + n;
  const size_t capacity = buffer_.capacity();
  if (need > capacity) {
    Reallocate(std::max({need, 2 * capacity, kFirstCapacity}));
  }
  buffer_.resize(std::min(buffer_.capacity(), std::max(need, size_ + kMaxRoomStep)));
}

void ByteWriter::Reallocate(size_t capacity) {
  buffer_.resize(size_);  // the move copies the written bytes only
  buffer_.reserve(capacity);
}

Status ByteReader::Exhausted() { return OutOfRangeError("ByteReader: buffer exhausted"); }

Result<uint64_t> ByteReader::ReadLongVarU64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ == data_.size()) {
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

Result<span<const uint8_t>> ByteReader::ReadByteSpan() {
  auto len = ReadVarU64();
  if (!len.ok()) {
    return len.status();
  }
  if (remaining() < *len) {
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
  auto bytes = ReadByteSpan();
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::string(reinterpret_cast<const char*>(bytes->data()), bytes->size());
}

}  // namespace presto
