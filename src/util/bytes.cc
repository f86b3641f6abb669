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

void ByteReader::Fail(Status why) {
  if (ok()) {
    status_ = std::move(why);
  }
  pos_ = data_.size();
}

void ByteReader::FailShort(const char* message) {
  if (ok()) {
    Fail(OutOfRangeError(message));
  }
}

uint64_t ByteReader::ReadLongVarU64() {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (pos_ == data_.size()) {
      FailShort("ByteReader: truncated varint");
      return 0;
    }
    const uint8_t byte = data_[pos_++];
    // The tenth byte holds bit 63 alone: anything more would not fit a uint64_t.
    if (shift == 63 && byte > 1) {
      Fail(InvalidArgumentError("ByteReader: varint too long"));
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
  }
}

span<const uint8_t> ByteReader::ReadByteSpan() {
  const uint64_t len = ReadVarU64();
  if (remaining() < len) {
    FailShort("ByteReader: truncated byte array");
    return span<const uint8_t>();
  }
  const span<const uint8_t> out = data_.subspan(pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return out;
}

}  // namespace presto
