#include "src/flash/page_codec.h"

#include <cstring>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/bytes.h"

namespace presto {
namespace {

// Millisecond-granularity delta encoding for archived timestamps.
int64_t ToDeltaMs(SimTime later, SimTime earlier) {
  return (later - earlier) / kMillisecond;
}

}  // namespace

uint16_t Fletcher16(span<const uint8_t> data) {
  // Deferred modulo: both sums are reduced once per block instead of per byte.
  // Entering a block with a, b <= 254, after n bytes b <= 254 + 254n +
  // 255n(n+1)/2, which stays below 2^32 for n <= 5802. The residues mod 255 are
  // those of the per-byte form, so the checksum is bit-identical.
  constexpr size_t kBlock = 5802;
  uint32_t a = 0;
  uint32_t b = 0;
  const uint8_t* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const size_t n = left < kBlock ? left : kBlock;
    for (size_t i = 0; i < n; ++i) {
      a += p[i];
      b += a;
    }
    a %= 255;
    b %= 255;
    p += n;
    left -= n;
  }
  return static_cast<uint16_t>((b << 8) | a);
}

PageBuilder::PageBuilder(int page_size_bytes) : page_size_(page_size_bytes) {
  PRESTO_CHECK(page_size_ > kPageHeaderBytes + 16);
}

uint64_t PageBuilder::DeltaMsOf(SimTime t) const {
  return static_cast<uint64_t>(ToDeltaMs(t, count_ == 0 ? t : last_ts_));
}

bool PageBuilder::Fits(SimTime t, double /*value*/) const {
  return static_cast<int>(records_.size()) + VarU64Bytes(DeltaMsOf(t)) + 4 <=
         page_size_ - kPageHeaderBytes;
}

void PageBuilder::Add(SimTime t, double value) {
  PRESTO_CHECK_MSG(count_ == 0 || t >= last_ts_, "archive records must be time-ordered");
  // Same bytes as ByteWriter::WriteVarU64 + WriteF32, without a heap buffer.
  uint8_t rec[kMaxVarU64Bytes + 4];
  int n = EncodeVarU64(DeltaMsOf(t), rec);
  const float f = static_cast<float>(value);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  for (int i = 0; i < 4; ++i) {
    rec[n++] = static_cast<uint8_t>(bits >> (8 * i));
  }
  const int capacity = page_size_ - kPageHeaderBytes;
  PRESTO_CHECK_MSG(static_cast<int>(records_.size()) + n <= capacity,
                   "record does not fit in page");
  if (count_ == 0) {
    // Millisecond storage granularity: remember the rounded value so deltas line up.
    first_ts_ = (t / kMillisecond) * kMillisecond;
    last_ts_ = first_ts_;
  } else {
    last_ts_ += ToDeltaMs(t, last_ts_) * kMillisecond;
  }
  records_.insert(records_.end(), rec, rec + n);
  ++count_;
}

std::vector<uint8_t> PageBuilder::Seal(uint32_t seq, Duration resolution) {
  ByteWriter w;
  CkptWrite(w, PageHeader{kPageMagic, seq, static_cast<uint16_t>(records_.size()),
                          Fletcher16(records_), first_ts_, resolution});
  std::vector<uint8_t> page = w.TakeBuffer();
  PRESTO_CHECK(static_cast<int>(page.size()) == kPageHeaderBytes);
  page.insert(page.end(), records_.begin(), records_.end());
  page.resize(static_cast<size_t>(page_size_), 0xFF);

  records_.clear();
  count_ = 0;
  first_ts_ = 0;
  last_ts_ = 0;
  return page;
}

Result<DecodedPage> DecodePage(span<const uint8_t> page) {
  bool all_ff = true;
  for (uint8_t byte : page) {
    if (byte != 0xFF) {
      all_ff = false;
      break;
    }
  }
  if (all_ff) {
    return NotFoundError("page is blank");
  }

  ByteReader r(page);
  DecodedPage out;
  CkptRead(r, out.header);
  if (out.header.magic != kPageMagic) {
    return DataLossError("bad page magic");
  }
  if (!r.ok()) {
    return DataLossError("truncated page header");
  }

  if (kPageHeaderBytes + out.header.used > static_cast<int>(page.size())) {
    return DataLossError("page used-length exceeds page size");
  }
  const span<const uint8_t> records =
      page.subspan(kPageHeaderBytes, out.header.used);
  if (Fletcher16(records) != out.header.checksum) {
    return DataLossError("page checksum mismatch (torn write?)");
  }

  ByteReader rec(records);
  SimTime t = out.header.first_ts;
  bool first = true;
  while (!rec.AtEnd()) {
    const uint64_t delta = rec.ReadVarU64();
    const float value = rec.ReadF32();
    if (!rec.ok()) {
      return DataLossError("truncated record");
    }
    if (first) {
      first = false;
    } else if (!AdvanceTime(t, delta, kMillisecond)) {
      return DataLossError("record time overflows");
    }
    out.samples.push_back(Sample{t, static_cast<double>(value)});
  }
  return out;
}

}  // namespace presto

namespace presto {

void PageBuilder::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void PageBuilder::LoadState(ByteReader& r) {
  StateFields(*this, CkptReader(r));
  if (records_.size() > static_cast<size_t>(page_size_)) {
    r.Fail(DataLossError("page builder restore: records exceed page size"));
  }
}

}  // namespace presto
