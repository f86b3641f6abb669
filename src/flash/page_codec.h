// On-flash page format for the PRESTO sensor archive.
//
// Each flash page is self-describing so the store can be remounted (and torn writes
// detected) by scanning headers alone:
//
//   magic(2) seq(4) used(2) checksum(2) first_ts(8) resolution(8) | records... | 0xFF pad
//
// Records are delta-encoded: varint milliseconds since the previous record (the first
// record is at first_ts exactly) followed by a float32 value. Millisecond granularity
// keeps archived deltas to 2-3 bytes at mote sampling rates.

#ifndef SRC_FLASH_PAGE_CODEC_H_
#define SRC_FLASH_PAGE_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sample.h"
#include "src/util/span.h"

namespace presto {

inline constexpr uint16_t kPageMagic = 0x5041;  // "PA"
inline constexpr int kPageHeaderBytes = 2 + 4 + 2 + 2 + 8 + 8;

struct PageHeader {
  uint16_t magic = kPageMagic;
  uint32_t seq = 0;         // global page sequence, for mount-time ordering
  uint16_t used = 0;        // bytes of record data following the header
  uint16_t checksum = 0;    // Fletcher-16 over the record bytes
  SimTime first_ts = 0;     // timestamp of the first record
  Duration resolution = 0;  // nominal sample period of this data (grows as data ages)
};

template <class S, class F, CkptSelf<S, PageHeader> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.magic));
  f(CkptFixed(v.seq));
  f(CkptFixed(v.used));
  f(CkptFixed(v.checksum));
  f(CkptFixed(v.first_ts));
  f(CkptFixed(v.resolution));
}

// Fletcher-16 checksum used to detect torn page programs.
uint16_t Fletcher16(span<const uint8_t> data);

// Incrementally packs records into one page worth of bytes.
class PageBuilder {
 public:
  explicit PageBuilder(int page_size_bytes);

  // True if a record at time `t` still fits. Call before Add. The value is a
  // fixed-width float32, so only `t` decides the record's size.
  bool Fits(SimTime t, double value) const;

  // Appends a record; timestamps must be non-decreasing within the page. Encodes the
  // record once, into a stack buffer.
  void Add(SimTime t, double value);

  bool Empty() const { return count_ == 0; }
  int count() const { return count_; }
  SimTime first_ts() const { return first_ts_; }
  SimTime last_ts() const { return last_ts_; }

  // Produces the final page image (exactly page_size_bytes) and resets the builder.
  std::vector<uint8_t> Seal(uint32_t seq, Duration resolution);

  // Checkpoint codec for the partially filled RAM page (page_size_ is construction
  // config and not serialized).
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.records_);
    f(self.count_);
    f(self.first_ts_);
    f(self.last_ts_);
  }

  // Millisecond delta of a record at `t` from the previous one (0 for the first).
  uint64_t DeltaMsOf(SimTime t) const;

  int page_size_;
  std::vector<uint8_t> records_;
  int count_ = 0;
  SimTime first_ts_ = 0;
  SimTime last_ts_ = 0;
};

// Result of parsing one page.
struct DecodedPage {
  PageHeader header;
  std::vector<Sample> samples;
};

// Parses and validates a page image. Unwritten (all-0xFF) pages yield kNotFound; corrupt
// pages (bad magic or checksum) yield kDataLoss.
Result<DecodedPage> DecodePage(span<const uint8_t> page);

}  // namespace presto

#endif  // SRC_FLASH_PAGE_CODEC_H_
