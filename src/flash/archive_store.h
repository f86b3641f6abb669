// The PRESTO sensor's local archival file system (paper §4).
//
// An append-only, time-ordered store of sensor samples on the simulated flash device,
// with:
//  - a simple time-based index (per-segment, per-page first timestamps) so PAST-query
//    reads touch only the pages that cover the requested range;
//  - crash recovery: Mount() rebuilds all state from page headers and resumes appending
//    after the last intact page (torn pages are detected by checksum and skipped);
//  - graceful aging: when free space runs low, the oldest segments are decoded,
//    re-summarized at a coarser resolution (pluggable — wavelet-based multi-resolution
//    summarization is wired in by the sensor layer), rewritten compactly, and their
//    blocks reclaimed. Old data degrades in fidelity instead of disappearing.
//
// One segment == one flash block; a segment carries data at a single resolution.

#ifndef SRC_FLASH_ARCHIVE_STORE_H_
#define SRC_FLASH_ARCHIVE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/flash/page_codec.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sample.h"

namespace presto {

// Reduces `samples` by `factor` (e.g. 4x fewer samples covering the same span).
// The default is windowed averaging; the sensor layer substitutes wavelet
// multi-resolution summarization (Ganesan et al., cited as [10]).
using AgingSummarizer =
    std::function<std::vector<Sample>(const std::vector<Sample>& samples, int factor)>;

struct ArchiveParams {
  Duration nominal_sample_period = Seconds(31);  // resolution tag for raw segments
  bool aging_enabled = true;
  int reserve_blocks = 2;      // keep this many blocks erased for aging headroom
  int aging_merge_blocks = 4;  // oldest segments merged per aging pass
  int aging_factor = 4;        // resolution coarsening per pass
};

template <class S, class F, CkptSelf<S, ArchiveParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.nominal_sample_period);
  f(v.aging_enabled);
  f(v.reserve_blocks);
  f(v.aging_merge_blocks);
  f(v.aging_factor);
}

// ArchiveStore's construction rules (InvalidArgument when broken).
Status Validate(const ArchiveParams& params);

struct ArchiveStats {
  uint64_t records_appended = 0;
  uint64_t records_read = 0;
  uint64_t aging_passes = 0;
  uint64_t records_aged = 0;    // records rewritten at coarser resolution
  uint64_t pages_skipped = 0;   // corrupt pages ignored during reads/mount
  uint64_t appends_rejected = 0;
};

template <class S, class F, CkptSelf<S, ArchiveStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.records_appended);
  f(v.records_read);
  f(v.aging_passes);
  f(v.records_aged);
  f(v.pages_skipped);
  f(v.appends_rejected);
}

class ArchiveStore {
 public:
  // `device` must outlive the store. A fresh device is usable immediately; a device
  // with prior contents needs Mount() first.
  ArchiveStore(FlashDevice* device, const ArchiveParams& params);

  void SetSummarizer(AgingSummarizer summarizer);

  // Appends one sample; timestamps must be non-decreasing. May trigger an aging pass.
  // Fails with kResourceExhausted only when aging is disabled (or cannot free space).
  Status Append(Sample sample);

  // Persists the partially filled RAM page, if any. Appends continue afterwards.
  Status Flush();

  // All archived samples with t in [range.start, range.end), oldest first, at whatever
  // resolution now covers that span. Includes the unflushed RAM tail.
  Result<std::vector<Sample>> Query(TimeInterval range);

  // The nominal sample period of archived data covering `t` (kNotFound if none).
  Result<Duration> ResolutionAt(SimTime t);

  // Rebuilds segment index and append position by scanning flash. Call after a
  // simulated crash/reboot; the RAM page at crash time is lost by design.
  Status Mount();

  // Oldest and newest timestamps currently retained (kNotFound when empty).
  Result<TimeInterval> RetainedRange() const;

  int FreeBlocks() const { return static_cast<int>(free_blocks_.size()); }
  const ArchiveStats& stats() const { return stats_; }

  // Checkpoint codec: segment index, free list, open-segment state (including the
  // unflushed RAM page) and stats. The flash device underneath is checkpointed
  // separately; both must be restored for the store to be consistent.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  struct Segment {
    int block = 0;
    SimTime first_ts = 0;
    SimTime last_ts = 0;
    Duration resolution = 0;
    int pages_used = 0;
    std::vector<SimTime> page_first_ts;  // time index: first record per written page

    template <class S, class F, CkptSelf<S, Segment> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.block);
      f(v.first_ts);
      f(v.last_ts);
      f(v.resolution);
      f(v.pages_used);
      f(v.page_first_ts);
    }
  };

  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.stats_);
    f(self.segments_);
    f(self.free_blocks_);
    f(self.next_seq_);
    f(self.open_);
    f(self.open_segment_);
    f(self.next_page_in_block_);
    f(self.page_builder_);
    f(self.last_append_ts_);
    f(self.has_last_append_);
  }

  int PagesPerBlock() const { return device_->params().pages_per_block; }
  int PageOf(const Segment& seg, int page_in_block) const {
    return seg.block * PagesPerBlock() + page_in_block;
  }

  Status FlushPage();
  Status OpenNewSegment(Duration resolution);
  Status EnsureWritable();
  Status RunAgingPass();
  Result<std::vector<Sample>> ReadSegment(const Segment& seg, TimeInterval range);

  // What an append into an open page reads leads the object (cache layout).
  // open_ is false before first append / after mount of full device.
  bool open_ = false;
  bool has_last_append_ = false;
  SimTime last_append_ts_ = 0;  // enforces time-ordered appends across pages/segments
  PageBuilder page_builder_;
  ArchiveStats stats_;

  FlashDevice* device_;
  ArchiveParams params_;
  AgingSummarizer summarizer_;

  std::deque<Segment> segments_;  // oldest first
  std::vector<int> free_blocks_;
  uint32_t next_seq_ = 1;

  // The rest of the open segment's state.
  Segment open_segment_;
  int next_page_in_block_ = 0;
};

}  // namespace presto

#endif  // SRC_FLASH_ARCHIVE_STORE_H_
