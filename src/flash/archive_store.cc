#include "src/flash/archive_store.h"

#include <algorithm>
#include <map>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"

namespace presto {
namespace {

// Default aging summarizer: mean over windows of `factor` samples, timestamped at the
// window start. Preserves the low-frequency trend, drops detail.
std::vector<Sample> MeanDecimate(const std::vector<Sample>& samples, int factor) {
  std::vector<Sample> out;
  if (samples.empty() || factor <= 1) {
    return samples;
  }
  out.reserve(samples.size() / static_cast<size_t>(factor) + 1);
  for (size_t i = 0; i < samples.size(); i += static_cast<size_t>(factor)) {
    const size_t end = std::min(samples.size(), i + static_cast<size_t>(factor));
    double sum = 0.0;
    for (size_t j = i; j < end; ++j) {
      sum += samples[j].value;
    }
    out.push_back(Sample{samples[i].t, sum / static_cast<double>(end - i)});
  }
  return out;
}

}  // namespace

Status Validate(const ArchiveParams& params) {
  if (params.reserve_blocks < 1) {
    return InvalidArgumentError("archive: reserve_blocks must be at least 1");
  }
  if (params.aging_merge_blocks < 2 || params.aging_factor < 2) {
    return InvalidArgumentError(
        "archive: aging_merge_blocks and aging_factor must be at least 2");
  }
  return OkStatus();
}

ArchiveStore::ArchiveStore(FlashDevice* device, const ArchiveParams& params)
    : page_builder_(device->params().page_size_bytes),
      device_(device),
      params_(params),
      summarizer_(MeanDecimate) {
  PRESTO_CHECK(device_ != nullptr);
  PRESTO_CHECK_OK(Validate(params_));
  free_blocks_.reserve(static_cast<size_t>(device_->params().num_blocks));
  for (int b = device_->params().num_blocks - 1; b >= 0; --b) {
    free_blocks_.push_back(b);
  }
}

void ArchiveStore::SetSummarizer(AgingSummarizer summarizer) {
  PRESTO_CHECK(summarizer != nullptr);
  summarizer_ = std::move(summarizer);
}

Status ArchiveStore::Append(Sample sample) {
  if (has_last_append_ && sample.t < last_append_ts_) {
    return InvalidArgumentError("archive appends must be time-ordered");
  }
  PRESTO_RETURN_IF_ERROR(EnsureWritable());
  if (!page_builder_.Fits(sample.t, sample.value)) {
    PRESTO_RETURN_IF_ERROR(FlushPage());
    PRESTO_RETURN_IF_ERROR(EnsureWritable());
  }
  page_builder_.Add(sample.t, sample.value);
  last_append_ts_ = sample.t;
  has_last_append_ = true;
  ++stats_.records_appended;
  return OkStatus();
}

Status ArchiveStore::EnsureWritable() {
  if (!open_) {
    // Aging keeps headroom *before* we need a block, so appends rarely block on it.
    if (static_cast<int>(free_blocks_.size()) <= params_.reserve_blocks) {
      if (params_.aging_enabled) {
        const Status aged = RunAgingPass();
        if (!aged.ok() && free_blocks_.empty()) {
          ++stats_.appends_rejected;
          return aged;
        }
      } else if (free_blocks_.empty()) {
        ++stats_.appends_rejected;
        return ResourceExhaustedError("archive full and aging disabled");
      }
    }
    PRESTO_RETURN_IF_ERROR(OpenNewSegment(params_.nominal_sample_period));
  }
  return OkStatus();
}

Status ArchiveStore::OpenNewSegment(Duration resolution) {
  if (free_blocks_.empty()) {
    return ResourceExhaustedError("no free flash blocks");
  }
  open_segment_ = Segment{};
  open_segment_.block = free_blocks_.back();
  free_blocks_.pop_back();
  open_segment_.resolution = resolution;
  next_page_in_block_ = 0;
  open_ = true;
  return OkStatus();
}

Status ArchiveStore::FlushPage() {
  if (page_builder_.Empty()) {
    return OkStatus();
  }
  PRESTO_CHECK_MSG(open_, "no open segment");
  const SimTime first = page_builder_.first_ts();
  const SimTime last = page_builder_.last_ts();
  std::vector<uint8_t> image = page_builder_.Seal(next_seq_++, open_segment_.resolution);
  PRESTO_RETURN_IF_ERROR(
      device_->WritePage(PageOf(open_segment_, next_page_in_block_), image));
  if (open_segment_.pages_used == 0) {
    open_segment_.first_ts = first;
  }
  open_segment_.last_ts = last;
  open_segment_.page_first_ts.push_back(first);
  ++open_segment_.pages_used;
  ++next_page_in_block_;

  if (next_page_in_block_ >= PagesPerBlock()) {
    segments_.push_back(open_segment_);
    open_ = false;
  }
  return OkStatus();
}

Status ArchiveStore::Flush() {
  if (page_builder_.Empty()) {
    return OkStatus();
  }
  return FlushPage();
}

Status ArchiveStore::RunAgingPass() {
  // Age within a single resolution tier. Re-merging an already-aged summary with newer
  // raw data would compound its decimation every pass until the oldest history
  // collapses to a handful of points; keeping tiers separate builds the resolution
  // ladder of Ganesan et al. [10]. Tiers are contiguous runs of equal resolution
  // (summaries splice in place), so scan for runs and age the *largest* tier — that
  // both frees the most space and keeps any one tier from monopolizing the device.
  size_t begin = 0;
  size_t run_begin = 0;
  size_t best_begin = 0;
  size_t best_len = 0;
  for (size_t i = 1; i <= segments_.size(); ++i) {
    if (i == segments_.size() ||
        segments_[i].resolution != segments_[run_begin].resolution) {
      const size_t len = i - run_begin;
      // Prefer longer runs; break ties toward the finer (later) tier.
      if (len > best_len ||
          (len == best_len && len > 0 &&
           segments_[run_begin].resolution < segments_[best_begin].resolution)) {
        best_begin = run_begin;
        best_len = len;
      }
      run_begin = i;
    }
  }
  begin = best_begin;
  const int merge = std::min(params_.aging_merge_blocks, static_cast<int>(best_len));
  if (merge < 2) {
    return ResourceExhaustedError("archive full: nothing old enough to age");
  }

  // Every sealed segment holds records, so the summary needs at least one block.
  // Without one the pass fails below anyway; fail before decoding the merge.
  if (free_blocks_.empty()) {
    return ResourceExhaustedError("no reserve block for aging");
  }

  // Decode the `merge` oldest segments of the chosen tier in full.
  std::vector<Sample> samples;
  const Duration finest = segments_[begin].resolution;
  for (int i = 0; i < merge; ++i) {
    const Segment& seg = segments_[begin + static_cast<size_t>(i)];
    auto seg_samples = ReadSegment(seg, TimeInterval{seg.first_ts, seg.last_ts + 1});
    if (seg_samples.ok()) {
      samples.insert(samples.end(), seg_samples->begin(), seg_samples->end());
    }
  }
  std::vector<Sample> summary = summarizer_(samples, params_.aging_factor);
  PRESTO_CHECK_MSG(summary.size() <= samples.size(), "summarizer must not grow data");

  // Write the summary into reserved blocks. One merge pass writes at most
  // merge/aging_factor blocks (plus rounding), so the reserve is sufficient.
  const Duration new_resolution = finest * params_.aging_factor;
  std::vector<Segment> new_segments;
  {
    // Local mini-writer for summary segments.
    PageBuilder builder(device_->params().page_size_bytes);
    Segment seg{};
    int page_in_block = -1;  // -1 => no block allocated yet
    auto flush_summary_page = [&]() -> Status {
      if (builder.Empty()) {
        return OkStatus();
      }
      if (page_in_block < 0) {
        if (free_blocks_.empty()) {
          return ResourceExhaustedError("no reserve block for aging");
        }
        seg = Segment{};
        seg.block = free_blocks_.back();
        free_blocks_.pop_back();
        seg.resolution = new_resolution;
        page_in_block = 0;
      }
      const SimTime first = builder.first_ts();
      const SimTime last = builder.last_ts();
      std::vector<uint8_t> image = builder.Seal(next_seq_++, new_resolution);
      PRESTO_RETURN_IF_ERROR(
          device_->WritePage(seg.block * PagesPerBlock() + page_in_block, image));
      if (seg.pages_used == 0) {
        seg.first_ts = first;
      }
      seg.last_ts = last;
      seg.page_first_ts.push_back(first);
      ++seg.pages_used;
      ++page_in_block;
      if (page_in_block >= PagesPerBlock()) {
        new_segments.push_back(seg);
        page_in_block = -1;
      }
      return OkStatus();
    };

    for (const Sample& s : summary) {
      if (!builder.Fits(s.t, s.value)) {
        PRESTO_RETURN_IF_ERROR(flush_summary_page());
      }
      builder.Add(s.t, s.value);
    }
    PRESTO_RETURN_IF_ERROR(flush_summary_page());
    if (page_in_block >= 0) {
      new_segments.push_back(seg);
    }
  }

  // Reclaim the merged segments' blocks and splice the summary in their place (it
  // covers the same time span, so time order is preserved).
  for (int i = 0; i < merge; ++i) {
    const Segment& old = segments_[begin];
    PRESTO_RETURN_IF_ERROR(device_->EraseBlock(old.block));
    free_blocks_.push_back(old.block);
    segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(begin));
  }
  segments_.insert(segments_.begin() + static_cast<ptrdiff_t>(begin),
                   new_segments.begin(), new_segments.end());

  ++stats_.aging_passes;
  stats_.records_aged += summary.size();
  PLOG_DEBUG("archive: aging pass merged %d blocks -> %zu summary segments (res %lld us)",
             merge, new_segments.size(), static_cast<long long>(new_resolution));
  return OkStatus();
}

Result<std::vector<Sample>> ArchiveStore::ReadSegment(const Segment& seg,
                                                      TimeInterval range) {
  std::vector<Sample> out;
  std::vector<uint8_t> page(static_cast<size_t>(device_->params().page_size_bytes));
  for (int p = 0; p < seg.pages_used; ++p) {
    // Time index: skip pages entirely before/after the range. A page covers
    // [page_first_ts[p], page_first_ts[p+1] or segment end].
    if (seg.page_first_ts[static_cast<size_t>(p)] >= range.end) {
      break;
    }
    const SimTime page_end = (p + 1 < seg.pages_used)
                                 ? seg.page_first_ts[static_cast<size_t>(p + 1)]
                                 : seg.last_ts + 1;
    if (page_end <= range.start) {
      continue;
    }
    PRESTO_RETURN_IF_ERROR(device_->ReadPage(PageOf(seg, p), page));
    auto decoded = DecodePage(page);
    if (!decoded.ok()) {
      ++stats_.pages_skipped;
      continue;
    }
    for (const Sample& s : decoded->samples) {
      if (range.Contains(s.t)) {
        out.push_back(s);
        ++stats_.records_read;
      }
    }
  }
  return out;
}

Result<std::vector<Sample>> ArchiveStore::Query(TimeInterval range) {
  if (range.end <= range.start) {
    return InvalidArgumentError("empty query range");
  }
  std::vector<Sample> out;
  for (const Segment& seg : segments_) {
    if (seg.first_ts >= range.end) {
      break;
    }
    if (seg.last_ts < range.start) {
      continue;
    }
    auto part = ReadSegment(seg, range);
    if (!part.ok()) {
      return part.status();
    }
    out.insert(out.end(), part->begin(), part->end());
  }
  // Open segment pages already flushed plus the RAM tail.
  if (open_ && open_segment_.pages_used > 0) {
    auto part = ReadSegment(open_segment_, range);
    if (part.ok()) {
      out.insert(out.end(), part->begin(), part->end());
    }
  }
  // RAM tail: not yet sealed into a page. Decode from the builder by re-reading is not
  // possible; instead keep it simple — flush-on-query would distort energy accounting,
  // so the builder exposes nothing and the sensor layer calls Flush() before serving
  // archive queries. Documented in sensor_node.cc.
  return out;
}

Result<Duration> ArchiveStore::ResolutionAt(SimTime t) {
  for (const Segment& seg : segments_) {
    if (t >= seg.first_ts && t <= seg.last_ts) {
      return seg.resolution;
    }
  }
  if (open_ && open_segment_.pages_used > 0 && t >= open_segment_.first_ts &&
      t <= open_segment_.last_ts) {
    return open_segment_.resolution;
  }
  return NotFoundError("no archived data at that time");
}

Result<TimeInterval> ArchiveStore::RetainedRange() const {
  SimTime first = 0;
  SimTime last = 0;
  bool any = false;
  if (!segments_.empty()) {
    first = segments_.front().first_ts;
    last = segments_.back().last_ts;
    any = true;
  }
  if (open_ && open_segment_.pages_used > 0) {
    if (!any) {
      first = open_segment_.first_ts;
    }
    last = open_segment_.last_ts;
    any = true;
  }
  if (!any) {
    return NotFoundError("archive empty");
  }
  return TimeInterval{first, last + 1};
}

Status ArchiveStore::Mount() {
  segments_.clear();
  free_blocks_.clear();
  open_ = false;
  next_seq_ = 1;

  const int pages_per_block = PagesPerBlock();
  std::vector<uint8_t> page(static_cast<size_t>(device_->params().page_size_bytes));
  struct ScannedBlock {
    Segment segment;
    uint32_t first_seq = 0;
    bool partial = false;
  };
  std::vector<ScannedBlock> scanned;
  uint32_t max_seq = 0;
  for (int b = 0; b < device_->params().num_blocks; ++b) {
    Segment seg{};
    seg.block = b;
    uint32_t block_first_seq = 0;
    int pages_used = 0;
    for (int p = 0; p < pages_per_block; ++p) {
      if (!device_->IsPageWritten(b * pages_per_block + p)) {
        break;
      }
      PRESTO_RETURN_IF_ERROR(device_->ReadPage(b * pages_per_block + p, page));
      auto decoded = DecodePage(page);
      if (!decoded.ok()) {
        ++stats_.pages_skipped;
        break;  // torn tail: everything after the corruption in this block is suspect
      }
      if (pages_used == 0) {
        block_first_seq = decoded->header.seq;
        seg.first_ts = decoded->header.first_ts;
        seg.resolution = decoded->header.resolution;
      }
      seg.page_first_ts.push_back(decoded->header.first_ts);
      if (!decoded->samples.empty()) {
        seg.last_ts = decoded->samples.back().t;
      }
      max_seq = std::max(max_seq, decoded->header.seq);
      ++pages_used;
    }
    if (pages_used == 0) {
      free_blocks_.push_back(b);
      continue;
    }
    seg.pages_used = pages_used;
    scanned.push_back(
        ScannedBlock{std::move(seg), block_first_seq, pages_used < pages_per_block});
  }
  next_seq_ = max_seq + 1;

  // Resume appending in the *newest* partial block (by page seq); any older partial
  // block (possible only around a crash during aging) becomes a sealed short segment.
  const ScannedBlock* resume = nullptr;
  for (const ScannedBlock& sb : scanned) {
    if (sb.partial && (resume == nullptr || sb.first_seq > resume->first_seq)) {
      resume = &sb;
    }
  }
  if (resume != nullptr) {
    open_segment_ = resume->segment;
    open_ = true;
    next_page_in_block_ = resume->segment.pages_used;
  }
  for (const ScannedBlock& sb : scanned) {
    if (resume != nullptr && sb.segment.block == resume->segment.block) {
      continue;
    }
    segments_.push_back(sb.segment);
  }
  // Query paths assume time order, which block numbering does not give (aged summaries
  // live in recycled blocks).
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.first_ts < b.first_ts; });
  // Restore append-ordering state from whatever survived.
  has_last_append_ = false;
  last_append_ts_ = 0;
  for (const Segment& seg : segments_) {
    last_append_ts_ = std::max(last_append_ts_, seg.last_ts);
    has_last_append_ = true;
  }
  if (open_) {
    last_append_ts_ = std::max(last_append_ts_, open_segment_.last_ts);
    has_last_append_ = true;
  }
  PLOG_DEBUG("archive: mounted %zu segments, %zu free blocks, open=%d", segments_.size(),
             free_blocks_.size(), open_ ? 1 : 0);
  return OkStatus();
}

}  // namespace presto

namespace presto {

void ArchiveStore::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void ArchiveStore::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
