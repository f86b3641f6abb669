// The proxy's per-sensor summary cache (paper §3).
//
// Not a memory or web cache: entries carry *provenance*. A value may be a real pushed
// observation, a pulled archive record, or a model extrapolation; higher-authority
// entries refine lower ones ("the summary data cache ... can be progressively refined
// as more accurate data is obtained from the remote sensors"). Timestamps are on the
// proxy's reference timeline (drift-corrected before insertion).
//
// Storage: one contiguous vector of {t, CachedValue} slots, strictly ascending in t.
// The live entries are slots_[head_, end); slots before head_ are evicted and are
// reclaimed in one move once they are as many as the live ones. Costs, for n live
// entries:
//   Insert             O(1) amortised when t is newer than every entry (append);
//                      O(log n) search plus an in-place shift of the later entries
//                      otherwise (pulled archive records and replica updates land
//                      inside the series, and they are most of the inserts; in
//                      perfbench `query` a series holds ~420 entries and such an
//                      insert moves 33 of them on average)
//   Nearest            O(log n)
//   CoverageFraction   O(log n): two binary searches and a subtraction
//   Range(Entries)     O(log n + k) into an exactly reserved vector of k entries
//   EvictBefore        O(log n) plus the amortised reclaim; cap eviction O(1) amortised

#ifndef SRC_PROXY_SUMMARY_CACHE_H_
#define SRC_PROXY_SUMMARY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/result.h"
#include "src/util/sample.h"

namespace presto {

class ByteReader;
class ByteWriter;

// Ascending authority: a kPulled record beats a kPushed one at the same instant, which
// beats an extrapolation.
enum class CacheSource : uint8_t {
  kExtrapolated = 0,
  kPushed = 1,
  kPulled = 2,
};

const char* CacheSourceName(CacheSource source);

struct CachedValue {
  double value = 0.0;
  CacheSource source = CacheSource::kPushed;
  SimTime inserted_at = 0;  // when the proxy learned this value (arrival, not data time)
};

// Checkpoint codec for cache entries (ADL overloads used by the container codecs).
void CkptWrite(ByteWriter& w, const CachedValue& v);
Status CkptRead(ByteReader& r, CachedValue& v);

struct CacheStats {
  uint64_t inserts = 0;
  uint64_t refinements = 0;      // an existing entry upgraded in authority/value
  uint64_t downgrades_rejected = 0;  // lower-authority duplicate ignored
  uint64_t evictions = 0;
};

class SummaryCache {
 public:
  explicit SummaryCache(size_t max_entries = 1 << 20);

  // `inserted_at` records when the proxy learned the value — event-detection and
  // staleness logic distinguish data time from arrival time.
  void Insert(SimTime t, double value, CacheSource source, SimTime inserted_at = 0);

  // Entry closest to `t` within `max_gap` (either side).
  std::optional<std::pair<SimTime, CachedValue>> Nearest(SimTime t,
                                                         Duration max_gap) const;

  // Most recent entry.
  std::optional<std::pair<SimTime, CachedValue>> Latest() const;

  // All entries with t in [range.start, range.end), in time order.
  std::vector<Sample> Range(TimeInterval range) const;

  // Range() with provenance, for consumers that must distinguish observed data from
  // extrapolations (e.g. event-detection scoring).
  struct Entry {
    SimTime t = 0;
    double value = 0.0;
    CacheSource source = CacheSource::kPushed;
    SimTime inserted_at = 0;
  };
  std::vector<Entry> RangeEntries(TimeInterval range) const;

  // Fraction of the expected sample slots in `range` that have a cached entry, given
  // the sensor's sampling period. >1 clamps to 1.
  double CoverageFraction(TimeInterval range, Duration expected_period) const;

  void EvictBefore(SimTime t);

  size_t size() const { return slots_.size() - head_; }
  const CacheStats& stats() const { return stats_; }

  // Checkpoint codec: entries with provenance, plus stats (max_entries_ is config).
  void SaveState(ByteWriter& w) const;
  Status LoadState(ByteReader& r);

 private:
  struct Slot {
    SimTime t = 0;
    CachedValue v;
  };
  using Iter = std::vector<Slot>::const_iterator;

  Iter live_begin() const { return slots_.begin() + static_cast<ptrdiff_t>(head_); }
  // First live slot with t >= `t`, searching [from, end).
  Iter LowerBound(Iter from, SimTime t) const;
  // Live slots with t in [range.start, range.end); empty when the range is inverted.
  std::pair<Iter, Iter> Span(TimeInterval range) const;
  // Drops the first `n` live slots (oldest first), reclaiming the dead prefix once it
  // is as long as the live part.
  void DropOldest(size_t n);

  size_t max_entries_;
  std::vector<Slot> slots_;
  size_t head_ = 0;  // slots_[0, head_) are evicted
  CacheStats stats_;
};

}  // namespace presto

#endif  // SRC_PROXY_SUMMARY_CACHE_H_
