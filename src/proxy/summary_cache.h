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
// reclaimed in one move once they are as many as the live ones.
//
// Search: a lookup interpolates the position of `t` between the first and last live
// times and gallops from that guess to the exact lower bound. The bound is unique,
// so the guess only decides the cost: O(1) on a periodic series, O(log d) when the
// guess is d slots off, and never worse than about 2 log n. (perfbench `query`'s
// series are clustered, dense pulled ranges between sparse pushes; there a guess is
// ~36 slots off and a search costs about what a binary search does.) Inserts mostly
// come in ascending runs (a pulled range, a replica update, a snapshot), so an insert
// first tries to resume from the slot the previous insert wrote.
//
// Costs, for n live entries:
//   Insert             O(1) amortised when t is newer than every entry (append);
//                      otherwise a search plus an in-place shift of the later
//                      entries. Pulled archive records and replica updates land
//                      inside the series and are most of the inserts; in perfbench
//                      `query` a series holds ~420 entries, an in-place insert moves
//                      33 of them on average, and 98% of in-place inserts directly
//                      follow the previous insert, so their search is O(1)
//   Latest             O(1)
//   Nearest            one search
//   View(range)        one search for range.start, then a gallop forward to
//                      range.end; the window's size, coverage and samples are then
//                      O(1), O(1) and O(k) for k entries in range
//   Window::WalkNearest  amortised O(1) per probe for probes one sensing period apart
//                      (each resumes where the previous one stopped)
//   CoverageFraction / Range(Entries)  one View
//   EvictBefore        one search plus the amortised reclaim; cap eviction O(1)
//                      amortised

#ifndef SRC_PROXY_SUMMARY_CACHE_H_
#define SRC_PROXY_SUMMARY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sample.h"

namespace presto {

// Ascending authority: a kPulled record beats a kPushed one at the same instant, which
// beats an extrapolation.
enum class CacheSource : uint8_t {
  kExtrapolated = 0,
  kPushed = 1,
  kPulled = 2,
};
constexpr bool CkptEnumValid(CacheSource v) { return v <= CacheSource::kPulled; }

const char* CacheSourceName(CacheSource source);

struct CachedValue {
  double value = 0.0;
  CacheSource source = CacheSource::kPushed;
  SimTime inserted_at = 0;  // when the proxy learned this value (arrival, not data time)
};

template <class S, class F, CkptSelf<S, CachedValue> = 0>
void CkptFields(S& v, F&& f) {
  f(v.value);
  f(v.source);
  f(v.inserted_at);
}

struct CacheStats {
  uint64_t inserts = 0;
  uint64_t refinements = 0;      // an existing entry upgraded in authority/value
  uint64_t downgrades_rejected = 0;  // lower-authority duplicate ignored
  uint64_t evictions = 0;
};

template <class S, class F, CkptSelf<S, CacheStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.inserts);
  f(v.refinements);
  f(v.downgrades_rejected);
  f(v.evictions);
}

class SummaryCache {
 public:
  explicit SummaryCache(size_t max_entries = 1 << 20);

  // `inserted_at` records when the proxy learned the value — event-detection and
  // staleness logic distinguish data time from arrival time.
  void Insert(SimTime t, double value, CacheSource source, SimTime inserted_at = 0);

  // Entry closest to `t` within `max_gap` (either side); on a tie, the earlier one.
  std::optional<std::pair<SimTime, CachedValue>> Nearest(SimTime t,
                                                         Duration max_gap) const;

  // Most recent entry.
  std::optional<std::pair<SimTime, CachedValue>> Latest() const {
    if (size() == 0) {
      return std::nullopt;
    }
    return std::make_pair(slots_.back().t, slots_.back().v);
  }

 private:
  struct Slot {
    SimTime t = 0;
    CachedValue v;

    template <class S, class F, CkptSelf<S, Slot> = 0>
    friend void CkptFields(S& s, F&& f) {
      f(s.t);
      f(s.v);
    }
  };
  using Iter = std::vector<Slot>::const_iterator;

 public:
  // The live entries with t in [range.start, range.end), located once. A past query
  // reads its coverage, its samples and its per-period Nearest walk off one window.
  // Any mutation of the cache invalidates the window.
  class Window {
   public:
    size_t size() const { return static_cast<size_t>(last_ - first_); }
    // Fraction of the expected sample slots in the range that hold an entry, given
    // the sensor's sampling period; >1 clamps to 1.
    double CoverageFraction(Duration expected_period) const;
    std::vector<Sample> Samples() const;
    // Nearest(t, max_gap) for probe times t >= range.start that never decrease: each
    // probe resumes where the previous one stopped.
    std::optional<std::pair<SimTime, CachedValue>> WalkNearest(SimTime t,
                                                               Duration max_gap);

   private:
    friend class SummaryCache;
    Window(TimeInterval range, Iter begin, Iter first, Iter last, Iter end)
        : range_(range), begin_(begin), first_(first), last_(last), end_(end),
          cursor_(first) {}

    TimeInterval range_;
    Iter begin_;  // the live series
    Iter first_;  // the range
    Iter last_;
    Iter end_;
    Iter cursor_;  // every slot before it is older than the last probe
  };
  Window View(TimeInterval range) const;

  // All entries with t in [range.start, range.end), in time order.
  std::vector<Sample> Range(TimeInterval range) const { return View(range).Samples(); }

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
  double CoverageFraction(TimeInterval range, Duration expected_period) const {
    return View(range).CoverageFraction(expected_period);
  }

  void EvictBefore(SimTime t);

  size_t size() const { return slots_.size() - head_; }
  const CacheStats& stats() const { return stats_; }

  // Checkpoint codec: entries with provenance, plus stats (max_entries_ is config).
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  Iter live_begin() const { return slots_.begin() + static_cast<ptrdiff_t>(head_); }
  // First live slot with t >= `t`: the interpolation-seeded search.
  Iter LowerBound(SimTime t) const;
  // LowerBound for an insert. Pulled ranges, replica updates and snapshots insert
  // ascending runs, each record landing just after the previous one, so the search
  // resumes from the last insert whenever that slot is older than `t`.
  Iter InsertPosition(SimTime t) const;
  // First slot in [from, end) with t >= `t`, where every slot before `from` is older
  // than `t`: an exponential search forward, O(log d) for a bound d slots on.
  static Iter GallopForward(Iter from, Iter end, SimTime t);
  // The entry closest to `t` within `max_gap`, given `after` = the first slot in
  // [begin, end) with t >= `t`.
  static std::optional<std::pair<SimTime, CachedValue>> NearestAround(
      Iter begin, Iter end, Iter after, SimTime t, Duration max_gap);
  // Drops the first `n` live slots (oldest first), reclaiming the dead prefix once it
  // is as long as the live part.
  void DropOldest(size_t n);

  size_t max_entries_;
  std::vector<Slot> slots_;
  size_t head_ = 0;  // slots_[0, head_) are evicted
  size_t last_insert_ = 0;  // index of the slot the last Insert wrote or matched
  CacheStats stats_;
};

}  // namespace presto

#endif  // SRC_PROXY_SUMMARY_CACHE_H_
