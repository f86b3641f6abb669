#include "src/proxy/summary_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

const char* CacheSourceName(CacheSource source) {
  switch (source) {
    case CacheSource::kExtrapolated:
      return "extrapolated";
    case CacheSource::kPushed:
      return "pushed";
    case CacheSource::kPulled:
      return "pulled";
  }
  return "?";
}

SummaryCache::SummaryCache(size_t max_entries) : max_entries_(max_entries) {
  PRESTO_CHECK(max_entries_ > 0);
}

SummaryCache::Iter SummaryCache::GallopForward(Iter from, Iter end, SimTime t) {
  const auto before = [](const Slot& slot, SimTime key) { return slot.t < key; };
  // Slots left in [from, end), counted down rather than re-derived per probe (a
  // 24-byte stride makes each iterator difference a division).
  size_t left = static_cast<size_t>(end - from);
  size_t step = 1;
  while (left > step) {
    const Iter probe = from + static_cast<ptrdiff_t>(step - 1);
    if (probe->t >= t) {
      return std::lower_bound(from, probe, t, before);
    }
    from = probe + 1;
    left -= step;
    step *= 2;
  }
  return std::lower_bound(from, end, t, before);
}

SummaryCache::Iter SummaryCache::LowerBound(SimTime t) const {
  const Iter begin = live_begin();
  const Iter end = slots_.end();
  if (begin == end || t <= begin->t) {
    return begin;
  }
  if (t > slots_.back().t) {
    return end;
  }
  // begin->t < t <= back().t, so the series spans a positive time and holds >= 2
  // entries. Guess the position as if the entries were evenly spaced in time, then
  // gallop from the guess in whichever direction the bound lies.
  const size_t last = size() - 1;
  const double fraction = static_cast<double>(t - begin->t) /
                          static_cast<double>(slots_.back().t - begin->t);
  const size_t guess =
      std::min(last, static_cast<size_t>(fraction * static_cast<double>(last)));
  Iter hi = begin + static_cast<ptrdiff_t>(guess);
  if (hi->t < t) {
    return GallopForward(hi + 1, end, t);
  }
  // hi->t >= t: gallop backward until a slot older than t brackets the bound.
  const auto before = [](const Slot& slot, SimTime key) { return slot.t < key; };
  size_t room = guess;  // slots in [begin, hi)
  size_t step = 1;
  while (room >= step) {
    const Iter probe = hi - static_cast<ptrdiff_t>(step);
    if (probe->t < t) {
      return std::lower_bound(probe + 1, hi, t, before);
    }
    hi = probe;
    room -= step;
    step *= 2;
  }
  return std::lower_bound(begin, hi, t, before);
}

SummaryCache::Window SummaryCache::View(TimeInterval range) const {
  const Iter first = LowerBound(range.start);
  // An inverted range gallops no further than `first`: the window is empty.
  return Window(range, live_begin(), first, GallopForward(first, slots_.end(), range.end),
                slots_.end());
}

SummaryCache::Iter SummaryCache::InsertPosition(SimTime t) const {
  if (last_insert_ >= head_ && last_insert_ < slots_.size() &&
      slots_[last_insert_].t < t) {
    return GallopForward(slots_.begin() + static_cast<ptrdiff_t>(last_insert_) + 1,
                         slots_.end(), t);
  }
  return LowerBound(t);
}

void SummaryCache::DropOldest(size_t n) {
  head_ += n;
  stats_.evictions += n;
  if (head_ >= size()) {
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_));
    last_insert_ = last_insert_ >= head_ ? last_insert_ - head_ : 0;
    head_ = 0;
  }
}

void SummaryCache::Insert(SimTime t, double value, CacheSource source,
                          SimTime inserted_at) {
  PRESTO_CHECK_MSG(inserted_at >= kMinInsertedAt && inserted_at <= kMaxInsertedAt,
                   "summary cache: arrival time outside the slot's range");
  const Slot slot(t, CachedValue{value, source, inserted_at});
  if (size() == 0 || t > slots_.back().t) {
    last_insert_ = slots_.size();
    slots_.push_back(slot);
  } else {
    const Iter at = InsertPosition(t);
    last_insert_ = static_cast<size_t>(at - slots_.cbegin());
    if (at->t == t) {
      Slot& existing = slots_[last_insert_];
      if (static_cast<uint8_t>(source) >= static_cast<uint8_t>(existing.source())) {
        existing = slot;
        ++stats_.refinements;
      } else {
        ++stats_.downgrades_rejected;
      }
      return;
    }
    slots_.insert(at, slot);
  }
  ++stats_.inserts;
  if (size() > max_entries_) {
    DropOldest(size() - max_entries_);
  }
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::NearestAround(
    Iter begin, Iter end, Iter after, SimTime t, Duration max_gap) {
  const Slot* best = nullptr;
  Duration best_gap = max_gap;
  if (after != end && after->t - t <= best_gap) {
    best_gap = after->t - t;
    best = &*after;
  }
  if (after != begin) {
    const Iter before = std::prev(after);
    if (t - before->t <= best_gap) {
      best = &*before;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return std::make_pair(best->t, best->cached());
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Nearest(
    SimTime t, Duration max_gap) const {
  return NearestAround(live_begin(), slots_.end(), LowerBound(t), t, max_gap);
}

double SummaryCache::Window::CoverageFraction(Duration expected_period) const {
  PRESTO_CHECK(expected_period > 0);
  const int64_t expected = std::max<int64_t>(1, range_.Length() / expected_period);
  const int64_t have = last_ - first_;
  return std::min(1.0, static_cast<double>(have) / static_cast<double>(expected));
}

std::vector<Sample> SummaryCache::Window::Samples() const {
  std::vector<Sample> out;
  out.reserve(size());
  for (Iter it = first_; it != last_; ++it) {
    out.push_back(Sample{it->t, it->value});
  }
  return out;
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Window::WalkNearest(
    SimTime t, Duration max_gap) {
  PRESTO_DCHECK(t >= range_.start);
  PRESTO_DCHECK(cursor_ == begin_ || std::prev(cursor_)->t < t);
  cursor_ = GallopForward(cursor_, end_, t);
  return NearestAround(begin_, end_, cursor_, t, max_gap);
}

std::vector<SummaryCache::Entry> SummaryCache::RangeEntries(TimeInterval range) const {
  const Window window = View(range);
  std::vector<Entry> out;
  out.reserve(window.size());
  for (Iter it = window.first_; it != window.last_; ++it) {
    const CachedValue v = it->cached();
    out.push_back(Entry{it->t, v.value, v.source, v.inserted_at});
  }
  return out;
}

void SummaryCache::EvictBefore(SimTime t) {
  DropOldest(static_cast<size_t>(LowerBound(t) - live_begin()));
}

}  // namespace presto

namespace presto {

// The live slots as a list of {t, CachedValue} (a varint count, then each entry's
// t and its CachedValue field list, ascending in t), then the stats.
void SummaryCache::SaveState(ByteWriter& w) const {
  w.WriteVarU64(size());
  for (Iter it = live_begin(); it != slots_.end(); ++it) {
    CkptWrite(w, it->t);
    CkptWrite(w, it->cached());
  }
  CkptWrite(w, stats_);
}

void SummaryCache::LoadState(ByteReader& r) {
  const uint64_t count = CkptReadCount(r, "vector");
  std::vector<Slot> slots;
  slots.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    SimTime t = 0;
    CachedValue v;
    CkptRead(r, t);
    CkptRead(r, v);
    if (!r.ok()) {
      return;
    }
    if (!slots.empty() && t <= slots.back().t) {
      return r.Fail(DataLossError("ckpt: summary-cache keys not strictly ascending"));
    }
    if (v.inserted_at < kMinInsertedAt || v.inserted_at > kMaxInsertedAt) {
      return r.Fail(DataLossError("ckpt: summary-cache arrival time out of range"));
    }
    slots.emplace_back(t, v);
  }
  if (!r.ok()) {
    return;
  }
  slots_ = std::move(slots);
  head_ = 0;
  last_insert_ = 0;
  CkptRead(r, stats_);
}

}  // namespace presto
