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
  size_t step = 1;
  while (static_cast<size_t>(end - from) > step) {
    const Iter probe = from + static_cast<ptrdiff_t>(step - 1);
    if (probe->t >= t) {
      return std::lower_bound(from, probe, t, before);
    }
    from = probe + 1;
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
  size_t step = 1;
  while (static_cast<size_t>(hi - begin) >= step) {
    const Iter probe = hi - static_cast<ptrdiff_t>(step);
    if (probe->t < t) {
      return std::lower_bound(probe + 1, hi, t, before);
    }
    hi = probe;
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
  const CachedValue v{value, source, inserted_at};
  if (size() == 0 || t > slots_.back().t) {
    last_insert_ = slots_.size();
    slots_.push_back(Slot{t, v});
  } else {
    const Iter at = InsertPosition(t);
    last_insert_ = static_cast<size_t>(at - slots_.cbegin());
    if (at->t == t) {
      CachedValue& existing = slots_[static_cast<size_t>(at - slots_.cbegin())].v;
      if (static_cast<uint8_t>(source) >= static_cast<uint8_t>(existing.source)) {
        existing = v;
        ++stats_.refinements;
      } else {
        ++stats_.downgrades_rejected;
      }
      return;
    }
    slots_.insert(at, Slot{t, v});
  }
  ++stats_.inserts;
  if (size() > max_entries_) {
    DropOldest(size() - max_entries_);
  }
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::NearestAround(
    Iter begin, Iter end, Iter after, SimTime t, Duration max_gap) {
  std::optional<std::pair<SimTime, CachedValue>> best;
  Duration best_gap = max_gap;
  if (after != end && after->t - t <= best_gap) {
    best_gap = after->t - t;
    best.emplace(after->t, after->v);
  }
  if (after != begin) {
    const Iter before = std::prev(after);
    if (t - before->t <= best_gap) {
      best.emplace(before->t, before->v);
    }
  }
  return best;
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
    out.push_back(Sample{it->t, it->v.value});
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
    out.push_back(Entry{it->t, it->v.value, it->v.source, it->v.inserted_at});
  }
  return out;
}

void SummaryCache::EvictBefore(SimTime t) {
  DropOldest(static_cast<size_t>(LowerBound(t) - live_begin()));
}

}  // namespace presto

namespace presto {

void CkptWrite(ByteWriter& w, const CachedValue& v) {
  w.WriteF64(v.value);
  CkptWrite(w, v.source);
  CkptWrite(w, v.inserted_at);
}

Status CkptRead(ByteReader& r, CachedValue& v) {
  auto value = r.ReadF64();
  if (!value.ok()) {
    return value.status();
  }
  v.value = *value;
  uint64_t source = 0;
  CKPT_READ(r, source);
  if (source > static_cast<uint64_t>(CacheSource::kPulled)) {
    return DataLossError("ckpt: cache source out of range");
  }
  v.source = static_cast<CacheSource>(source);
  CKPT_READ(r, v.inserted_at);
  return OkStatus();
}

// The bytes CkptWrite(std::map<SimTime, CachedValue>) writes: a varint count, then the
// (t, value) pairs in ascending t.
void SummaryCache::SaveState(ByteWriter& w) const {
  w.WriteVarU64(size());
  for (Iter it = live_begin(); it != slots_.end(); ++it) {
    CkptWrite(w, it->t);
    CkptWrite(w, it->v);
  }
  CkptWrite(w, stats_.inserts);
  CkptWrite(w, stats_.refinements);
  CkptWrite(w, stats_.downgrades_rejected);
  CkptWrite(w, stats_.evictions);
}

Status SummaryCache::LoadState(ByteReader& r) {
  // An entry is at least a 1-byte t, an 8-byte value and 1-byte source and arrival.
  constexpr uint64_t kMinEntryBytes = 11;
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining() / kMinEntryBytes) {
    return DataLossError("ckpt: summary-cache length exceeds section bytes");
  }
  std::vector<Slot> slots;
  slots.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    Slot slot;
    CKPT_READ(r, slot.t);
    CKPT_READ(r, slot.v);
    if (!slots.empty() && slot.t <= slots.back().t) {
      return DataLossError("ckpt: summary-cache keys not strictly ascending");
    }
    slots.push_back(slot);
  }
  slots_ = std::move(slots);
  head_ = 0;
  last_insert_ = 0;
  CKPT_READ(r, stats_.inserts);
  CKPT_READ(r, stats_.refinements);
  CKPT_READ(r, stats_.downgrades_rejected);
  CKPT_READ(r, stats_.evictions);
  return OkStatus();
}

}  // namespace presto
