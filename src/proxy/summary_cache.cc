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

SummaryCache::Iter SummaryCache::LowerBound(Iter from, SimTime t) const {
  return std::lower_bound(from, slots_.end(), t,
                          [](const Slot& slot, SimTime key) { return slot.t < key; });
}

std::pair<SummaryCache::Iter, SummaryCache::Iter> SummaryCache::Span(
    TimeInterval range) const {
  const Iter first = LowerBound(live_begin(), range.start);
  return {first, LowerBound(first, range.end)};
}

void SummaryCache::DropOldest(size_t n) {
  head_ += n;
  stats_.evictions += n;
  if (head_ >= size()) {
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

void SummaryCache::Insert(SimTime t, double value, CacheSource source,
                          SimTime inserted_at) {
  const CachedValue v{value, source, inserted_at};
  if (size() == 0 || t > slots_.back().t) {
    slots_.push_back(Slot{t, v});
  } else {
    const Iter at = LowerBound(live_begin(), t);
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

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Nearest(
    SimTime t, Duration max_gap) const {
  const Iter after = LowerBound(live_begin(), t);
  std::optional<std::pair<SimTime, CachedValue>> best;
  Duration best_gap = max_gap;
  if (after != slots_.end() && after->t - t <= best_gap) {
    best_gap = after->t - t;
    best.emplace(after->t, after->v);
  }
  if (after != live_begin()) {
    const Iter before = std::prev(after);
    if (t - before->t <= best_gap) {
      best.emplace(before->t, before->v);
    }
  }
  return best;
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Latest() const {
  if (size() == 0) {
    return std::nullopt;
  }
  return std::make_pair(slots_.back().t, slots_.back().v);
}

std::vector<Sample> SummaryCache::Range(TimeInterval range) const {
  const auto [first, last] = Span(range);
  std::vector<Sample> out;
  out.reserve(static_cast<size_t>(last - first));
  for (Iter it = first; it != last; ++it) {
    out.push_back(Sample{it->t, it->v.value});
  }
  return out;
}

std::vector<SummaryCache::Entry> SummaryCache::RangeEntries(TimeInterval range) const {
  const auto [first, last] = Span(range);
  std::vector<Entry> out;
  out.reserve(static_cast<size_t>(last - first));
  for (Iter it = first; it != last; ++it) {
    out.push_back(Entry{it->t, it->v.value, it->v.source, it->v.inserted_at});
  }
  return out;
}

double SummaryCache::CoverageFraction(TimeInterval range,
                                      Duration expected_period) const {
  PRESTO_CHECK(expected_period > 0);
  const int64_t expected = std::max<int64_t>(1, range.Length() / expected_period);
  const auto [first, last] = Span(range);
  const int64_t have = last - first;
  return std::min(1.0, static_cast<double>(have) / static_cast<double>(expected));
}

void SummaryCache::EvictBefore(SimTime t) {
  DropOldest(static_cast<size_t>(LowerBound(live_begin(), t) - live_begin()));
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
  CKPT_READ(r, stats_.inserts);
  CKPT_READ(r, stats_.refinements);
  CKPT_READ(r, stats_.downgrades_rejected);
  CKPT_READ(r, stats_.evictions);
  return OkStatus();
}

}  // namespace presto
