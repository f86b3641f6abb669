// Behavioural tests for the PRESTO proxy: cache provenance, model lifecycle, the
// NOW/PAST query cascade, pulls, timeouts, time correction, and query-sensor matching.
// Uses real sensors on a two-node network (proxy id 1, sensor id 100).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <string>

#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/proxy/summary_cache.h"
#include "src/sensor/sensor_node.h"
#include "src/sim/simulator.h"
#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "tests/read_status.h"

namespace presto {
namespace {

double Diurnal(SimTime t) {
  return 20.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                               static_cast<double>(kDay));
}

// Records every answer a proxy hands back, keyed by query token.
struct RecordingClient : PullClient {
  std::map<uint64_t, QueryAnswer> answers;
  void OnPullDone(uint64_t token, QueryAnswer&& answer) override {
    answers[token] = std::move(answer);
  }
};

struct Rig {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<ProxyNode> proxy;
  std::unique_ptr<SensorNode> sensor;
  RecordingClient client;
  uint64_t next_token = 1;

  explicit Rig(ProxyMode mode = ProxyMode::kPresto,
               PushPolicy policy = PushPolicy::kModelDriven,
               SensorNode::MeasureFn measure = Diurnal, double drift_ppm = 0.0) {
    net = std::make_unique<Network>(&sim, NetworkParams{}, 6);

    ProxyNodeConfig pc;
    pc.id = 1;
    pc.mode = mode;
    pc.default_tolerance = 0.5;
    pc.manage_models = mode == ProxyMode::kPresto;
    pc.enable_matcher = false;
    proxy = std::make_unique<ProxyNode>(&sim, net.get(), pc);
    proxy->SetPullClient(&client);

    SensorNodeConfig sc;
    sc.id = 100;
    sc.proxy_id = 1;
    sc.policy = policy;
    sc.model_tolerance = 0.5;
    sc.drift_ppm = drift_ppm;
    sc.clock_offset = drift_ppm != 0.0 ? Seconds(1) : 0;
    sc.clock_jitter = Millis(1);
    sensor = std::make_unique<SensorNode>(&sim, net.get(), sc, std::move(measure));

    proxy->RegisterSensor(100, sc.sensing_period);
    proxy->Start();
    sensor->Start();
  }

  QueryAnswer Now(double tolerance, Duration latency_bound = Minutes(5)) {
    const uint64_t token = next_token++;
    proxy->QueryNow(100, tolerance, latency_bound, token);
    return Await(token);
  }

  QueryAnswer Past(TimeInterval range, double tolerance) {
    const uint64_t token = next_token++;
    proxy->QueryPast(100, range, tolerance, token);
    return Await(token);
  }

  // Steps until the answer for `token` lands (or the queue drains).
  QueryAnswer Await(uint64_t token) {
    while (client.answers.count(token) == 0 && sim.Step()) {
    }
    return client.answers[token];
  }
};

// ---------- SummaryCache unit behaviour ----------

TEST(SummaryCacheTest, ProvenanceRefinement) {
  SummaryCache cache;
  cache.Insert(100, 1.0, CacheSource::kExtrapolated);
  cache.Insert(100, 2.0, CacheSource::kPushed);  // upgrade
  cache.Insert(100, 3.0, CacheSource::kExtrapolated);  // downgrade rejected
  auto latest = cache.Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->second.value, 2.0);
  EXPECT_EQ(latest->second.source, CacheSource::kPushed);
  EXPECT_EQ(cache.stats().refinements, 1u);
  EXPECT_EQ(cache.stats().downgrades_rejected, 1u);
}

TEST(SummaryCacheTest, NearestAndCoverage) {
  SummaryCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Insert(i * Seconds(31), i, CacheSource::kPushed);
  }
  auto near = cache.Nearest(Seconds(100), Seconds(31));
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->second.value, 3.0);  // t=93 is closest
  EXPECT_FALSE(cache.Nearest(Hours(1), Seconds(31)).has_value());
  EXPECT_NEAR(cache.CoverageFraction(TimeInterval{0, 10 * Seconds(31)}, Seconds(31)),
              1.0, 0.01);
  EXPECT_LT(cache.CoverageFraction(TimeInterval{0, Hours(1)}, Seconds(31)), 0.1);
}

TEST(SummaryCacheTest, EvictionCapsMemory) {
  SummaryCache cache(/*max_entries=*/100);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(i * kSecond, i, CacheSource::kPushed);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 900u);
  // Oldest went first.
  EXPECT_FALSE(cache.Nearest(0, Seconds(10)).has_value());
}

// The std::map implementation SummaryCache had before it became a flat vector: the
// oracle for the differential test below.
class MapCache {
 public:
  explicit MapCache(size_t max_entries) : max_entries_(max_entries) {}

  void Insert(SimTime t, double value, CacheSource source, SimTime inserted_at) {
    auto it = entries_.find(t);
    if (it != entries_.end()) {
      if (static_cast<uint8_t>(source) >= static_cast<uint8_t>(it->second.source)) {
        it->second = CachedValue{value, source, inserted_at};
        ++stats_.refinements;
      } else {
        ++stats_.downgrades_rejected;
      }
      return;
    }
    entries_.emplace(t, CachedValue{value, source, inserted_at});
    ++stats_.inserts;
    while (entries_.size() > max_entries_) {
      entries_.erase(entries_.begin());
      ++stats_.evictions;
    }
  }

  std::optional<std::pair<SimTime, CachedValue>> Nearest(SimTime t,
                                                         Duration max_gap) const {
    if (entries_.empty()) {
      return std::nullopt;
    }
    auto after = entries_.lower_bound(t);
    std::optional<std::pair<SimTime, CachedValue>> best;
    Duration best_gap = max_gap;
    if (after != entries_.end() && after->first - t <= best_gap) {
      best_gap = after->first - t;
      best = *after;
    }
    if (after != entries_.begin()) {
      auto before = std::prev(after);
      if (t - before->first <= best_gap) {
        best = *before;
      }
    }
    return best;
  }

  std::optional<std::pair<SimTime, CachedValue>> Latest() const {
    if (entries_.empty()) {
      return std::nullopt;
    }
    return *entries_.rbegin();
  }

  std::vector<SummaryCache::Entry> RangeEntries(TimeInterval range) const {
    std::vector<SummaryCache::Entry> out;
    for (auto it = entries_.lower_bound(range.start);
         it != entries_.end() && it->first < range.end; ++it) {
      out.push_back(SummaryCache::Entry{it->first, it->second.value, it->second.source,
                                        it->second.inserted_at});
    }
    return out;
  }

  double CoverageFraction(TimeInterval range, Duration expected_period) const {
    const int64_t expected = std::max<int64_t>(1, range.Length() / expected_period);
    int64_t have = 0;
    for (auto it = entries_.lower_bound(range.start);
         it != entries_.end() && it->first < range.end; ++it) {
      ++have;
    }
    return std::min(1.0, static_cast<double>(have) / static_cast<double>(expected));
  }

  void EvictBefore(SimTime t) {
    auto end = entries_.lower_bound(t);
    const size_t n = static_cast<size_t>(std::distance(entries_.begin(), end));
    entries_.erase(entries_.begin(), end);
    stats_.evictions += n;
  }

  void SaveState(ByteWriter& w) const {
    CkptWrite(w, entries_);
    CkptWrite(w, stats_.inserts);
    CkptWrite(w, stats_.refinements);
    CkptWrite(w, stats_.downgrades_rejected);
    CkptWrite(w, stats_.evictions);
  }

  size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }
  const std::map<SimTime, CachedValue>& entries() const { return entries_; }

 private:
  size_t max_entries_;
  std::map<SimTime, CachedValue> entries_;
  CacheStats stats_;
};

void ExpectSameEntry(const std::optional<std::pair<SimTime, CachedValue>>& got,
                     const std::optional<std::pair<SimTime, CachedValue>>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(got->first, want->first);
    EXPECT_EQ(got->second.value, want->second.value);
    EXPECT_EQ(got->second.source, want->second.source);
    EXPECT_EQ(got->second.inserted_at, want->second.inserted_at);
  }
}

void ExpectSameRange(const std::vector<SummaryCache::Entry>& got,
                     const std::vector<SummaryCache::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t);
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].source, want[i].source);
    EXPECT_EQ(got[i].inserted_at, want[i].inserted_at);
  }
}

void ExpectSameStats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.refinements, want.refinements);
  EXPECT_EQ(got.downgrades_rejected, want.downgrades_rejected);
  EXPECT_EQ(got.evictions, want.evictions);
}

std::vector<uint8_t> Saved(const SummaryCache& cache) {
  ByteWriter w;
  cache.SaveState(w);
  return w.TakeBuffer();
}

TEST(SummaryCacheTest, MatchesMapReference) {
  // A large cap never evicts on its own; 7 and 1 evict on almost every new key,
  // including keys inserted behind the oldest entry.
  for (const size_t cap : {size_t{1} << 20, size_t{7}, size_t{1}}) {
    SCOPED_TRACE(cap);
    SummaryCache cache(cap);
    MapCache oracle(cap);
    Pcg32 rng(0x5eed + cap);
    SimTime newest = 0;
    for (int op = 0; op < 6000; ++op) {
      SCOPED_TRACE(op);
      const auto source = static_cast<CacheSource>(rng.UniformInt(0, 2));
      const double value = rng.Uniform(-5.0, 30.0);
      const SimTime arrival = rng.UniformInt(0, 1 << 20);
      // A key already cached, if there is one: equal-t refinements and downgrades.
      auto existing = [&]() -> SimTime {
        if (oracle.size() == 0) {
          return rng.UniformInt(0, newest);
        }
        auto it = oracle.entries().lower_bound(rng.UniformInt(0, newest));
        return it == oracle.entries().end() ? oracle.entries().rbegin()->first
                                            : it->first;
      };
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1: {  // append
          newest += rng.UniformInt(1, 40);
          cache.Insert(newest, value, source, arrival);
          oracle.Insert(newest, value, source, arrival);
          break;
        }
        case 2:
        case 3: {  // out of order, anywhere up to just past the newest key
          const SimTime t = rng.UniformInt(0, newest + 5);
          newest = std::max(newest, t);
          cache.Insert(t, value, source, arrival);
          oracle.Insert(t, value, source, arrival);
          break;
        }
        case 4: {  // same t as a cached entry
          const SimTime t = existing();
          cache.Insert(t, value, source, arrival);
          oracle.Insert(t, value, source, arrival);
          break;
        }
        case 5: {  // Nearest exactly half way between two neighbours
          const SimTime a = existing();
          auto next = oracle.entries().upper_bound(a);
          const SimTime b = next == oracle.entries().end() ? a + 2 : next->first;
          const SimTime mid = a + (b - a) / 2;
          const Duration gap = (b - a) / 2 + rng.UniformInt(-1, 1);
          ExpectSameEntry(cache.Nearest(mid, gap), oracle.Nearest(mid, gap));
          break;
        }
        case 6: {
          const SimTime t = rng.UniformInt(-10, newest + 10);
          const Duration gap = rng.UniformInt(0, 50);
          ExpectSameEntry(cache.Nearest(t, gap), oracle.Nearest(t, gap));
          break;
        }
        case 7: {  // ranges, including empty and inverted ones
          const SimTime start = rng.UniformInt(-10, newest + 10);
          const SimTime end = start + rng.UniformInt(-20, 200);
          const TimeInterval range{start, end};
          ExpectSameRange(cache.RangeEntries(range), oracle.RangeEntries(range));
          const std::vector<Sample> samples = cache.Range(range);
          const std::vector<SummaryCache::Entry> want = oracle.RangeEntries(range);
          ASSERT_EQ(samples.size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(samples[i].t, want[i].t);
            EXPECT_EQ(samples[i].value, want[i].value);
          }
          const Duration period = rng.UniformInt(1, 20);
          EXPECT_EQ(cache.CoverageFraction(range, period),
                    oracle.CoverageFraction(range, period));
          break;
        }
        case 8: {
          if (rng.UniformInt(0, 9) == 0) {
            const SimTime t = rng.UniformInt(0, newest + 1);
            cache.EvictBefore(t);
            oracle.EvictBefore(t);
          }
          break;
        }
        default: {  // a run of out-of-order inserts into one window, like a pull reply
          const SimTime start = rng.UniformInt(0, newest);
          for (SimTime t = start; t < start + 60; t += rng.UniformInt(1, 7)) {
            cache.Insert(t, value, CacheSource::kPulled, arrival);
            oracle.Insert(t, value, CacheSource::kPulled, arrival);
          }
          newest = std::max(newest, start + 60);
          break;
        }
      }
      ASSERT_EQ(cache.size(), oracle.size());
      ExpectSameStats(cache.stats(), oracle.stats());
      ExpectSameEntry(cache.Latest(), oracle.Latest());
      if (op % 25 == 0 || op == 5999) {
        ByteWriter want;
        oracle.SaveState(want);
        ASSERT_EQ(Saved(cache), want.buffer());
      }
      if (HasFailure()) {
        return;
      }
    }
    // The saved bytes restore the same cache.
    const std::vector<uint8_t> bytes = Saved(cache);
    SummaryCache restored(cap);
    ByteReader reader(bytes);
    ASSERT_TRUE(ReadStatus(reader, restored).ok());
    EXPECT_EQ(Saved(restored), bytes);
  }
}

// One cache entry in the checkpoint layout, with the source as a raw varint.
void WriteEntry(ByteWriter& w, SimTime t, uint64_t source) {
  CkptWrite(w, t);
  w.WriteF64(21.5);
  w.WriteVarU64(source);
  CkptWrite(w, SimTime{7});
}

std::vector<uint8_t> CacheBlob(uint64_t count,
                               const std::vector<std::pair<SimTime, uint64_t>>& entries) {
  ByteWriter w;
  w.WriteVarU64(count);
  for (const auto& [t, source] : entries) {
    WriteEntry(w, t, source);
  }
  for (int stat = 0; stat < 4; ++stat) {
    w.WriteVarU64(0);
  }
  return w.TakeBuffer();
}

Status Load(const std::vector<uint8_t>& bytes) {
  SummaryCache cache;
  ByteReader reader(bytes);
  return ReadStatus(reader, cache);
}

TEST(SummaryCacheTest, LoadStateRejectsMalformedBytes) {
  EXPECT_TRUE(Load(CacheBlob(2, {{10, 0}, {20, 2}})).ok());
  // A planted source must not outrank kPulled or wrap around to kExtrapolated.
  EXPECT_EQ(Load(CacheBlob(2, {{10, 1}, {20, 3}})).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Load(CacheBlob(1, {{10, 256}})).code(), StatusCode::kDataLoss);
  // No writer produces unsorted or repeated keys.
  EXPECT_EQ(Load(CacheBlob(2, {{20, 1}, {10, 1}})).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Load(CacheBlob(2, {{10, 1}, {10, 2}})).code(), StatusCode::kDataLoss);
  // A count the remaining bytes cannot hold fails before anything is reserved.
  EXPECT_EQ(Load(CacheBlob(1000, {{10, 1}})).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Load(CacheBlob(uint64_t{1} << 62, {})).code(), StatusCode::kDataLoss);

  // Byte mutations of a real blob decode to a cache or to a typed error.
  SummaryCache source_cache;
  Pcg32 rng(99);
  for (int i = 0; i < 300; ++i) {
    source_cache.Insert(rng.UniformInt(0, Hours(6)), rng.Uniform(10.0, 30.0),
                        static_cast<CacheSource>(rng.UniformInt(0, 2)),
                        rng.UniformInt(0, Hours(6)));
  }
  const std::vector<uint8_t> blob = Saved(source_cache);
  ASSERT_TRUE(Load(blob).ok());
  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<uint8_t> bytes = blob;
    const auto at =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        bytes[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
        break;
      case 1:
        bytes[at] = static_cast<uint8_t>(rng.UniformInt(0, 255));
        break;
      case 2:
        bytes.resize(at);
        break;
      default:
        bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                     static_cast<uint8_t>(rng.UniformInt(0, 255)));
        break;
    }
    SummaryCache cache;
    ByteReader reader(bytes);
    const Status status = ReadStatus(reader, cache);
    if (status.ok()) {
      // Whatever decoded is a valid cache: it saves and restores again.
      ASSERT_TRUE(Load(Saved(cache)).ok()) << "trial " << trial;
    } else {
      const StatusCode code = status.code();
      ASSERT_TRUE(code == StatusCode::kDataLoss || code == StatusCode::kOutOfRange ||
                  code == StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << status.ToString();
    }
  }
}

// A slot packs the arrival time beside the source, so a restore refuses an arrival
// time the slot cannot hold, and the extremes it can hold round-trip.
TEST(SummaryCacheTest, RestoreRefusesAnArrivalTimeOutsideTheSlot) {
  auto blob = [](SimTime inserted_at) {
    ByteWriter w;
    w.WriteVarU64(1);
    CkptWrite(w, Seconds(31));
    CkptWrite(w, CachedValue{21.5, CacheSource::kPulled, inserted_at});
    for (int stat = 0; stat < 4; ++stat) {
      w.WriteVarU64(0);
    }
    return w.TakeBuffer();
  };
  EXPECT_EQ(Load(blob(int64_t{1} << 62)).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Load(blob(SummaryCache::kMaxInsertedAt + 1)).code(), StatusCode::kDataLoss);
  EXPECT_EQ(Load(blob(SummaryCache::kMinInsertedAt - 1)).code(), StatusCode::kDataLoss);
  const SimTime kHeld[] = {
      SummaryCache::kMinInsertedAt,
      -1,
      0,
      SummaryCache::kMaxInsertedAt,
  };
  for (const SimTime at : kHeld) {
    const std::vector<uint8_t> bytes = blob(at);
    SummaryCache cache;
    ByteReader reader(bytes);
    ASSERT_TRUE(ReadStatus(reader, cache).ok()) << at;
    const auto latest = cache.Latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->second.inserted_at, at);
    EXPECT_EQ(latest->second.source, CacheSource::kPulled);
    EXPECT_EQ(latest->second.value, 21.5);
    EXPECT_EQ(Saved(cache), bytes);
  }
  SummaryCache cache;
  EXPECT_DEATH(cache.Insert(Seconds(31), 21.5, CacheSource::kPushed, int64_t{1} << 62),
               "arrival time");
}

// The interpolation-seeded search and the forward Nearest walk, on the series shapes
// that stress a guess: near-periodic with jitter and holes, a sparse push series
// densely refilled out of order (BM_SummaryCacheFillHoles' shape), large gaps that
// skew the time-to-position map, one entry, and a head past evicted slots. The
// search must land where std::lower_bound does (seen through a window's size and its
// entries), and every walk probe must equal the per-probe Nearest of the map oracle.
TEST(SummaryCacheTest, SeededSearchAndWalkMatchTheReference) {
  constexpr Duration kPeriod = Seconds(31);
  struct Shape {
    const char* name;
    size_t cap;
    std::function<void(Pcg32&, const std::function<void(SimTime, CacheSource)>&)> fill;
  };
  const std::vector<Shape> shapes = {
      {"jittered", 1 << 20,
       [](Pcg32& rng, const std::function<void(SimTime, CacheSource)>& insert) {
         for (int64_t i = 0; i < 420; ++i) {
           if (rng.UniformInt(0, 9) != 0) {
             insert(i * kPeriod + rng.UniformInt(-Seconds(3), Seconds(3)),
                    CacheSource::kPushed);
           }
         }
       }},
      {"refilled", 1 << 20,
       [](Pcg32& rng, const std::function<void(SimTime, CacheSource)>& insert) {
         constexpr int64_t kSlots = Hours(36) / kPeriod;
         constexpr int64_t kWindow = Hours(3) / kPeriod;
         for (int64_t slot = 0; slot < kSlots; slot += 50) {
           insert(slot * kPeriod, CacheSource::kPushed);
         }
         std::vector<int64_t> windows;
         for (int64_t first = 0; first < kSlots; first += kWindow) {
           windows.push_back(first);
         }
         for (size_t i = windows.size() - 1; i > 0; --i) {
           std::swap(windows[i], windows[static_cast<size_t>(
                                     rng.UniformInt(0, static_cast<int64_t>(i)))]);
         }
         for (const int64_t first : windows) {
           for (int64_t slot = first; slot < std::min(first + kWindow, kSlots); ++slot) {
             insert(slot * kPeriod, CacheSource::kPulled);
           }
         }
       }},
      {"gaps", 1 << 20,
       [](Pcg32& rng, const std::function<void(SimTime, CacheSource)>& insert) {
         SimTime t = 0;
         for (int i = 0; i < 400; ++i) {
           t += rng.UniformInt(0, 19) == 0 ? rng.UniformInt(Hours(1), Days(3)) : kPeriod;
           insert(t, CacheSource::kPushed);
         }
       }},
      {"single", 1 << 20,
       [](Pcg32&, const std::function<void(SimTime, CacheSource)>& insert) {
         insert(Hours(5), CacheSource::kPushed);
       }},
      {"evicted_head", 300,
       [](Pcg32& rng, const std::function<void(SimTime, CacheSource)>& insert) {
         for (int64_t i = 0; i < 1000; ++i) {
           insert(i * kPeriod + rng.UniformInt(0, Seconds(5)), CacheSource::kPushed);
         }
       }},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    SummaryCache cache(shape.cap);
    MapCache oracle(shape.cap);
    Pcg32 rng(0xfeed);
    shape.fill(rng, [&](SimTime t, CacheSource source) {
      cache.Insert(t, 20.0 + static_cast<double>(t % 97), source, t);
      oracle.Insert(t, 20.0 + static_cast<double>(t % 97), source, t);
    });
    if (std::string(shape.name) == "evicted_head") {
      const SimTime cut = std::next(oracle.entries().begin(), 40)->first;
      cache.EvictBefore(cut);
      oracle.EvictBefore(cut);
    }
    ASSERT_EQ(Saved(cache), [&] {
      ByteWriter w;
      oracle.SaveState(w);
      return w.TakeBuffer();
    }());
    std::vector<SimTime> keys;
    for (const auto& [t, v] : oracle.entries()) {
      keys.push_back(t);
    }
    const SimTime lo = keys.front() - Hours(1);
    const SimTime hi = keys.back() + Hours(1);
    std::vector<SimTime> probes;
    for (const SimTime t : keys) {
      probes.insert(probes.end(), {t - 1, t, t + 1});
    }
    for (int i = 0; i < 2000; ++i) {
      probes.push_back(rng.UniformInt(lo, hi));
    }
    for (const SimTime t : probes) {
      const size_t at = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), t) - keys.begin());
      ASSERT_EQ(cache.View(TimeInterval{t, hi + 1}).size(), keys.size() - at) << t;
      const TimeInterval range{t, t + rng.UniformInt(-kPeriod, Hours(2))};
      ExpectSameRange(cache.RangeEntries(range), oracle.RangeEntries(range));
      ASSERT_EQ(cache.View(range).size(), oracle.RangeEntries(range).size());
    }
    // Past-query walks: one probe per period (or a coarser or finer stride) from a
    // random start, each against an independent per-probe search.
    for (int walk = 0; walk < 300; ++walk) {
      const SimTime start = rng.UniformInt(lo, hi);
      const TimeInterval range{start, start + rng.UniformInt(0, Hours(4))};
      const Duration stride = rng.UniformInt(1, 3) * kPeriod / 2;
      const Duration gap = rng.UniformInt(0, kPeriod);
      SummaryCache::Window window = cache.View(range);
      for (SimTime t = range.start; t < range.end; t += stride) {
        const auto walked = window.WalkNearest(t, gap);
        ExpectSameEntry(walked, oracle.Nearest(t, gap));
        ExpectSameEntry(walked, cache.Nearest(t, gap));
      }
      if (HasFailure()) {
        return;
      }
    }
  }
}

// ---------- proxy behaviour ----------

TEST(ProxyNodeTest, PushesPopulateCacheAndFitModel) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  const ProxyStats& stats = rig.proxy->stats();
  EXPECT_GT(stats.pushes_received, 20u);
  EXPECT_GE(stats.model_sends, 1u);
  ASSERT_NE(rig.sensor->model(), nullptr);
  EXPECT_EQ(rig.sensor->stats().model_updates, stats.model_sends);
  EXPECT_GT(rig.proxy->cache(100)->size(), 0u);
}

TEST(ProxyNodeTest, NowCascadeHitExtrapolatePull) {
  Rig rig;
  rig.sim.RunUntil(Days(2));  // model in place

  // Loose tolerance: extrapolation (pushes are rare with a good model, so the last
  // cached sample is typically stale).
  QueryAnswer loose = rig.Now(1.0);
  ASSERT_TRUE(loose.status.ok());
  EXPECT_TRUE(loose.source == AnswerSource::kExtrapolated ||
              loose.source == AnswerSource::kCacheHit);
  EXPECT_NEAR(loose.value, Diurnal(loose.completed_at), 1.0);

  // Tight tolerance: must pull from the sensor archive.
  QueryAnswer tight = rig.Now(0.05);
  ASSERT_TRUE(tight.status.ok());
  EXPECT_EQ(tight.source, AnswerSource::kSensorPull);
  EXPECT_NEAR(tight.value, Diurnal(tight.issued_at), 0.3);
  EXPECT_GT(tight.Latency(), Millis(100));  // paid the radio rendezvous

  // Immediately after the pull, the cache is fresh: a repeat query hits.
  QueryAnswer repeat = rig.Now(0.05);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_EQ(repeat.source, AnswerSource::kCacheHit);
  EXPECT_LT(repeat.Latency(), Millis(10));
}

TEST(ProxyNodeTest, PastCascadeAndRefinement) {
  Rig rig;
  rig.sim.RunUntil(Days(2));

  // Loose tolerance on a past range: the model extrapolates the suppressed gaps.
  const TimeInterval range{Days(1) + Hours(3), Days(1) + Hours(3) + Minutes(30)};
  QueryAnswer loose = rig.Past(range, 2.0);
  ASSERT_TRUE(loose.status.ok());
  EXPECT_NE(loose.source, AnswerSource::kFailed);
  ASSERT_FALSE(loose.samples.empty());

  // Tight tolerance: pulled from flash; afterwards the cache covers the range.
  QueryAnswer tight = rig.Past(range, 0.05);
  ASSERT_TRUE(tight.status.ok());
  EXPECT_EQ(tight.source, AnswerSource::kSensorPull);
  EXPECT_GT(rig.proxy->cache(100)->CoverageFraction(range, Seconds(31)), 0.9);
  for (const Sample& s : tight.samples) {
    EXPECT_NEAR(s.value, Diurnal(s.t), 0.3);
  }

  // And the same query again is now a cache hit (progressive refinement).
  QueryAnswer again = rig.Past(range, 0.05);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.source, AnswerSource::kCacheHit);
}

TEST(ProxyNodeTest, PullTimeoutWhenSensorDead) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  rig.net->SetNodeDown(100, true);
  QueryAnswer answer = rig.Now(0.05, /*latency_bound=*/Minutes(1));
  EXPECT_FALSE(answer.status.ok());
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rig.proxy->stats().pull_timeouts, 1u);
}

TEST(ProxyNodeTest, ExtrapolationStillWorksWhenSensorDead) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  rig.net->SetNodeDown(100, true);
  // Loose query: the model answers even though the sensor is gone — availability from
  // prediction, the paper's §3 extrapolation story.
  QueryAnswer answer = rig.Now(1.5);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.source, AnswerSource::kExtrapolated);
}

TEST(ProxyNodeTest, TimestampsCorrectedDespiteDrift) {
  // 80 ppm fast clock + 1 s initial offset; proxy sync should absorb both.
  Rig rig(ProxyMode::kPresto, PushPolicy::kModelDriven, Diurnal, /*drift_ppm=*/80.0);
  rig.sim.RunUntil(Days(1));
  auto rms = rig.proxy->SyncResidualRms(100);
  ASSERT_TRUE(rms.ok());
  EXPECT_LT(*rms, static_cast<double>(Seconds(1)));

  // Cached timestamps must be near true time despite the skewed stamps: the newest
  // entry cannot be far from a sensing tick ago.
  auto latest = rig.proxy->cache(100)->Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_LT(rig.sim.Now() - latest->first, Hours(3));
  EXPECT_LE(latest->first, rig.sim.Now());
}

TEST(ProxyNodeTest, CacheOnlyModeNeverPulls) {
  Rig rig(ProxyMode::kCacheOnly, PushPolicy::kEverySample);
  rig.sim.RunUntil(Hours(2));
  QueryAnswer now = rig.Now(0.01);
  ASSERT_TRUE(now.status.ok());
  EXPECT_EQ(now.source, AnswerSource::kCacheHit);
  QueryAnswer past = rig.Past(TimeInterval{Hours(1), Hours(1) + Minutes(10)}, 0.01);
  ASSERT_TRUE(past.status.ok());
  EXPECT_EQ(past.source, AnswerSource::kCacheHit);
  EXPECT_EQ(rig.proxy->stats().pulls, 0u);
}

TEST(ProxyNodeTest, AlwaysPullModeAlwaysAsksSensor) {
  Rig rig(ProxyMode::kAlwaysPull, PushPolicy::kNone);
  rig.sim.RunUntil(Hours(2));
  QueryAnswer now = rig.Now(2.0);
  ASSERT_TRUE(now.status.ok());
  EXPECT_EQ(now.source, AnswerSource::kSensorPull);
  EXPECT_EQ(rig.proxy->stats().cache_hits, 0u);
  EXPECT_EQ(rig.proxy->stats().extrapolations, 0u);
}

TEST(ProxyNodeTest, UnknownSensorFailsCleanly) {
  Rig rig;
  rig.proxy->QueryNow(999, 1.0, Seconds(10), /*token=*/7);
  ASSERT_EQ(rig.client.answers.count(7), 1u);  // fails synchronously
  const QueryAnswer& a = rig.client.answers[7];
  EXPECT_FALSE(a.status.ok());
  EXPECT_EQ(a.status.code(), StatusCode::kNotFound);
  rig.proxy->QueryPast(999, TimeInterval{0, Hours(1)}, 1.0, /*token=*/8);
  ASSERT_EQ(rig.client.answers.count(8), 1u);
  EXPECT_EQ(rig.client.answers[8].status.code(), StatusCode::kNotFound);
  // The read-only lookups answer "absent", as they did over the old map.
  EXPECT_FALSE(rig.proxy->ManagesSensor(999));
  EXPECT_FALSE(rig.proxy->IsReplicaFor(999));
  EXPECT_EQ(rig.proxy->SensorWindowLoad(999), 0u);
  EXPECT_EQ(rig.proxy->cache(999), nullptr);
  EXPECT_EQ(rig.proxy->engine(999), nullptr);
  EXPECT_EQ(rig.proxy->SyncResidualRms(999).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(rig.proxy->CachedRange(999, TimeInterval{0, Hours(1)}).empty());
  // An unregistered sensor leaves every lookup, and registering it again works.
  rig.proxy->RegisterSensor(555, Seconds(31), /*replica=*/true);
  EXPECT_TRUE(rig.proxy->IsReplicaFor(555));
  rig.proxy->UnregisterSensor(555);
  EXPECT_FALSE(rig.proxy->ManagesSensor(555));
  EXPECT_EQ(rig.proxy->cache(555), nullptr);
  rig.proxy->RegisterSensor(555, Seconds(31));
  EXPECT_EQ(rig.proxy->sensors(), (std::vector<NodeId>{100, 555}));
}

TEST(ProxyNodeDeathTest, UnknownSensorMutationsCheckFail) {
  Rig rig;
  EXPECT_DEATH(rig.proxy->PromoteSensor(999), "unknown sensor");
  EXPECT_DEATH(rig.proxy->SetReplicaTargets(999, {}), "unknown sensor");
  EXPECT_DEATH(rig.proxy->UnregisterSensor(999), "unregistering unknown sensor");
  EXPECT_DEATH(rig.proxy->RegisterSensor(100, Seconds(31)), "sensor already registered");
}

TEST(ProxyNodeTest, RestoreRejectsOutOfRangeQueryOrigin) {
  Rig rig(ProxyMode::kAlwaysPull, PushPolicy::kNone);
  rig.sim.RunUntil(Hours(2));
  constexpr uint64_t kToken = 0x5a5a5a;
  rig.proxy->QueryNow(100, 2.0, Minutes(5), kToken);
  ASSERT_EQ(rig.client.answers.count(kToken), 0u) << "the pull must still be pending";
  ByteWriter w;
  ASSERT_TRUE(rig.proxy->SaveState(w).ok());
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // The pending pull's origin is (kind kToken = 2, varint token).
  ByteWriter origin;
  origin.WriteVarU64(2);
  origin.WriteVarU64(kToken);
  const std::vector<uint8_t> needle = origin.TakeBuffer();
  const auto at = std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
  ASSERT_NE(at, bytes.end());
  ASSERT_EQ(std::search(at + 1, bytes.end(), needle.begin(), needle.end()), bytes.end());
  const auto load = [&bytes] {
    Rig fresh(ProxyMode::kAlwaysPull, PushPolicy::kNone);
    ByteReader r{span<const uint8_t>(bytes)};
    return ReadStatus(r, *fresh.proxy);
  };
  ASSERT_TRUE(load().ok()) << "the unplanted bytes restore";
  for (const uint8_t kind : {1, 3, 127}) {  // 1: the retired closure origin
    *at = kind;
    const Status planted = load();
    EXPECT_EQ(planted.code(), StatusCode::kDataLoss)
        << "origin " << int{kind} << ": " << planted.ToString();
  }
}

TEST(ProxyNodeTest, MatcherRetunesDutyCycleFromLatencyNeeds) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 8);
  ProxyNodeConfig pc;
  pc.id = 1;
  pc.enable_matcher = true;
  pc.manage_models = false;
  ProxyNode proxy(&sim, &net, pc);
  RecordingClient client;
  proxy.SetPullClient(&client);

  SensorNodeConfig sc;
  sc.id = 100;
  sc.proxy_id = 1;
  sc.policy = PushPolicy::kNone;
  sc.radio.lpl_interval = Seconds(4);
  SensorNode sensor(&sim, &net, sc, Diurnal);
  proxy.RegisterSensor(100, sc.sensing_period);
  proxy.Start();
  sensor.Start();

  const Duration before = net.LplInterval(100);
  // A stream of latency-critical queries (1 s bound).
  for (int i = 0; i < 5; ++i) {
    proxy.QueryNow(100, 2.0, Seconds(1), /*token=*/static_cast<uint64_t>(i));
  }
  sim.RunUntil(Minutes(3));  // let maintenance run and the config propagate
  const Duration after = net.LplInterval(100);
  EXPECT_LT(after, before);
  EXPECT_LE(after, Millis(400));  // ~ bound/4, clamped
  EXPECT_GE(proxy.stats().config_sends, 1u);
}

}  // namespace
}  // namespace presto
