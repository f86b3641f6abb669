// Tests for the distributed-index layer: skip graph (vs std::map ground truth),
// regression time sync, and order-preserving temporal merge.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/index/skip_graph.h"
#include "src/index/temporal_merge.h"
#include "src/index/time_sync.h"
#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/read_status.h"

namespace presto {
namespace {

// ---------- SkipGraph ----------

TEST(SkipGraphTest, BasicInsertSearch) {
  SkipGraph graph(1);
  graph.Insert(10, 100);
  graph.Insert(20, 200);
  graph.Insert(5, 50);
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_TRUE(graph.CheckInvariants());

  auto hit = graph.Search(20);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.value, 200u);
  auto miss = graph.Search(15);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.key, 10u);  // floor
}

TEST(SkipGraphTest, FloorSemantics) {
  SkipGraph graph(2);
  graph.Insert(100, 1);
  graph.Insert(200, 2);
  EXPECT_FALSE(graph.SearchFloor(50).found);
  EXPECT_EQ(graph.SearchFloor(150).key, 100u);
  EXPECT_EQ(graph.SearchFloor(200).key, 200u);
  EXPECT_EQ(graph.SearchFloor(999).key, 200u);
}

TEST(SkipGraphTest, InsertOverwrites) {
  SkipGraph graph(3);
  graph.Insert(7, 1);
  graph.Insert(7, 2);
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.Search(7).value, 2u);
}

TEST(SkipGraphTest, EraseUnlinksAllLevels) {
  SkipGraph graph(4);
  for (uint64_t k = 0; k < 200; ++k) {
    graph.Insert(k * 3, k);
  }
  for (uint64_t k = 0; k < 200; k += 2) {
    EXPECT_TRUE(graph.Erase(k * 3));
  }
  EXPECT_FALSE(graph.Erase(999999));
  EXPECT_TRUE(graph.CheckInvariants());
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(graph.Search(k * 3).found, k % 2 == 1) << k;
  }
}

TEST(SkipGraphTest, RangeQueryInOrder) {
  SkipGraph graph(5);
  for (uint64_t k = 0; k < 100; ++k) {
    graph.Insert(k * 10, k);
  }
  int hops = 0;
  auto out = graph.RangeQuery(95, 255, &hops);
  ASSERT_EQ(out.size(), 16u);  // 100,110,...,250
  EXPECT_EQ(out.front().first, 100u);
  EXPECT_EQ(out.back().first, 250u);
  EXPECT_GT(hops, 0);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

class SkipGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkipGraphPropertyTest, MatchesMapUnderRandomOps) {
  Pcg32 rng(GetParam());
  SkipGraph graph(GetParam() ^ 0xABCD);
  std::map<uint64_t, uint64_t> reference;
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.NextDouble();
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 500));
    if (roll < 0.5) {
      const uint64_t value = rng.NextU64();
      graph.Insert(key, value);
      reference[key] = value;
    } else if (roll < 0.7) {
      EXPECT_EQ(graph.Erase(key), reference.erase(key) > 0);
    } else if (roll < 0.9) {
      auto got = graph.Search(key);
      auto want = reference.find(key);
      EXPECT_EQ(got.found, want != reference.end());
      if (got.found && want != reference.end()) {
        EXPECT_EQ(got.value, want->second);
      }
    } else {
      auto got = graph.SearchFloor(key);
      auto want = reference.upper_bound(key);
      if (want == reference.begin()) {
        EXPECT_FALSE(got.found);
      } else {
        --want;
        ASSERT_TRUE(got.found);
        EXPECT_EQ(got.key, want->first);
        EXPECT_EQ(got.value, want->second);
      }
    }
  }
  EXPECT_EQ(graph.size(), reference.size());
  EXPECT_TRUE(graph.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipGraphPropertyTest, ::testing::Range<uint64_t>(1, 7));

TEST(SkipGraphTest, SearchHopsAreLogarithmic) {
  SkipGraph graph(77);
  Pcg32 rng(78);
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    graph.Insert(rng.NextU64() >> 16, static_cast<uint64_t>(i));
  }
  RunningStats hops;
  for (int i = 0; i < 500; ++i) {
    hops.Add(graph.SearchFloor(rng.NextU64() >> 16).hops);
  }
  // O(log n) expected: log2(4096) = 12; allow generous constants but reject O(n).
  EXPECT_LT(hops.mean(), 4.0 * 12.0);
  EXPECT_GT(graph.MaxLevel(), 6);
}

// ---------- time sync ----------

TEST(TimeSyncTest, DriftingClockModel) {
  DriftingClock clock(Seconds(5), /*drift_ppm=*/100.0, /*jitter_std=*/0, /*seed=*/1);
  EXPECT_EQ(clock.LocalTimeExact(0), Seconds(5));
  // 100 ppm over an hour = 360 ms fast.
  EXPECT_NEAR(static_cast<double>(clock.LocalTimeExact(Hours(1)) - Seconds(5) - Hours(1)),
              static_cast<double>(Millis(360)), static_cast<double>(Millis(1)));
}

TEST(TimeSyncTest, RegressionRecoversDriftAndOffset) {
  DriftingClock clock(Seconds(3), /*drift_ppm=*/60.0, /*jitter_std=*/Millis(3),
                      /*seed=*/2);
  RegressionTimeSync sync;
  EXPECT_FALSE(sync.Ready());
  EXPECT_FALSE(sync.Correct(0).ok());

  // Beacons every ~10 minutes over 3 hours.
  for (int i = 0; i <= 18; ++i) {
    const SimTime ref = i * Minutes(10);
    sync.AddBeacon(clock.LocalTime(ref), ref);
  }
  ASSERT_TRUE(sync.Ready());

  RunningStats error_ms;
  for (int i = 0; i < 50; ++i) {
    const SimTime truth = Hours(3) + i * Minutes(7);
    const SimTime local = clock.LocalTimeExact(truth);
    auto corrected = sync.Correct(local);
    ASSERT_TRUE(corrected.ok());
    error_ms.Add(std::abs(ToMillis(*corrected - truth)));
  }
  // Without correction the offset alone is 3000 ms; corrected error is ~jitter-scale.
  EXPECT_LT(error_ms.mean(), 20.0);
  auto rms = sync.ResidualRms();
  ASSERT_TRUE(rms.ok());
  EXPECT_LT(*rms, static_cast<double>(Millis(20)));
}

TEST(TimeSyncTest, ToLocalInvertsCorrect) {
  DriftingClock clock(Seconds(1), 40.0, 0, 3);
  RegressionTimeSync sync;
  for (int i = 0; i <= 10; ++i) {
    const SimTime ref = i * Minutes(5);
    sync.AddBeacon(clock.LocalTimeExact(ref), ref);
  }
  const SimTime ref = Hours(2);
  auto local = sync.ToLocal(ref);
  ASSERT_TRUE(local.ok());
  auto back = sync.Correct(*local);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(static_cast<double>(*back), static_cast<double>(ref),
              static_cast<double>(Millis(1)));
}

TEST(TimeSyncTest, RejectsNoiseDominatedFit) {
  // Two beacons landing close together (first contacts after a failover promotion)
  // give least squares a baseline shorter than the timestamp jitter: the fitted
  // slope is garbage (far from 1 ± drift ppm) and must not be trusted, or ToLocal
  // maps query windows off the sensor's timeline entirely.
  RegressionTimeSync sync;
  const SimTime base = Hours(21);
  sync.AddBeacon(base + Seconds(2), base);
  sync.AddBeacon(base + Seconds(4) + Millis(900), base + Seconds(1));
  EXPECT_FALSE(sync.Ready());
  EXPECT_FALSE(sync.ToLocal(base).ok());
  EXPECT_FALSE(sync.Correct(base).ok());

  // Once the baseline grows past the jitter, the fit becomes plausible again.
  for (int i = 1; i <= 6; ++i) {
    const SimTime ref = base + i * Minutes(10);
    sync.AddBeacon(ref + Seconds(2), ref);
  }
  ASSERT_TRUE(sync.Ready());
  // The noisy pair stays in the window and tilts the line a little; "sane" here
  // means sub-second error, not off-timeline by minutes.
  auto local = sync.ToLocal(base + Hours(1));
  ASSERT_TRUE(local.ok());
  EXPECT_NEAR(static_cast<double>(*local),
              static_cast<double>(base + Hours(1) + Seconds(2)),
              static_cast<double>(Millis(500)));
}

TEST(TimeSyncTest, WindowBoundsMemory) {
  RegressionTimeSync sync(/*window=*/4);
  for (int i = 0; i < 100; ++i) {
    sync.AddBeacon(i * kSecond, i * kSecond);
  }
  EXPECT_EQ(sync.beacon_count(), 4u);
}

// Least squares for y ~ a + b*x as a plain loop over two vectors, summed in index
// order; returns {a, b}. The oracle for the ring below.
std::pair<double, double> OracleLine(const std::vector<double>& x,
                                     const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return {(sy - slope * sx) / n, slope};
}

// The beacon ring against the sliding window it replaced (a vector losing its front
// to each beacon past the window, fitted by OracleLine on centred copies): every line
// is bit-identical, while the ring wraps many times.
TEST(TimeSyncTest, RingFitsLikeASlidingWindow) {
  DriftingClock clock(Seconds(2), /*drift_ppm=*/35.0, /*jitter_std=*/Millis(2),
                      /*seed=*/9);
  for (const size_t window : {size_t{2}, size_t{5}, size_t{32}}) {
    RegressionTimeSync sync(window);
    std::vector<double> locals;
    std::vector<double> references;
    for (int i = 0; i < 120; ++i) {
      const SimTime ref = i * Minutes(3) + (i % 7) * Seconds(11);
      const SimTime local = clock.LocalTime(ref);
      sync.AddBeacon(local, ref);
      locals.push_back(static_cast<double>(local));
      references.push_back(static_cast<double>(ref));
      if (locals.size() > window) {
        locals.erase(locals.begin());
        references.erase(references.begin());
      }
      ASSERT_EQ(sync.beacon_count(), locals.size());
      if (locals.size() < 2) {
        continue;
      }
      std::vector<double> x;
      std::vector<double> y;
      for (size_t j = 0; j < locals.size(); ++j) {
        x.push_back(references[j] - references.front());
        y.push_back(locals[j] - locals.front());
      }
      const auto [a, slope] = OracleLine(x, y);
      const double intercept = locals.front() + a - slope * references.front();
      ASSERT_EQ(sync.Ready(), std::abs(slope - 1.0) <= 0.01) << window << " " << i;
      if (sync.Ready()) {
        const SimTime probe = ref + Minutes(5);
        EXPECT_EQ(*sync.ToLocal(probe),
                  static_cast<SimTime>(intercept + slope * static_cast<double>(probe)))
            << window << " " << i;
      }
    }
  }
}

// A time-sync checkpoint: the two beacon lists, then the fitted line.
std::vector<uint8_t> SyncBlob(const std::vector<double>& locals,
                              const std::vector<double>& references, bool fit_valid,
                              double intercept, double slope) {
  ByteWriter w;
  CkptWrite(w, locals);
  CkptWrite(w, references);
  CkptWrite(w, fit_valid);
  CkptWrite(w, intercept);
  CkptWrite(w, slope);
  return w.TakeBuffer();
}

Status LoadSync(const std::vector<uint8_t>& bytes) {
  RegressionTimeSync sync(/*window=*/4);
  ByteReader reader(bytes);
  return ReadStatus(reader, sync);
}

// Restored beacons and lines come from peers: lists of unequal length (the next
// beacon's refit would read past the shorter one), more beacons than the window, or
// a line flagged valid that Correct could not divide by are data loss.
TEST(TimeSyncTest, RestoreRefusesAnInconsistentWindowOrLine) {
  const std::vector<double> two = {2e6, 6.02e8};
  const std::vector<double> two_refs = {0, 6e8};
  EXPECT_TRUE(LoadSync(SyncBlob(two, two_refs, true, 2e6, 1.00004)).ok());
  EXPECT_TRUE(LoadSync(SyncBlob({}, {}, false, 0.0, 1.0)).ok());
  // An invalid line is never read, whatever it holds.
  EXPECT_TRUE(LoadSync(SyncBlob(two, two_refs, false, 0.0, 0.0)).ok());

  EXPECT_EQ(LoadSync(SyncBlob({2e6}, {0, 1, 2, 3}, false, 0.0, 1.0)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadSync(SyncBlob({1, 2, 3, 4}, {0}, false, 0.0, 1.0)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadSync(SyncBlob({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, false, 0.0, 1.0)).code(),
            StatusCode::kDataLoss);
  const std::vector<std::pair<double, double>> kImplausible = {
      {2e6, 0.0},
      {2e6, 1.02},
      {2e6, std::nan("")},
      {2e6, HUGE_VAL},
      {HUGE_VAL, 1.0},
      {std::nan(""), 1.0},
  };
  for (const auto& [intercept, slope] : kImplausible) {
    EXPECT_EQ(LoadSync(SyncBlob(two, two_refs, true, intercept, slope)).code(),
              StatusCode::kDataLoss)
        << intercept << " " << slope;
  }

  // A restored window keeps working: a full one takes new beacons in its ring.
  RegressionTimeSync sync(/*window=*/4);
  const std::vector<uint8_t> bytes =
      SyncBlob({2e6, 6.02e8, 1.202e9, 1.802e9}, {0, 6e8, 1.2e9, 1.8e9}, true, 2e6, 1.0);
  ByteReader reader(bytes);
  ASSERT_TRUE(ReadStatus(reader, sync).ok());
  sync.AddBeacon(2402000000, 2400000000);
  EXPECT_EQ(sync.beacon_count(), 4u);
  ASSERT_TRUE(sync.Ready());
  EXPECT_EQ(*sync.ToLocal(3000000000), 3002000000);
}

// ---------- temporal merge ----------

TEST(TemporalMergeTest, MergesByTimestamp) {
  std::vector<std::vector<Detection>> streams(2);
  streams[0] = {{Seconds(1), 0, 1}, {Seconds(3), 0, 3}};
  streams[1] = {{Seconds(2), 1, 2}, {Seconds(4), 1, 4}};
  const auto merged = MergeByTime(streams);
  ASSERT_EQ(merged.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(merged[i].sequence, i + 1);
  }
  EXPECT_DOUBLE_EQ(AdjacentOrderAccuracy(merged), 1.0);
  EXPECT_DOUBLE_EQ(KendallTau(merged), 1.0);
}

TEST(TemporalMergeTest, ClockErrorDegradesOrderMetrics) {
  // Two streams of interleaved events; stream 1's clock is shifted by more than the
  // event spacing, so merged order flips for cross-stream neighbours.
  std::vector<std::vector<Detection>> streams(2);
  for (uint64_t i = 0; i < 50; ++i) {
    streams[0].push_back({static_cast<SimTime>(2 * i) * kSecond, 0, 2 * i});
    streams[1].push_back(
        {static_cast<SimTime>(2 * i + 1) * kSecond + Seconds(3), 1, 2 * i + 1});
  }
  const auto merged = MergeByTime(streams);
  EXPECT_LT(AdjacentOrderAccuracy(merged), 1.0);
  EXPECT_LT(KendallTau(merged), 1.0);
  EXPECT_GT(KendallTau(merged), 0.8);  // still mostly ordered
}

TEST(TemporalMergeTest, EmptyStreams) {
  EXPECT_TRUE(MergeByTime({}).empty());
  EXPECT_DOUBLE_EQ(AdjacentOrderAccuracy({}), 1.0);
}

}  // namespace
}  // namespace presto
