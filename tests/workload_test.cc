// Tests for the synthetic workloads: determinism, the statistical structure PRESTO
// exploits (diurnal shape, spatial correlation, rush hours, daily routines), and the
// rare events it must not miss.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/util/stats.h"
#include "src/workload/activity.h"
#include "src/workload/events.h"
#include "src/workload/queries.h"
#include "src/workload/signal.h"
#include "src/workload/temperature.h"
#include "src/workload/traffic.h"

namespace presto {
namespace {

// ---------- hash noise ----------

TEST(HashNoiseTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(HashGaussian(1, 42), HashGaussian(1, 42));
  EXPECT_NE(HashGaussian(1, 42), HashGaussian(1, 43));
  EXPECT_NE(HashGaussian(1, 42), HashGaussian(2, 42));
}

TEST(HashNoiseTest, GaussianMoments) {
  RunningStats stats;
  for (int64_t i = 0; i < 50000; ++i) {
    stats.Add(HashGaussian(7, i));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

// ---------- temperature ----------

TEST(TemperatureTest, DeterministicReplay) {
  TemperatureParams params;
  params.seed = 33;
  TemperatureSignal a(params);
  TemperatureSignal b(params);
  for (SimTime t = 0; t < Days(2); t += Minutes(17)) {
    EXPECT_EQ(a.ValueAt(t), b.ValueAt(t)) << t;
  }
}

TEST(TemperatureTest, DiurnalStructurePresent) {
  TemperatureParams params;
  params.seed = 34;
  params.front_std_c = 0.0;  // isolate the deterministic components
  params.events_per_day = 0.0;
  TemperatureSignal signal(params);
  const double at_peak = signal.ValueAt(Days(10) + params.diurnal_peak);
  const double at_trough = signal.ValueAt(Days(10) + params.diurnal_peak + Hours(12));
  EXPECT_NEAR(at_peak - at_trough, 2.0 * params.diurnal_amplitude_c, 0.2);
}

TEST(TemperatureTest, FrontsHaveHoursOfMemory) {
  TemperatureParams params;
  params.seed = 35;
  params.diurnal_amplitude_c = 0.0;
  params.seasonal_amplitude_c = 0.0;
  params.events_per_day = 0.0;
  TemperatureSignal signal(params);
  // Lag-1h autocorrelation of the front process should be high (timescale 9 h).
  std::vector<double> now;
  std::vector<double> later;
  for (int i = 0; i < 2000; ++i) {
    now.push_back(signal.ValueAt(i * kHour));
    later.push_back(signal.ValueAt(i * kHour + kHour));
  }
  RunningStats sn;
  RunningStats sl;
  for (double v : now) {
    sn.Add(v);
  }
  for (double v : later) {
    sl.Add(v);
  }
  double cov = 0.0;
  for (size_t i = 0; i < now.size(); ++i) {
    cov += (now[i] - sn.mean()) * (later[i] - sl.mean());
  }
  cov /= static_cast<double>(now.size());
  EXPECT_GT(cov / (sn.stddev() * sl.stddev()), 0.7);
}

TEST(TemperatureTest, EventsInjectExcursions) {
  TemperatureParams params;
  params.seed = 36;
  params.events_per_day = 4.0;
  TemperatureSignal signal(params);
  const auto events = signal.EventsIn(TimeInterval{0, Days(10)});
  EXPECT_GT(events.size(), 15u);
  EXPECT_LT(events.size(), 80u);
  // During an event the excursion from base is material.
  const TransientEvent& e = events.front();
  const SimTime peak = e.start + e.rise;
  EXPECT_GT(std::abs(signal.ValueAt(peak) - signal.BaseAt(peak)),
            0.5 * std::abs(e.magnitude));
}

TEST(TemperatureFieldTest, SpatialCorrelationKnob) {
  TemperatureParams params;
  params.seed = 37;
  params.events_per_day = 0.0;
  auto correlation_between_nodes = [&params](double rho) {
    TemperatureField field(2, params, rho);
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 1500; ++i) {
      a.push_back(field.TruthAt(0, i * Minutes(30)));
      b.push_back(field.TruthAt(1, i * Minutes(30)));
    }
    RunningStats sa;
    RunningStats sb;
    for (double v : a) {
      sa.Add(v);
    }
    for (double v : b) {
      sb.Add(v);
    }
    double cov = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
    }
    return cov / static_cast<double>(a.size()) / (sa.stddev() * sb.stddev());
  };
  EXPECT_GT(correlation_between_nodes(0.95), 0.85);
  EXPECT_GT(correlation_between_nodes(0.95), correlation_between_nodes(0.3));
}

TEST(TemperatureFieldTest, MeasurementNoiseOnTopOfTruth) {
  TemperatureParams params;
  params.seed = 38;
  params.noise_std_c = 0.2;
  TemperatureField field(1, params, 0.9);
  RunningStats noise;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = i * Seconds(31);
    noise.Add(field.MeasureAt(0, t) - field.TruthAt(0, t));
  }
  EXPECT_NEAR(noise.stddev(), 0.2, 0.02);
  EXPECT_NEAR(noise.mean(), 0.0, 0.02);
}

// Bit patterns, so a golden comparison fails if one bit of a double moves.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct FieldProbe {
  int node;
  SimTime t;
  double truth;
  double measured;
};

void ExpectFieldGolden(TemperatureField& field, const std::vector<FieldProbe>& probes) {
  for (const FieldProbe& p : probes) {
    EXPECT_EQ(Bits(field.TruthAt(p.node, p.t)), Bits(p.truth)) << p.node << " @ " << p.t;
    EXPECT_EQ(Bits(field.MeasureAt(p.node, p.t)), Bits(p.measured))
        << p.node << " @ " << p.t;
  }
}

// Hex-exact values of the field, in a call order that crosses hour boundaries, runs
// through node 0's first transient event (ramp, peak, decay, past its end), reads
// node 1 past 48 h and inside its first event, and then steps back in time.
TEST(TemperatureFieldTest, GoldenValuesAreBitExact) {
  TemperatureParams params;
  params.seed = 11;
  TemperatureField field(4, params, 0.8);
  const auto node0 = field.EventsIn(0, TimeInterval{0, Hours(12)});
  ASSERT_EQ(node0.size(), 1u);
  EXPECT_EQ(node0[0].start, 36964588153);
  EXPECT_EQ(Bits(node0[0].magnitude), Bits(0x1.6cfb8d7907cf3p+2));
  const auto node1 = field.EventsIn(1, TimeInterval{Hours(48), Hours(70)});
  ASSERT_EQ(node1.size(), 1u);
  EXPECT_EQ(node1[0].start, 237724932634);
  // clang-format off
  const std::vector<FieldProbe> kProbes = {
      {0, 0, 0x1.2fb64955d5101p+4, 0x1.30b9f51d8a69cp+4},
      {0, 3599999999, 0x1.10d8bb8d09173p+4, 0x1.0c19b2de99773p+4},
      {0, 3600000000, 0x1.10d8bb8ce667ep+4, 0x1.11456d172e067p+4},
      {0, 3600000001, 0x1.10d8bb8cda771p+4, 0x1.13745cc8f6103p+4},
      {1, 5400000000, 0x1.0ec73115b3a1ep+4, 0x1.1141962d8b3bdp+4},
      {2, 7231000000, 0x1.0bc6e30d35978p+4, 0x1.0f0657063b9e1p+4},
      {3, 10800000000, 0x1.23dd94faed17fp+4, 0x1.25b6d8519eb31p+4},
      {0, 37114588153, 0x1.8c7e25fc27a1cp+4, 0x1.8ec690c84e652p+4},
      {0, 37264588153, 0x1.bb6e841839b24p+4, 0x1.b863da063cd1p+4},
      {0, 39964588153, 0x1.94d0e9e2d0ec9p+4, 0x1.92d966e7e00fbp+4},
      {0, 58864588154, 0x1.68aecabd24047p+4, 0x1.67e6b8e732f5dp+4},
      {1, 172799000000, 0x1.fdbccf2f5a823p+3, 0x1.f91582c0f4dabp+3},
      {1, 172800000000, 0x1.fdbc1854177dep+3, 0x1.0076bb0e2c492p+4},
      {1, 176407000000, 0x1.fd6753c9b8392p+3, 0x1.fccc2ef44636ap+3},
      {1, 238724932634, 0x1.077dc45ba6d6ap+4, 0x1.033b69db5566ep+4},
      {2, 360013000000, 0x1.f2f6b5e96255ep+3, 0x1.ee30c43332db1p+3},
      {3, 432000000000, 0x1.5ff3b23fd73c6p+4, 0x1.600b9e2628ce7p+4},
      {0, 108000000000, 0x1.379849927ea98p+4, 0x1.3831d8a564d1ap+4},
      {0, 37564588153, 0x1.b475e16177bb4p+4, 0x1.b6bcd912cdb0ap+4},
      {1, 238755932634, 0x1.08484aecbab89p+4, 0x1.0699818bcab67p+4},
  };
  // clang-format on
  ExpectFieldGolden(field, kProbes);
}

// The correlation extremes: fully independent nodes and the shared field alone.
TEST(TemperatureFieldTest, GoldenValuesAtCorrelationExtremes) {
  TemperatureParams params;
  params.seed = 12;
  // clang-format off
  const std::vector<FieldProbe> kIndependent = {
      {0, 18000000000, 0x1.1ae8be31dd41p+4, 0x1.1bd1be6d0c523p+4},
      {2, 180000000017, 0x1.27fa760f8be46p+4, 0x1.2618bcebf04b4p+4},
      {1, 7200000000, 0x1.193bbdd9ad1e9p+4, 0x1.19cf16532d973p+4},
  };
  const std::vector<FieldProbe> kShared = {
      {0, 18000000000, 0x1.1dde0851e8fccp+4, 0x1.1ec7088d180dfp+4},
      {2, 180000000017, 0x1.39fd1b8e87b01p+4, 0x1.381b626aec16fp+4},
      {1, 7200000000, 0x1.ef38874fe1f97p+3, 0x1.f05f3842e2eaap+3},
  };
  // clang-format on
  TemperatureField independent(3, params, 0.0);
  ExpectFieldGolden(independent, kIndependent);
  TemperatureField shared(3, params, 1.0);
  ExpectFieldGolden(shared, kShared);
}

TEST(TemperatureTest, GoldenValuesAreBitExact) {
  TemperatureParams params;
  params.seed = 11;
  TemperatureSignal signal(params);
  // clang-format off
  const std::pair<SimTime, double> kProbes[] = {
      {0, 0x1.3ceb76db56aecp+4},
      {4020000000, 0x1.25e3021b8b377p+4},
      {216000000000, 0x1.79a8519a1d80fp+4},
      {10799999999, 0x1.2449d63e51873p+4},
  };
  // clang-format on
  for (const auto& [t, value] : kProbes) {
    EXPECT_EQ(Bits(signal.ValueAt(t)), Bits(value)) << t;
  }
}

// ---------- traffic ----------

TEST(TrafficTest, RushHourRates) {
  TrafficParams params;
  TrafficGenerator gen(params);
  EXPECT_GT(gen.RatePerHour(params.morning_peak), 5.0 * gen.RatePerHour(Hours(3)));
  EXPECT_GT(gen.RatePerHour(params.evening_peak), 5.0 * gen.RatePerHour(Hours(3)));
}

TEST(TrafficTest, VehicleCountsMatchRateScale) {
  TrafficParams params;
  params.seed = 39;
  TrafficGenerator gen(params);
  const auto vehicles = gen.GenerateVehicles(TimeInterval{0, Days(2)});
  // Integral of the rate: 2 days of base 60/h plus 4 rush bumps of ~540*1.2h*sqrt(2pi).
  EXPECT_GT(vehicles.size(), 4000u);
  EXPECT_LT(vehicles.size(), 14000u);
  for (size_t i = 1; i < vehicles.size(); ++i) {
    EXPECT_GT(vehicles[i].entry_time, vehicles[i - 1].entry_time);
  }
}

TEST(TrafficTest, DetectionsOrderedAndComplete) {
  TrafficParams params;
  params.seed = 40;
  TrafficGenerator gen(params);
  const auto vehicles = gen.GenerateVehicles(TimeInterval{0, Hours(2)});
  const auto streams = gen.DetectionsAt(vehicles, 4, 200.0);
  ASSERT_EQ(streams.size(), 4u);
  for (const auto& stream : streams) {
    EXPECT_EQ(stream.size(), vehicles.size());
    for (size_t i = 1; i < stream.size(); ++i) {
      EXPECT_LE(stream[i - 1].t, stream[i].t);
    }
  }
  // A vehicle reaches detector 3 after detector 0.
  EXPECT_LT(streams[0][0].t, streams[3][0].t);
}

TEST(TrafficTest, CountSeriesSumsToVehicles) {
  TrafficParams params;
  params.seed = 41;
  TrafficGenerator gen(params);
  const TimeInterval interval{0, Hours(6)};
  const auto vehicles = gen.GenerateVehicles(interval);
  const auto series = gen.CountSeries(vehicles, interval, Minutes(5));
  double total = 0.0;
  for (const Sample& s : series) {
    total += s.value;
  }
  EXPECT_EQ(static_cast<size_t>(total), vehicles.size());
}

// ---------- activity ----------

TEST(ActivityTest, DailyRoutineIsPredictable) {
  ActivityParams params;
  params.seed = 42;
  params.anomalies_per_week = 0.0;
  ActivitySignal signal(params);
  // At 3am the subject sleeps; at noon there is a meal; levels reflect that.
  int sleep_hits = 0;
  for (int day = 1; day <= 10; ++day) {
    if (signal.StateAt(Days(day) + Hours(3)) == ActivityState::kSleep) {
      ++sleep_hits;
    }
  }
  EXPECT_GE(sleep_hits, 9);
  EXPECT_LT(signal.ValueAt(Days(3) + Hours(3)), 1.5);
}

TEST(ActivityTest, AnomaliesAppearAndDistort) {
  ActivityParams params;
  params.seed = 43;
  params.anomalies_per_week = 14.0;  // frequent, for the test
  ActivitySignal signal(params);
  const auto anomalies = signal.AnomaliesIn(TimeInterval{0, Days(7)});
  ASSERT_GT(anomalies.size(), 5u);
  // A fall: brief spike then stillness.
  for (const auto& a : anomalies) {
    if (a.kind == ActivityAnomaly::Kind::kFall) {
      EXPECT_GT(signal.ValueAt(a.start + Seconds(5)), 7.0);
      EXPECT_LT(signal.ValueAt(a.start + Minutes(5)), 1.0);
      break;
    }
  }
}

// ---------- surveillance ----------

TEST(SurveillanceTest, IntruderTripsSensorsAlongPath) {
  SurveillanceParams params;
  params.seed = 44;
  params.events_per_day = 10.0;
  SurveillanceWorkload workload(params);
  const auto events = workload.EventsIn(TimeInterval{0, Days(2)});
  ASSERT_FALSE(events.empty());
  const IntrusionEvent& e = events.front();
  // At the start of the event, the entry sensor reads high.
  EXPECT_GT(workload.ReadingAt(e.entry_sensor, e.start + Seconds(1)), 5.0);
  // Long before the event, background.
  EXPECT_LT(workload.ReadingAt(e.entry_sensor, e.start - Hours(1)), 1.0);
}

// ---------- queries ----------

TEST(QueryWorkloadTest, RespectsDistributions) {
  QueryWorkloadParams params;
  params.seed = 45;
  params.num_sensors = 8;
  params.queries_per_hour = 60.0;
  const auto queries = GenerateQueries(params, TimeInterval{Days(1), Days(2)});
  ASSERT_GT(queries.size(), 1000u);
  int past = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryRequest& q = queries[i];
    EXPECT_GE(q.issue_at, Days(1));
    EXPECT_LT(q.issue_at, Days(2));
    if (i > 0) {
      EXPECT_GE(q.issue_at, queries[i - 1].issue_at);
    }
    EXPECT_GE(q.sensor, 0);
    EXPECT_LT(q.sensor, 8);
    EXPECT_GE(q.tolerance, params.min_tolerance);
    EXPECT_LE(q.tolerance, params.max_tolerance);
    if (q.past) {
      ++past;
      EXPECT_LE(q.age, q.issue_at);  // never before the epoch
      EXPECT_GE(q.age, q.window);
    }
  }
  EXPECT_NEAR(static_cast<double>(past) / static_cast<double>(queries.size()),
              params.past_fraction, 0.05);
}

}  // namespace
}  // namespace presto
