// Tests for linear algebra, the predictive models (including the proxy/sensor
// consistency contract that model-driven push depends on), and spatial conditioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/models/ar.h"
#include "src/models/linalg.h"
#include "src/models/markov.h"
#include "src/models/registry.h"
#include "src/models/seasonal.h"
#include "src/models/spatial.h"
#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/signal.h"
#include "tests/read_status.h"

namespace presto {
namespace {

// ---------- linalg ----------

TEST(LinalgTest, CholeskySolvesSpdSystem) {
  Matrix a(2, 2);
  a.At(0, 0) = 4;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 3;
  auto x = SolveSpd(a, {8, 7});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.25, 1e-9);
  EXPECT_NEAR((*x)[1], 1.5, 1e-9);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 5;
  a.At(1, 0) = 5;
  a.At(1, 1) = 1;  // eigenvalues 6, -4
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

TEST(LinalgTest, MatrixMultiply) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      a.At(r, c) = v++;
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      b.At(r, c) = v++;
    }
  }
  Matrix ab = a.Multiply(b);
  EXPECT_EQ(ab.At(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_EQ(ab.At(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(LinalgTest, LevinsonDurbinRecoversAr2) {
  // Simulate a long AR(2) series and check coefficient recovery.
  const double phi1 = 0.6;
  const double phi2 = -0.3;
  Pcg32 rng(3);
  std::vector<double> x(60000, 0.0);
  for (size_t i = 2; i < x.size(); ++i) {
    x[i] = phi1 * x[i - 1] + phi2 * x[i - 2] + rng.Gaussian();
  }
  auto fit = LevinsonDurbin(Autocovariance(x, 2));
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->phi[0], phi1, 0.03);
  EXPECT_NEAR(fit->phi[1], phi2, 0.03);
  EXPECT_NEAR(fit->innovation_variance, 1.0, 0.05);
}

TEST(LinalgTest, FitLineExact) {
  const std::vector<double> x = {0, 1, 2, 3};
  const std::vector<double> y = {5, 7, 9, 11};
  auto line = FitLineOf(x.size(), [&](size_t i) { return std::make_pair(x[i], y[i]); });
  ASSERT_TRUE(line.ok());
  EXPECT_NEAR(line->first, 5.0, 1e-9);   // intercept
  EXPECT_NEAR(line->second, 2.0, 1e-9);  // slope
}

TEST(LinalgTest, AutocovarianceLagZeroIsVariance) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const auto ac = Autocovariance(x, 0);
  EXPECT_NEAR(ac[0], 2.0, 1e-12);
}

// ---------- shared fixtures ----------

constexpr Duration kPeriod = Seconds(31);

ModelConfig TestConfig() {
  ModelConfig c;
  c.sample_period = kPeriod;
  c.seasonal_period = Hours(24);
  c.seasonal_bins = 24;
  c.ar_order = 2;
  c.markov_states = 6;
  return c;
}

// Two days of diurnal signal + AR(1) noise on the sensing grid.
std::vector<Sample> DiurnalSeries(int days = 3, uint64_t seed = 5) {
  Pcg32 rng(seed);
  std::vector<Sample> out;
  double ar = 0.0;
  const int per_day = static_cast<int>(kDay / kPeriod);
  for (int i = 0; i < days * per_day; ++i) {
    const SimTime t = static_cast<SimTime>(i) * kPeriod;
    ar = 0.97 * ar + rng.Gaussian(0.0, 0.08);
    const double diurnal =
        20.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                              static_cast<double>(kDay));
    out.push_back(Sample{t, diurnal + ar});
  }
  return out;
}

// ---------- per-model property: proxy and sensor replicas stay in lockstep ----------

class ModelConsistencyTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelConsistencyTest, SerializeDeserializePredictIdentically) {
  const ModelConfig config = TestConfig();
  auto proxy_model = CreateModel(GetParam(), config);
  const std::vector<Sample> history = DiurnalSeries();
  ASSERT_TRUE(proxy_model->Fit(history).ok());

  const std::vector<uint8_t> wire = proxy_model->Serialize();
  EXPECT_FALSE(wire.empty());
  auto sensor_model = DeserializeModel(wire, config);
  ASSERT_TRUE(sensor_model.ok());
  EXPECT_EQ((*sensor_model)->type(), GetParam());

  const SimTime t0 = history.back().t;
  // Predictions agree right after installation...
  for (int k = 1; k <= 64; k *= 2) {
    const SimTime t = t0 + k * kPeriod;
    const Prediction a = proxy_model->Predict(t);
    const Prediction b = (*sensor_model)->Predict(t);
    EXPECT_NEAR(a.value, b.value, 1e-3) << "k=" << k;
    EXPECT_NEAR(a.stddev, b.stddev, 1e-3) << "k=" << k;
  }
  // ...and remain in lockstep through a sequence of mirrored anchors.
  Pcg32 rng(11);
  SimTime t = t0;
  for (int i = 0; i < 50; ++i) {
    t += rng.UniformInt(1, 40) * kPeriod;
    const Sample anchor{t, 20.0 + rng.Gaussian(0, 3)};
    proxy_model->OnAnchor(anchor);
    (*sensor_model)->OnAnchor(anchor);
    const SimTime probe = t + rng.UniformInt(1, 20) * kPeriod;
    EXPECT_NEAR(proxy_model->Predict(probe).value, (*sensor_model)->Predict(probe).value,
                1e-3);
  }
}

TEST_P(ModelConsistencyTest, CloneIsIndependent) {
  const ModelConfig config = TestConfig();
  auto model = CreateModel(GetParam(), config);
  ASSERT_TRUE(model->Fit(DiurnalSeries()).ok());
  auto clone = model->Clone();
  const SimTime t = Days(3) + Hours(1);
  EXPECT_EQ(model->Predict(t).value, clone->Predict(t).value);
  clone->OnAnchor(Sample{Days(3) + Minutes(10), 35.0});
  // Anchoring the clone must not disturb the original (except stateless models, where
  // both simply ignore anchors).
  if (GetParam() != ModelType::kSeasonal) {
    EXPECT_NE(model->Predict(t).value, clone->Predict(t).value);
  }
}

TEST_P(ModelConsistencyTest, PredictionHasPositiveUncertainty) {
  auto model = CreateModel(GetParam(), TestConfig());
  ASSERT_TRUE(model->Fit(DiurnalSeries()).ok());
  for (SimTime t : {Hours(1), Days(3) + Hours(5), Days(10)}) {
    EXPECT_GT(model->Predict(t).stddev, 0.0);
  }
}

TEST_P(ModelConsistencyTest, FitFailsOnTinyHistory) {
  auto model = CreateModel(GetParam(), TestConfig());
  EXPECT_FALSE(model->Fit({Sample{0, 1.0}, Sample{kPeriod, 1.1}}).ok());
}

std::string ModelTestName(const ::testing::TestParamInfo<ModelType>& info) {
  std::string name = ModelTypeName(info.param);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelConsistencyTest,
                         ::testing::Values(ModelType::kLastValue, ModelType::kSeasonal,
                                           ModelType::kAr, ModelType::kSeasonalAr,
                                           ModelType::kMarkov),
                         ModelTestName);

// ---------- model quality ----------

TEST(SeasonalModelTest, LearnsDiurnalShape) {
  auto model = CreateModel(ModelType::kSeasonal, TestConfig());
  ASSERT_TRUE(model->Fit(DiurnalSeries(4)).ok());
  // Peak near 6h (sin peak at quarter day), trough near 18h.
  const double peak = model->Predict(Days(5) + Hours(6)).value;
  const double trough = model->Predict(Days(5) + Hours(18)).value;
  EXPECT_GT(peak, 23.5);
  EXPECT_LT(trough, 16.5);
}

TEST(SeasonalArModelTest, BeatsPureSeasonalNearTerm) {
  const std::vector<Sample> history = DiurnalSeries(4, /*seed=*/21);
  // Hold out the last 2 hours.
  const size_t holdout = 2 * kHour / kPeriod;
  std::vector<Sample> train(history.begin(), history.end() - holdout);

  auto seasonal = CreateModel(ModelType::kSeasonal, TestConfig());
  auto seasonal_ar = CreateModel(ModelType::kSeasonalAr, TestConfig());
  ASSERT_TRUE(seasonal->Fit(train).ok());
  ASSERT_TRUE(seasonal_ar->Fit(train).ok());

  double se_seasonal = 0.0;
  double se_sar = 0.0;
  for (size_t i = history.size() - holdout; i < history.size(); ++i) {
    const double truth = history[i].value;
    const double e1 = seasonal->Predict(history[i].t).value - truth;
    const double e2 = seasonal_ar->Predict(history[i].t).value - truth;
    se_seasonal += e1 * e1;
    se_sar += e2 * e2;
  }
  // The AR residual carries the current weather offset forward; pure climatology
  // cannot.
  EXPECT_LT(se_sar, se_seasonal);
}

TEST(ArModelTest, ForecastRevertsToMean) {
  auto model = CreateModel(ModelType::kAr, TestConfig());
  const std::vector<Sample> history = DiurnalSeries();
  ASSERT_TRUE(model->Fit(history).ok());
  const Prediction far = model->Predict(history.back().t + Days(30));
  // Far beyond the forecast horizon: marginal distribution.
  const Prediction near = model->Predict(history.back().t + kPeriod);
  EXPECT_GT(far.stddev, near.stddev);
}

TEST(ArModelTest, UncertaintyGrowsWithHorizon) {
  auto model = CreateModel(ModelType::kAr, TestConfig());
  ASSERT_TRUE(model->Fit(DiurnalSeries()).ok());
  const SimTime t0 = Days(3);
  double prev = 0.0;
  for (int k = 1; k <= 256; k *= 4) {
    const double sd = model->Predict(t0 + k * kPeriod).stddev;
    EXPECT_GE(sd, prev);
    prev = sd;
  }
}

// Bit patterns, so a golden comparison fails if one bit of a double moves.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Hex-exact ValueAt: negative times, bin centres and edges, the wrap from the last
// bin to the first, periods the bin count does not divide (where the interpolation
// position runs past the last bin), and a single bin.
TEST(SeasonalBinsTest, GoldenValuesAreBitExact) {
  struct Case {
    Duration period;
    int bins;
    std::vector<std::pair<SimTime, double>> probes;
  };
  // clang-format off
  const Case kCases[] = {
      {86400000000, 24,
       {
           {-1, 0x1.9875c292cb558p+6},
           {-3600000000, 0x1.744f5c28f5c29p+7},
           {-90000000007, 0x1.744f5c27e8033p+7},
           {0, 0x1.9875c28f5c28fp+6},
           {1800000000, 0x1.4p+3},
           {3600000000, 0x1.3deb851eb851ep+3},
           {5400000000, 0x1.3bd70a3d70a3dp+3},
           {84600000000, 0x1.8475c28f5c28fp+7},
           {85500000000, 0x1.285851eb851ebp+7},
           {86399999999, 0x1.9875c292cb558p+6},
           {86400000000, 0x1.9875c28f5c28fp+6},
           {34560005000000, 0x1.976fbe76c8b43p+6},
           {4000000000000007, 0x1.6f4321011ca2ep+4},
       }},
      {1000003, 7,
       {
           {0, 0x1.e51eb851eb852p+3},
           {71428, 0x1.40004bbfcbf6cp+3},
           {142857, 0x1.3deb851eb851ep+3},
           {142858, 0x1.3deb83362abf5p+3},
           {999999, 0x1.e51eb851eb852p+3},
           {1000002, 0x1.e51cf1d323bccp+3},
           {-1, 0x1.e51cf1d323bccp+3},
           {-500000, 0x1.7a8fc78b7669p+3},
           {3000086, 0x1.e4f126f1391bfp+3},
       }},
      {10, 4,
       {
           {0, 0x1.5d47ae147ae14p+3},
           {1, 0x1.4p+3},
           {2, 0x1.3deb851eb851ep+3},
           {3, 0x1.3bd70a3d70a3dp+3},
           {4, 0x1.459999999999ap+3},
           {5, 0x1.4f5c28f5c28f6p+3},
           {6, 0x1.64f5c28f5c29p+3},
           {7, 0x1.7a8f5c28f5c29p+3},
           {8, 0x1.5d47ae147ae14p+3},
           {9, 0x1.4p+3},
           {-1, 0x1.4p+3},
           {-7, 0x1.3bd70a3d70a3dp+3},
           {19, 0x1.4p+3},
       }},
      {3600000000, 1,
       {
           {0, 0x1.4p+3},
           {600000000, 0x1.4p+3},
           {-600000000, 0x1.4p+3},
           {21000000000, 0x1.4p+3},
       }},
  };
  // clang-format on
  for (const Case& c : kCases) {
    std::vector<double> means;
    std::vector<double> stddevs;
    for (int i = 0; i < c.bins; ++i) {
      means.push_back(10.0 + 0.37 * i * i - 0.5 * i);
      stddevs.push_back(0.1 * (i + 1));
    }
    const SeasonalBins bins(c.period, means, stddevs);
    for (const auto& [t, value] : c.probes) {
      EXPECT_EQ(Bits(bins.ValueAt(t)), Bits(value))
          << c.period << "/" << c.bins << " @ " << t;
    }
  }
}

// Hex-exact forecasts (value and stddev) of a fitted AR(3), before and after an
// anchor: grid steps, half-step rounding, a backward time, and past the horizon.
TEST(ArCoreTest, GoldenForecastsAreBitExact) {
  ArCore core;
  core.sample_period = Seconds(31);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) {
    const double smooth = 3.0 * std::sin(i * 0.1) + 1.5 * std::cos(i * 0.037);
    values.push_back(smooth + 0.2 * HashGaussian(5, i));
  }
  ASSERT_TRUE(core.Fit(values, 399 * Seconds(31), /*order=*/3).ok());
  struct Probe {
    SimTime t;
    double value;
    double stddev;
  };
  auto expect = [&core](const std::vector<Probe>& probes) {
    for (const Probe& p : probes) {
      const Prediction got = core.Forecast(p.t);
      EXPECT_EQ(Bits(got.value), Bits(p.value)) << p.t;
      EXPECT_EQ(Bits(got.stddev), Bits(p.stddev)) << p.t;
    }
  };
  // clang-format off
  const std::vector<Probe> kBeforeAnchor = {
      {12400000000, 0x1.3fd062e0e6803p+0, 0x1.5aae139732fe9p-2},
      {12431000000, 0x1.d81cd6dfcdcc4p-1, 0x1.f2ae092ce4d45p-2},
      {12462000000, 0x1.db2f16d8cad64p-1, 0x1.58f99dc613d26p-1},
      {12679000000, 0x1.4bd0f2eecc1ffp-1, 0x1.73981389b802ep+0},
      {15469000000, 0x1.e6edbbc632bbap-3, 0x1.322a4dd3f8132p+1},
      {12384000000, 0x1.26fa82p+0, 0x1.5aae139732fe9p-2},
      {12385000000, 0x1.3fd062e0e6803p+0, 0x1.5aae139732fe9p-2},
      {12369000000, 0x1.aba613fb3b5f1p-3, 0x1.32992ap+1},
      {12338000000, 0x1.aba613fb3b5f1p-3, 0x1.32992ap+1},
      {167369000000, 0x1.aba613fb3b5f1p-3, 0x1.32992ap+1},
  };
  const std::vector<Probe> kAfterAnchor = {
      {12462000000, 0x1.3d5dc1941b1e6p+1, 0x1.5aae139732fe9p-2},
      {12493000000, 0x1.2962417dc0342p+1, 0x1.f2ae092ce4d45p-2},
      {13981000000, 0x1.6570bd02af5a4p-1, 0x1.29b3956519bbp+1},
      {12430999999, 0x1.aba613fb3b5f1p-3, 0x1.32992ap+1},
  };
  // k = max_forecast_steps (4096), one short of it (a rebuild), one past it (the
  // marginal), and back.
  const std::vector<Probe> kFarHorizon = {
      {139407000000, 0x1.aba613fb3b605p-3, 0x1.329946573b85dp+1},
      {139376000000, 0x1.aba613fb3b605p-3, 0x1.329946573b85dp+1},
      {139438000000, 0x1.aba613fb3b5f1p-3, 0x1.32992ap+1},
      {139407000000, 0x1.aba613fb3b605p-3, 0x1.329946573b85dp+1},
  };
  // clang-format on
  expect(kBeforeAnchor);
  core.Anchor(Sample{399 * Seconds(31) + Seconds(62) + 900000, 2.5});
  ASSERT_EQ(core.state_time, 12431000000);
  expect(kAfterAnchor);
  expect(kFarHorizon);

  // A hand-set core whose variance ceiling (1.5 marginal variances) binds from k = 3
  // on: k = 1, 2, 3, 4096, 4095, 4097 and 2.
  core = ArCore();
  core.sample_period = Seconds(31);
  core.phi = {0.6, 0.2};
  core.mean = 0.25;
  core.innovation_std = 0.5;
  core.marginal_std = 0.5;
  core.state = {0.5, -0.25};
  core.state_time = Seconds(31) * 1000;
  // clang-format off
  expect({
      {31031000000, 0x1p-56, 0x1p-1},
      {31062000000, 0x0p+0, 0x1.2a8b73e294fb4p-1},
      {31093000000, 0x1.999999999999ap-5, 0x1.3988e1409212ep-1},
      {157976000000, 0x1.ffffffffffffdp-3, 0x1.3988e1409212ep-1},
      {157945000000, 0x1.ffffffffffffdp-3, 0x1.3988e1409212ep-1},
      {158007000000, 0x1p-2, 0x1p-1},
      {31062000000, 0x0p+0, 0x1.2a8b73e294fb4p-1},
  });
  // clang-format on
}

// The forecast cursor against the arithmetic it replaces: each forecast rolls a fresh
// copy of the state, one erase + push_back per step.
TEST(ArCoreTest, ForecastMatchesNaiveRoll) {
  ArCore core;
  core.sample_period = kPeriod;
  core.max_forecast_steps = 500;
  ASSERT_TRUE(core.Fit(ValuesOf(DiurnalSeries()), Days(3), /*order=*/3).ok());
  auto naive = [&](int64_t k) {
    std::vector<double> window = core.state;
    for (int64_t i = 0; i < k; ++i) {
      double next = core.mean;
      for (size_t j = 0; j < core.phi.size(); ++j) {
        next += core.phi[j] * (window[window.size() - 1 - j] - core.mean);
      }
      window.erase(window.begin());
      window.push_back(next);
    }
    return window.back();
  };
  // Jumps forward across several window slides, one step back, a long backward jump
  // and forward again; then one step at a time.
  const int64_t kSteps[] = {1, 2, 3, 5, 13, 34, 35, 36, 70, 71, 140, 139, 10, 480};
  for (int64_t k : kSteps) {
    EXPECT_EQ(core.Forecast(core.state_time + k * kPeriod).value, naive(k)) << k;
  }
  for (int64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(core.Forecast(core.state_time + k * kPeriod).value, naive(k)) << k;
  }
}

// The eager psi-weight table the forecast cursor's horizon steps replace, kept as
// their oracle:
// table[k] is the k-step-ahead stddev for every k in [1, max_forecast_steps].
std::vector<double> EagerHorizonStd(const ArCore& core) {
  const int p = static_cast<int>(core.phi.size());
  const int horizon = core.max_forecast_steps;
  std::vector<double> psi(static_cast<size_t>(horizon) + 1, 0.0);
  psi[0] = 1.0;
  for (int j = 1; j <= horizon; ++j) {
    double v = 0.0;
    for (int i = 1; i <= std::min(j, p); ++i) {
      v += core.phi[static_cast<size_t>(i - 1)] * psi[static_cast<size_t>(j - i)];
    }
    psi[static_cast<size_t>(j)] = v;
  }
  std::vector<double> table(static_cast<size_t>(horizon) + 1, 0.0);
  double cum = 0.0;
  const double var_cap = core.marginal_std * core.marginal_std;
  for (int k = 1; k <= horizon; ++k) {
    cum += psi[static_cast<size_t>(k - 1)] * psi[static_cast<size_t>(k - 1)];
    const double var =
        std::min(core.innovation_std * core.innovation_std * cum, 1.5 * var_cap);
    table[static_cast<size_t>(k)] = std::sqrt(var);
  }
  return table;
}

// The AR core a fitted (seasonal-)AR model forecasts with, read back from its
// full-precision checkpoint state (fitted flag, seasonal bins, core).
ArCore CoreOf(const PredictiveModel& model) {
  ByteWriter w;
  model.SaveState(w);
  ByteReader r(w.buffer());
  bool fitted = false;
  EXPECT_TRUE(ReadStatus(r, fitted).ok() && fitted);
  if (model.type() == ModelType::kSeasonalAr) {
    SeasonalBins bins;
    EXPECT_TRUE(ReadStatus(r, bins).ok());
  }
  ArCore core;
  EXPECT_TRUE(ReadStatus(r, core).ok());
  return core;
}

// Every forecast stddev the model gives at `horizons` (grid steps past its state,
// visited in that order) equals the eager table's entry, bit for bit; past
// max_forecast_steps it is the marginal sigma.
void ExpectEagerStddevs(const PredictiveModel& model,
                        const std::vector<int64_t>& horizons, const std::string& what) {
  const ArCore core = CoreOf(model);
  const std::vector<double> eager = EagerHorizonStd(core);
  for (int64_t k : horizons) {
    const double want = k > core.max_forecast_steps
                            ? core.marginal_std
                            : std::max(eager[static_cast<size_t>(k)], 1e-9);
    EXPECT_EQ(model.Predict(core.state_time + k * kPeriod).stddev, want)
        << what << " k=" << k;
  }
}

// A hand-built (seasonal-)AR checkpoint state, as SaveModelState lays it out.
struct ArStateBlob {
  ModelType type = ModelType::kSeasonalAr;
  Duration season = Hours(24);
  std::vector<double> means = std::vector<double>(24, 20.0);
  std::vector<double> stddevs = std::vector<double>(24, 1.0);
  Duration period = kPeriod;
  int max_forecast_steps = 4096;
  std::vector<double> phi = {0.6, 0.2};
  double innovation_std = 0.5;
  double marginal_std = 1.0;
  std::vector<double> state = {0.5, -0.25};
  SimTime state_time = Days(3);

  std::vector<uint8_t> Encode() const {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(type));
    CkptWrite(w, true);  // fitted
    if (type == ModelType::kSeasonalAr) {
      CkptWrite(w, season);
      CkptWrite(w, means);
      CkptWrite(w, stddevs);
    }
    CkptWrite(w, period);
    CkptWrite(w, max_forecast_steps);
    CkptWrite(w, phi);
    CkptWrite(w, 0.0);  // mean
    CkptWrite(w, innovation_std);
    CkptWrite(w, marginal_std);
    CkptWrite(w, state);
    CkptWrite(w, state_time);
    return w.TakeBuffer();
  }
};

Result<std::unique_ptr<PredictiveModel>> Restore(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  std::unique_ptr<PredictiveModel> model = LoadModelState(r, TestConfig());
  if (!r.ok()) {
    return r.status();
  }
  return model;
}

// The cursor's stepped horizon stddev against the eager table: (seasonal-)AR fits of
// orders 1-8 plus a model whose variance ceiling binds, horizons visited out of order
// (each backward one rebuilds the cursor; 4097 is past max_forecast_steps), and the
// same on a clone and a checkpoint copy, which start without a cursor and here step
// it one horizon at a time.
TEST(ArCoreTest, CursorHorizonStdMatchesEagerTable) {
  const std::vector<int64_t> kOutOfOrder = {4096, 1, 37, 2048, 4097};
  const std::vector<int64_t> kGrowing = {1, 2, 3, 37, 36, 2048, 4096, 4097};
  auto check = [&](const PredictiveModel& model, const std::string& what) {
    ExpectEagerStddevs(model, kOutOfOrder, what);
    ExpectEagerStddevs(*model.Clone(), kGrowing, what + " clone");
    ByteWriter w;
    SaveModelState(w, &model);
    ByteReader r(w.buffer());
    auto copy = LoadModelState(r, TestConfig());
    ASSERT_TRUE(r.ok()) << what;
    ExpectEagerStddevs(*copy, kGrowing, what + " restored");
    ExpectEagerStddevs(model, kGrowing, what + " again");
  };
  for (ModelType type : {ModelType::kAr, ModelType::kSeasonalAr}) {
    for (int order = 1; order <= 8; ++order) {
      ModelConfig config = TestConfig();
      config.ar_order = order;
      std::unique_ptr<PredictiveModel> model = CreateModel(type, config);
      ASSERT_TRUE(model->Fit(DiurnalSeries()).ok());
      check(*model, std::string(ModelTypeName(type)) + " order " + std::to_string(order));
    }
  }

  // A Yule-Walker fit's sigma^2 * sum(psi^2) tends to the marginal variance, so the
  // 1.5 * marginal^2 ceiling only binds on a state like this one (sum psi^2 -> 2.38).
  ArStateBlob blob;
  blob.type = ModelType::kAr;
  blob.marginal_std = 0.5;
  auto capped = Restore(blob.Encode());
  ASSERT_TRUE(capped.ok()) << capped.status().message();
  const std::vector<double> eager = EagerHorizonStd(CoreOf(**capped));
  const double ceiling = std::sqrt(1.5 * blob.marginal_std * blob.marginal_std);
  ASSERT_LT(eager[1], ceiling);
  ASSERT_EQ(eager[4096], ceiling) << "the ceiling must bind inside the horizon";
  check(**capped, "capped");
}

// A checkpointed model is its parameters and state, not a derived table: well
// under the 4097-entry horizon table it once carried (~33 KiB).
TEST(ArCoreTest, FittedModelStateIsCompact) {
  std::unique_ptr<PredictiveModel> model =
      CreateModel(ModelType::kSeasonalAr, TestConfig());
  const std::vector<Sample> history = DiurnalSeries();
  ASSERT_TRUE(model->Fit(history).ok());
  model->Predict(history.back().t + 4096 * kPeriod);  // rolls the longest horizon
  ByteWriter w;
  model->SaveState(w);
  EXPECT_LT(w.size(), 1024u);
}

// Checkpoint bytes come from peers: a model state no forecast can run on decodes to a
// typed error, never to a model that reads out of bounds or divides by zero.
TEST(ArCoreTest, MalformedCheckpointStateIsDataLoss) {
  for (ModelType type : {ModelType::kAr, ModelType::kSeasonalAr}) {
    ArStateBlob good;
    good.type = type;
    auto restored = Restore(good.Encode());
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    const SimTime t = Days(3) + 10 * kPeriod;
    EXPECT_TRUE(std::isfinite((*restored)->Predict(t).value));
    EXPECT_GT((*restored)->Predict(t).stddev, 0.0);

    std::vector<std::pair<std::string, ArStateBlob>> bad;
    auto add = [&](const std::string& label, auto mutate) {
      ArStateBlob blob = good;
      mutate(blob);
      bad.emplace_back(label, blob);
    };
    add("state shorter than phi", [](ArStateBlob& b) { b.state.pop_back(); });
    add("state longer than phi", [](ArStateBlob& b) { b.state.push_back(1.0); });
    add("no coefficients", [](ArStateBlob& b) {
      b.phi.clear();
      b.state.clear();
    });
    add("order 65", [](ArStateBlob& b) {
      b.phi.assign(65, 0.01);
      b.state.assign(65, 0.0);
    });
    add("zero sample period", [](ArStateBlob& b) { b.period = 0; });
    add("negative sample period", [](ArStateBlob& b) { b.period = -kPeriod; });
    add("zero horizon", [](ArStateBlob& b) { b.max_forecast_steps = 0; });
    add("huge horizon", [](ArStateBlob& b) { b.max_forecast_steps = 2147483647; });
    add("horizon 65537", [](ArStateBlob& b) { b.max_forecast_steps = 65537; });
    add("negative state time", [](ArStateBlob& b) { b.state_time = -1; });
    if (type == ModelType::kSeasonalAr) {
      add("empty means", [](ArStateBlob& b) {
        b.means.clear();
        b.stddevs.clear();
      });
      add("means without stddevs", [](ArStateBlob& b) { b.stddevs.clear(); });
      add("zero period", [](ArStateBlob& b) { b.season = 0; });
      add("more bins than ticks", [](ArStateBlob& b) { b.season = 12; });
    }
    for (const auto& [label, blob] : bad) {
      auto result = Restore(blob.Encode());
      ASSERT_FALSE(result.ok()) << ModelTypeName(type) << ": " << label;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << ModelTypeName(type) << ": " << label;
    }
    // Every truncation is an error too.
    const std::vector<uint8_t> bytes = good.Encode();
    for (size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_FALSE(Restore(std::vector<uint8_t>(bytes.begin(), bytes.begin() + n)).ok())
          << ModelTypeName(type) << " truncated to " << n;
    }
  }
  // The pure seasonal model shares the bins' checks.
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(ModelType::kSeasonal));
  CkptWrite(w, true);
  CkptWrite(w, Duration{0});
  CkptWrite(w, std::vector<double>(24, 20.0));
  CkptWrite(w, std::vector<double>(24, 1.0));
  auto seasonal = Restore(w.TakeBuffer());
  ASSERT_FALSE(seasonal.ok());
  EXPECT_EQ(seasonal.status().code(), StatusCode::kDataLoss);
}

// Predict may continue a cached forecast cursor, but every answer must equal, bit for
// bit, the cold roll of a fresh clone (clones start without a cursor) — through forward
// steps, repeats, backward jumps, past and beyond-horizon requests, and every state
// change: anchors, cloning, re-installing the wire params, checkpoint restore, refits.
class ForecastCursorTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ForecastCursorTest, ScriptedPredictsMatchColdRolls) {
  ModelConfig config = TestConfig();
  config.max_forecast_steps = 300;  // keeps the beyond-horizon probe cheap
  std::unique_ptr<PredictiveModel> model = CreateModel(GetParam(), config);
  const std::vector<Sample> history = DiurnalSeries();
  ASSERT_TRUE(model->Fit(history).ok());

  int probes = 0;
  auto check = [&](SimTime t) {
    const std::unique_ptr<PredictiveModel> cold = model->Clone();
    const Prediction warm = model->Predict(t);
    const Prediction expected = cold->Predict(t);
    EXPECT_EQ(warm.value, expected.value) << "probe " << probes << " t=" << t;
    EXPECT_EQ(warm.stddev, expected.stddev) << "probe " << probes << " t=" << t;
    ++probes;
  };
  // Sensor-style checks: one grid step at a time, with clock jitter around the grid.
  auto walk = [&](SimTime from, int steps) {
    for (int i = 1; i <= steps; ++i) {
      check(from + i * kPeriod + (i % 3 - 1) * Seconds(4));
    }
  };
  // After a state change, first probe ahead of any cursor left from before it (a
  // stale cursor would be continued there), then walk.
  auto after_change = [&](SimTime from) {
    check(from + 30 * kPeriod);
    walk(from, 10);
  };

  // Monotone, a repeat, one step back, a backward and a forward jump, t <= state_time,
  // k rounding to 0, and k > max_forecast_steps.
  SimTime t0 = history.back().t;
  walk(t0, 40);
  for (int k : {40, 40, 39, 7, 90}) {
    check(t0 + k * kPeriod);
  }
  check(t0);
  check(t0 - Hours(2));
  check(t0 + kPeriod / 4);
  check(t0 + 400 * kPeriod);
  check(t0 + 91 * kPeriod);

  // Anchor behind the cursor, then exactly at the last checked sample (the sensor's
  // push path, which continues the cursor).
  model->OnAnchor(Sample{t0 + 60 * kPeriod, 24.0});
  t0 += 60 * kPeriod;
  walk(t0, 12);
  model->OnAnchor(Sample{t0 + 12 * kPeriod, 17.5});
  t0 += 12 * kPeriod;
  after_change(t0);
  // A stale anchor is ignored.
  model->OnAnchor(Sample{t0 - kPeriod, 30.0});
  walk(t0, 8);

  // A clone carries the state but not the cursor; the original keeps its own.
  std::unique_ptr<PredictiveModel> original = model->Clone();
  std::swap(original, model);
  walk(t0, 8);
  std::swap(original, model);
  walk(t0, 10);

  // Re-installing the (f32-rounded) wire params changes the state, not its time.
  ASSERT_TRUE(model->Deserialize(model->Serialize()).ok());
  after_change(t0);

  // Restoring a checkpoint of a replica anchored differently at the same time.
  std::unique_ptr<PredictiveModel> replica = model->Clone();
  replica->OnAnchor(Sample{t0 + 3 * kPeriod, 12.0});
  model->OnAnchor(Sample{t0 + 3 * kPeriod, 26.0});
  t0 += 3 * kPeriod;
  walk(t0, 6);
  ByteWriter w;
  replica->SaveState(w);
  ByteReader r(w.buffer());
  ASSERT_TRUE(ReadStatus(r, *model).ok());
  after_change(t0);
  EXPECT_EQ(model->Predict(t0 + 6 * kPeriod).value,
            replica->Predict(t0 + 6 * kPeriod).value);

  // Refits ending at the same time: the cursor must not survive new parameters.
  ASSERT_TRUE(model->Fit(DiurnalSeries(3, /*seed=*/9)).ok());
  after_change(history.back().t);
  ASSERT_TRUE(model->Fit(DiurnalSeries(3, /*seed=*/13)).ok());
  after_change(history.back().t);
  EXPECT_EQ(probes, 149);
}

INSTANTIATE_TEST_SUITE_P(ArFamily, ForecastCursorTest,
                         ::testing::Values(ModelType::kAr, ModelType::kSeasonalAr),
                         ModelTestName);

TEST(MarkovModelTest, TracksRegimeSwitching) {
  // Two-level square wave with sticky states.
  std::vector<Sample> history;
  Pcg32 rng(31);
  double level = 1.0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.01)) {
      level = level > 3.0 ? 1.0 : 5.0;
    }
    history.push_back(
        Sample{static_cast<SimTime>(i) * kPeriod, level + rng.Gaussian(0, 0.1)});
  }
  ModelConfig config = TestConfig();
  config.markov_states = 4;
  auto model = CreateModel(ModelType::kMarkov, config);
  ASSERT_TRUE(model->Fit(history).ok());
  // Anchored in the high regime, the near-term forecast stays high (sticky chain).
  model->OnAnchor(Sample{history.back().t + kPeriod, 5.0});
  const double soon = model->Predict(history.back().t + 3 * kPeriod).value;
  EXPECT_GT(soon, 3.5);
  // The long-run forecast approaches the overall mixture mean.
  const double far = model->Predict(history.back().t + Days(30)).value;
  EXPECT_GT(far, 1.0);
  EXPECT_LT(far, 5.0);
}

TEST(RegistryTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializeModel(std::vector<uint8_t>{}, TestConfig()).ok());
  EXPECT_FALSE(DeserializeModel(std::vector<uint8_t>{0xEE, 1, 2}, TestConfig()).ok());
}

// Model params arrive over the radio and the cell seam: a parameter no forecast can run
// on decodes to InvalidArgument before anything is allocated or divided by.
TEST(RegistryTest, DeserializeRejectsOutOfRangeParams) {
  const uint64_t kNegative = uint64_t{1} << 63;  // INT64_MIN after the cast
  // Wire layout of ArCore: period, order, phi, mean, innovation, marginal, time, state.
  auto ar_core = [](ByteWriter& w, uint64_t period) {
    w.WriteVarU64(period);
    w.WriteVarU64(2);
    w.WriteF32(0.9f);
    w.WriteF32(-0.1f);
    w.WriteF32(0.0f);
    w.WriteF32(0.1f);
    w.WriteF32(1.0f);
    w.WriteI64(Days(3));
    w.WriteF32(0.5f);
    w.WriteF32(0.4f);
  };
  // Wire layout of SeasonalBins: period, bin count, then a (mean, stddev) per bin.
  auto bins = [](ByteWriter& w, uint64_t period, uint64_t count, size_t written) {
    w.WriteVarU64(period);
    w.WriteVarU64(count);
    for (size_t i = 0; i < written; ++i) {
      w.WriteF32(20.0f);
      w.WriteF32(1.0f);
    }
  };
  auto ar = [&](uint64_t period) {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(ModelType::kAr));
    ar_core(w, period);
    return w.TakeBuffer();
  };
  auto seasonal = [&](ModelType type, uint64_t period, uint64_t count, size_t written) {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(type));
    bins(w, period, count, written);
    if (type == ModelType::kSeasonalAr) {
      ar_core(w, static_cast<uint64_t>(kPeriod));
    }
    return w.TakeBuffer();
  };
  const uint64_t day = static_cast<uint64_t>(Hours(24));

  // The hand-built blobs are well formed when their parameters are in range.
  ASSERT_TRUE(DeserializeModel(ar(static_cast<uint64_t>(kPeriod)), TestConfig()).ok());
  for (ModelType type : {ModelType::kSeasonal, ModelType::kSeasonalAr}) {
    ASSERT_TRUE(DeserializeModel(seasonal(type, day, 24, 24), TestConfig()).ok());
  }

  std::vector<std::pair<std::string, std::vector<uint8_t>>> bad = {
      {"AR zero sample period", ar(0)},
      {"AR sample period above INT64_MAX", ar(kNegative)},
      {"AR sample period 2^64-1", ar(~uint64_t{0})},
  };
  for (ModelType type : {ModelType::kSeasonal, ModelType::kSeasonalAr}) {
    const std::string name = ModelTypeName(type);
    bad.emplace_back(name + " zero period", seasonal(type, 0, 24, 24));
    bad.emplace_back(name + " period above INT64_MAX", seasonal(type, kNegative, 24, 24));
    bad.emplace_back(name + " more bins than ticks", seasonal(type, 12, 24, 24));
    bad.emplace_back(name + " absurd bin count",
                     seasonal(type, day, uint64_t{1} << 40, 4));
    bad.emplace_back(name + " bin count 2^64-1", seasonal(type, day, ~uint64_t{0}, 4));
  }
  {
    // The seasonal-AR residual core shares the AR checks.
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(ModelType::kSeasonalAr));
    bins(w, day, 24, 24);
    ar_core(w, 0);
    bad.emplace_back("seasonal-ar zero sample period", w.TakeBuffer());
  }
  for (const auto& [label, bytes] : bad) {
    auto model = DeserializeModel(bytes, TestConfig());
    ASSERT_FALSE(model.ok()) << label;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << label;
  }
}

// Every one-byte mutation of every fitted model's wire params either fails to decode or
// decodes to a model whose forecasts, before and after an anchor, are finite. Under the
// sanitizers this is also the divide-by-zero and overflow check for the decode path.
TEST(RegistryTest, MutatedParamsDecodeToAnErrorOrFiniteForecasts) {
  const ModelConfig config = TestConfig();
  const std::vector<Sample> history = DiurnalSeries();
  const SimTime t0 = history.back().t;
  for (ModelType type : {ModelType::kLastValue, ModelType::kSeasonal, ModelType::kAr,
                         ModelType::kSeasonalAr, ModelType::kMarkov}) {
    auto fitted = CreateModel(type, config);
    ASSERT_TRUE(fitted->Fit(history).ok());
    const std::vector<uint8_t> wire = fitted->Serialize();
    int decoded = 0;
    for (size_t at = 0; at < wire.size(); ++at) {
      for (const uint8_t flip : {0x01, 0x02, 0x40, 0x80, 0xFF}) {
        std::vector<uint8_t> mutant = wire;
        mutant[at] ^= flip;
        auto model = DeserializeModel(mutant, config);
        if (!model.ok()) {
          continue;
        }
        ++decoded;
        auto finite = [&](SimTime t) {
          const Prediction p = (*model)->Predict(t);
          EXPECT_TRUE(std::isfinite(p.value) && std::isfinite(p.stddev))
              << ModelTypeName(type) << " byte " << at << " ^ " << int{flip}
              << " at t0 + " << (t - t0);
        };
        finite(t0 - kPeriod);
        finite(t0 + kPeriod);
        finite(t0 + 4 * kPeriod);
        (*model)->OnAnchor(Sample{t0 + kPeriod, 21.0});
        finite(t0 + 2 * kPeriod);
        finite(t0 + 4 * kPeriod);
      }
    }
    EXPECT_GT(decoded, 0) << ModelTypeName(type);
  }
}

TEST(RegistryTest, ModelParamsAreCompact) {
  // Wire size is sensor energy; keep the seasonal-AR params within a few frames.
  auto model = CreateModel(ModelType::kSeasonalAr, TestConfig());
  ASSERT_TRUE(model->Fit(DiurnalSeries()).ok());
  EXPECT_LT(model->Serialize().size(), 300u);
}

// ---------- spatial ----------

TEST(SpatialModelTest, ConditioningShrinksUncertainty) {
  // Three sensors: 0 and 1 strongly correlated, 2 independent.
  Pcg32 rng(41);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 4000; ++i) {
    const double shared = rng.Gaussian(20, 2);
    rows.push_back({shared + rng.Gaussian(0, 0.2), shared + rng.Gaussian(0, 0.2) + 1.0,
                    rng.Gaussian(10, 1)});
  }
  SpatialGaussianModel model;
  ASSERT_TRUE(model.Fit(rows).ok());
  EXPECT_GT(model.Correlation(0, 1), 0.97);
  EXPECT_LT(std::abs(model.Correlation(0, 2)), 0.1);

  auto marginal = model.Condition(0, {});
  auto conditioned = model.Condition(0, {{1, 24.0}});
  ASSERT_TRUE(marginal.ok());
  ASSERT_TRUE(conditioned.ok());
  EXPECT_LT(conditioned->stddev, 0.4 * marginal->stddev);
  // Sensor 1 at 24 -> shared ~ 23 -> sensor 0 ~ 23.
  EXPECT_NEAR(conditioned->value, 23.0, 0.5);
  // Conditioning on the independent sensor helps almost not at all.
  auto useless = model.Condition(0, {{2, 10.0}});
  ASSERT_TRUE(useless.ok());
  EXPECT_GT(useless->stddev, 0.9 * marginal->stddev);
}

TEST(SpatialModelTest, RejectsBadInput) {
  SpatialGaussianModel model;
  EXPECT_FALSE(model.Fit({}).ok());
  EXPECT_FALSE(model.Fit({{1.0}, {2.0}, {3.0}}).ok());  // single sensor
  EXPECT_FALSE(model.Condition(0, {}).ok());            // not fitted
}

}  // namespace
}  // namespace presto
