// Microbench M1 — the §3 asymmetry requirement: "models ... can be hard to build at
// the proxy, but they must require little resources to verify at the sensor."
//
// Measures wall-clock cost of proxy-side Fit vs sensor-side Predict (the per-sample
// check) for every model family, plus Deserialize (installation) and OnAnchor. The
// check is measured twice: anchoring after every check (worst case) and after every
// 30th (close to the ~3% push share of a model-driven deployment, where AR models
// continue their forecast cursor between pushes).

#include <benchmark/benchmark.h>

#include <cmath>

#include "src/models/registry.h"
#include "src/util/rng.h"

namespace presto {
namespace {

constexpr Duration kPeriod = Seconds(31);

ModelConfig Config() {
  ModelConfig c;
  c.sample_period = kPeriod;
  return c;
}

std::vector<Sample> History(int days) {
  Pcg32 rng(12);
  std::vector<Sample> out;
  double ar = 0.0;
  for (SimTime t = 0; t < Days(days); t += kPeriod) {
    ar = 0.97 * ar + rng.Gaussian(0, 0.08);
    out.push_back(Sample{t, 20.0 + 5.0 * std::sin(2.0 * M_PI *
                                                  static_cast<double>(t % kDay) /
                                                  static_cast<double>(kDay)) +
                                ar});
  }
  return out;
}

ModelType TypeFromIndex(int64_t i) {
  static const ModelType kTypes[] = {ModelType::kLastValue, ModelType::kSeasonal,
                                     ModelType::kAr, ModelType::kSeasonalAr,
                                     ModelType::kMarkov};
  return kTypes[i];
}

void BM_ProxyFit(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  const std::vector<Sample> history = History(3);
  for (auto _ : state) {
    auto model = CreateModel(type, Config());
    benchmark::DoNotOptimize(model->Fit(history));
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ProxyFit)->DenseRange(0, 4);

void BM_SensorCheck(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  auto model = CreateModel(type, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  SimTime t = history.back().t;
  for (auto _ : state) {
    t += kPeriod;  // the sensor checks the next sample, one step ahead
    benchmark::DoNotOptimize(model->Predict(t));
    model->OnAnchor(Sample{t, 20.0});  // worst case: every check anchors
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_SensorCheck)->DenseRange(0, 4);

void BM_SensorCheckSuppressed(benchmark::State& state) {
  constexpr int kChecksPerPush = 30;
  const ModelType type = TypeFromIndex(state.range(0));
  auto model = CreateModel(type, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  SimTime t = history.back().t;
  int checks = 0;
  for (auto _ : state) {
    t += kPeriod;
    benchmark::DoNotOptimize(model->Predict(t));
    if (++checks % kChecksPerPush == 0) {
      model->OnAnchor(Sample{t, 20.0});
    }
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_SensorCheckSuppressed)->DenseRange(0, 4);

void BM_SensorInstall(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  auto model = CreateModel(type, Config());
  if (!model->Fit(History(3)).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  const std::vector<uint8_t> wire = model->Serialize();
  for (auto _ : state) {
    auto installed = DeserializeModel(wire, Config());
    benchmark::DoNotOptimize(installed);
  }
  state.SetLabel(std::string(ModelTypeName(type)) + "/" + std::to_string(wire.size()) +
                 "B");
}
BENCHMARK(BM_SensorInstall)->DenseRange(0, 4);

// Long-horizon forecast (proxy-side extrapolation of a day-long gap). Each iteration
// anchors one step further first, which drops the forecast cursor, so every Predict is
// a cold roll of the whole ~2,787-step gap rather than a cached answer.
void BM_ProxyExtrapolateDayGap(benchmark::State& state) {
  auto model = CreateModel(ModelType::kSeasonalAr, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  SimTime t = history.back().t;
  for (auto _ : state) {
    t += kPeriod;
    model->OnAnchor(Sample{t, 20.0});
    benchmark::DoNotOptimize(model->Predict(t + Days(1)));
  }
}
BENCHMARK(BM_ProxyExtrapolateDayGap);

}  // namespace
}  // namespace presto
