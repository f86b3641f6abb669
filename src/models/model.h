// Predictive model interface (paper §3, "Prediction Engine").
//
// PRESTO's models are deliberately *asymmetric*: expensive to fit at the tethered
// proxy, cheap to evaluate at the sensor. The same object runs at both ends:
//
//   proxy:   model->Fit(history)  -> params = model->Serialize()  --radio--> sensor
//   sensor:  model->Deserialize(params); every sample: |v - model->Predict(t)| > delta?
//            push : suppress.    On push, BOTH ends call OnAnchor(sample), keeping the
//            two replicas' state identical (the proxy knows exactly what the sensor
//            suppressed, so it can extrapolate the gaps).
//
// The mirrored-state contract is what makes model-driven push lossless in expectation:
// any sample the sensor suppressed is one the proxy can reconstruct to within delta.

#ifndef SRC_MODELS_MODEL_H_
#define SRC_MODELS_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sample.h"
#include "src/util/span.h"

namespace presto {

class ByteReader;
class ByteWriter;

// A forecast with one-sigma uncertainty. Extrapolation answers a query only when
// `stddev` is within the query's error tolerance (proxy/query logic).
struct Prediction {
  double value = 0.0;
  double stddev = 0.0;
};

enum class ModelType : uint8_t {
  kLastValue = 1,   // persistence: predict the last transmitted value
  kSeasonal = 2,    // time-of-day bins (+ per-bin spread)
  kAr = 3,          // AR(p) on the sensing grid, anchored at pushes
  kSeasonalAr = 4,  // seasonal bins + AR(p) on the residual (SARIMA-lite)
  kMarkov = 5,      // discretized-value Markov chain (activity-style data)
};
constexpr bool CkptEnumValid(ModelType v) {
  return v >= ModelType::kLastValue && v <= ModelType::kMarkov;
}

const char* ModelTypeName(ModelType type);

// Whether a period read from model params as a varint is one Predict can divide by: a
// value above INT64_MAX would turn negative in the cast to Duration.
inline bool IsWirePeriod(uint64_t raw) {
  return raw > 0 && raw <= static_cast<uint64_t>(INT64_MAX);
}

// Tuning knobs shared by the factory. Fields irrelevant to a model type are ignored.
struct ModelConfig {
  Duration sample_period = Seconds(31);   // sensing grid the AR state rolls on
  Duration seasonal_period = Hours(24);   // one diurnal cycle
  int seasonal_bins = 24;                 // bins per seasonal period
  int ar_order = 2;
  int markov_states = 8;
  int max_forecast_steps = 4096;          // psi-weight horizon for AR variance
};

template <class S, class F, CkptSelf<S, ModelConfig> = 0>
void CkptFields(S& v, F&& f) {
  f(v.sample_period);
  f(v.seasonal_period);
  f(v.seasonal_bins);
  f(v.ar_order);
  f(v.markov_states);
  f(v.max_forecast_steps);
}

class PredictiveModel {
 public:
  virtual ~PredictiveModel() = default;

  virtual ModelType type() const = 0;
  const char* Name() const { return ModelTypeName(type()); }

  // Estimates parameters from a training window (proxy side). History must be
  // time-ordered; models state their minimum length via the returned error.
  virtual Status Fit(const std::vector<Sample>& history) = 0;

  // Wire format of the fitted parameters (the bytes the proxy radios to the sensor —
  // their size is a real communication cost). First byte is the ModelType.
  virtual std::vector<uint8_t> Serialize() const = 0;

  // Reconstructs a fitted model from Serialize() output (sensor side). Params no
  // forecast can run on (a period <= 0, a non-finite float, a bin or state count the
  // bytes cannot hold) are InvalidArgument, refused before anything is allocated.
  virtual Status Deserialize(span<const uint8_t> bytes) = 0;

  // Forecast at absolute time `t`, given params + anchors so far. Must be callable for
  // any `t` (queries extrapolate both forward and into unpushed past gaps). Part of the
  // lockstep contract: an implementation may cache work between calls (the AR models
  // keep a forecast cursor), but every answer must equal, bit for bit, what a fresh
  // Clone() of the model returns for the same `t`. Such a cache makes Predict a
  // mutating call, so one model object belongs to one lane.
  virtual Prediction Predict(SimTime t) const = 0;

  // State update when a sample crosses the radio (push or pull); called identically at
  // the proxy and the sensor to keep replicas in lockstep.
  virtual void OnAnchor(const Sample& sample) = 0;

  // Abstract operation counts for CPU-energy accounting on the sensor. A "check" is
  // Predict + compare; Fit cost is proxy-side (tethered, but reported by benches to
  // demonstrate the asymmetry requirement from §3).
  virtual int64_t PredictCostOps() const = 0;
  virtual int64_t FitCostOps(size_t history_len) const = 0;

  virtual std::unique_ptr<PredictiveModel> Clone() const = 0;

  // Checkpoint codec — distinct from Serialize(): the wire format is deliberately
  // lossy (f32 rounding, quantized probabilities, dropped anchors are radio-cost
  // decisions), while a checkpoint must restore the replica bit-exactly. Full f64
  // state, including anchors and rolling windows. LoadState overwrites everything;
  // derived caches are rebuilt deterministically.
  virtual void SaveState(ByteWriter& w) const = 0;
  virtual void LoadState(ByteReader& r) = 0;
};

// Checkpoint-serializes `model` with its type tag (or a null marker), so the paired
// loader can reconstruct the right concrete class. `model` may be null.
void SaveModelState(ByteWriter& w, const PredictiveModel* model);

// Rebuilds a model from SaveModelState bytes: returns nullptr for the null marker,
// otherwise a freshly created model of the tagged type with LoadState applied
// (nullptr, too, once `r` has failed).
std::unique_ptr<PredictiveModel> LoadModelState(ByteReader& r, const ModelConfig& config);

// A model slot as one field of a list: `f(CkptModel(self.model_, config))` writes
// SaveModelState's bytes and reads them back into the slot under `config`.
template <class Ptr>
struct CkptModelSlot {
  Ptr& model;
  const ModelConfig& config;
};
template <class Ptr>
CkptModelSlot<Ptr> CkptModel(Ptr& model, const ModelConfig& config) {
  return {model, config};
}
inline void CkptWrite(ByteWriter& w,
                      const CkptModelSlot<const std::unique_ptr<PredictiveModel>>& v) {
  SaveModelState(w, v.model.get());
}
inline void CkptRead(ByteReader& r,
                     const CkptModelSlot<std::unique_ptr<PredictiveModel>>& v) {
  CkptSet(r, v.model, LoadModelState(r, v.config));
}

}  // namespace presto

#endif  // SRC_MODELS_MODEL_H_
