// Autoregressive temporal models (paper §3: "simple regression techniques and
// time-series analysis techniques may be used to model many temporal phenomena").
//
// ArCore is the shared engine: AR(p) coefficients fitted by Yule-Walker/Levinson-
// Durbin, a rolling state of the last p grid values, multi-step forecasts with
// psi-weight variance growth. ArModel applies it to raw values; SeasonalArModel applies
// it to residuals around a seasonal-bin climatology (a SARIMA-flavoured combination,
// the strongest model for diurnal data like temperature).

#ifndef SRC_MODELS_AR_H_
#define SRC_MODELS_AR_H_

#include <vector>

#include "src/models/model.h"
#include "src/models/seasonal.h"
#include "src/util/bytes.h"

namespace presto {

// AR(p) forecasting machinery on a fixed sampling grid.
//
// Member order is cache layout: a forecast that continues the cursor reads the
// scalars and caches declared first, plus one cursor block and one horizon entry.
struct ArCore {
  Duration sample_period = Seconds(31);
  // Grid time of the newest `state` entry.
  SimTime state_time = 0;
  int max_forecast_steps = 4096;
  double mean = 0.0;           // level the AR process reverts to

 private:
  // The forecast cursor: `buf` holds a copy of phi (q values), then a window whose
  // [end - p, end) is `state` rolled `steps` grid steps past `base` (steps < 0:
  // none), so a step reads one block. Never serialized or copied.
  struct Cursor {
    std::vector<double> buf;
    size_t end = 0;
    int64_t steps = -1;
    SimTime base = 0;

    Cursor() = default;
    Cursor(const Cursor&) {}
    Cursor& operator=(const Cursor&) {
      steps = -1;
      return *this;
    }
  };

  // The horizon table: psi[j] and stddev[j] for j < psi.size() == stddev.size()
  // (stddev[0] unused), with cum = sum of psi[j]^2 over j < stddev.size() - 1. Grown
  // by HorizonStd one horizon at a time in the order the eager psi-weight recursion
  // used, so every entry is bit-identical to it. Never serialized or copied.
  struct HorizonTable {
    std::vector<double> stddev;
    std::vector<double> psi;
    double cum = 0.0;

    HorizonTable() = default;
    HorizonTable(const HorizonTable&) {}
    HorizonTable& operator=(const HorizonTable&) {
      Reset();
      return *this;
    }
    void Reset() {
      psi.clear();
      stddev.clear();
      cum = 0.0;
    }
  };

  mutable Cursor cursor_;
  mutable HorizonTable horizon_;

 public:
  std::vector<double> phi;     // AR coefficients, phi[0] multiplies the newest value
  double innovation_std = 0.0; // one-step noise sigma
  double marginal_std = 0.0;   // series sigma (forecast-variance ceiling)

  // Rolling state: the last p values on the grid (newest last), ending at
  // state_time. Mirrored at proxy and sensor through anchors.
  std::vector<double> state;

  // Fits phi/mean/sigmas from a regular time-ordered series and initializes the state
  // from its tail. `values[i]` is at `start + i * sample_period`.
  Status Fit(const std::vector<double>& values, SimTime last_sample_time, int order);

  // Forecast at absolute time t, k = round((t - state_time) / sample_period) steps
  // ahead. Rolls a private cursor (the state stepped forward, never the state itself):
  // a request at or past the cursor's step count continues it, an earlier one rebuilds
  // it from `state` and `phi`. A sensor checking consecutive samples therefore pays
  // one AR step per check instead of k, with results bit-identical to a cold roll.
  // The stddev comes from HorizonStd(k). The cursor and the horizon table are mutable
  // caches, so each ArCore is used by one lane only (the sensor's copy, or its
  // proxy's engine); copies start without either. A hand edit of phi or state
  // takes effect at the next Fit, Anchor or restore.
  Prediction Forecast(SimTime t) const;

  // Advances the state to `s.t` (predicting the gap) and pins the newest value to the
  // observed one.
  void Anchor(const Sample& s);

  void SerializeTo(ByteWriter* w) const;
  void DeserializeFrom(ByteReader* r);

  // Full-precision checkpoint codec (the wire form above rounds through f32). Only
  // fitted models are checkpointed, so LoadState refuses, as DataLoss, any state a
  // forecast cannot run on: sample_period <= 0, an order outside [1, 64], a state
  // window that is not p values, max_forecast_steps outside [1, 65536], or a
  // negative state_time.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.sample_period);
    f(self.max_forecast_steps);
    f(self.phi);
    f(self.mean);
    f(self.innovation_std);
    f(self.marginal_std);
    f(self.state);
    f(self.state_time);
  }

  // Cumulative k-step forecast stddev from the psi weights of phi, for
  // 1 <= k <= max_forecast_steps. Extends the horizon table only as far as the largest
  // k asked since the last Fit/install/restore.
  double HorizonStd(int64_t k) const;
  // Rolls the cursor to k >= 1 steps past state_time; returns one past its newest value.
  const double* RollTo(int64_t k) const;
  // Drops both caches: Fit, DeserializeFrom and LoadState replace what they derive from.
  void ResetCaches();
};

// Plain AR(p) on the observed values.
class ArModel : public PredictiveModel {
 public:
  explicit ArModel(const ModelConfig& config);

  ModelType type() const override { return ModelType::kAr; }
  Status Fit(const std::vector<Sample>& history) override;
  std::vector<uint8_t> Serialize() const override;
  Status Deserialize(span<const uint8_t> bytes) override;
  Prediction Predict(SimTime t) const override;
  void OnAnchor(const Sample& sample) override;
  int64_t PredictCostOps() const override;
  int64_t FitCostOps(size_t history_len) const override;
  std::unique_ptr<PredictiveModel> Clone() const override {
    return std::make_unique<ArModel>(*this);
  }
  void SaveState(ByteWriter& w) const override;
  void LoadState(ByteReader& r) override;

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.fitted_);
    f(self.core_);
  }

  bool fitted_ = false;
  ArCore core_;
  ModelConfig config_;
};

// Seasonal bins plus AR(p) on the de-seasonalized residual.
class SeasonalArModel : public PredictiveModel {
 public:
  explicit SeasonalArModel(const ModelConfig& config);

  ModelType type() const override { return ModelType::kSeasonalAr; }
  Status Fit(const std::vector<Sample>& history) override;
  std::vector<uint8_t> Serialize() const override;
  Status Deserialize(span<const uint8_t> bytes) override;
  Prediction Predict(SimTime t) const override;
  void OnAnchor(const Sample& sample) override;
  int64_t PredictCostOps() const override;
  int64_t FitCostOps(size_t history_len) const override;
  std::unique_ptr<PredictiveModel> Clone() const override {
    return std::make_unique<SeasonalArModel>(*this);
  }
  void SaveState(ByteWriter& w) const override;
  void LoadState(ByteReader& r) override;

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.fitted_);
    f(self.bins_);
    f(self.core_);
  }

  // What Predict reads first (cache layout).
  bool fitted_ = false;
  SeasonalBins bins_;
  ArCore core_;  // runs on residuals (value - seasonal)
  ModelConfig config_;
};

}  // namespace presto

#endif  // SRC_MODELS_AR_H_
