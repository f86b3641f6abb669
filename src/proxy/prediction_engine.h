// The proxy-side prediction engine (paper §3): fits per-sensor models from accumulated
// data, serializes parameters for model-driven push, mirrors sensor anchors so both
// replicas forecast identically, extrapolates cache misses, and monitors push rates to
// decide when a model has drifted and must be refitted.

#ifndef SRC_PROXY_PREDICTION_ENGINE_H_
#define SRC_PROXY_PREDICTION_ENGINE_H_

#include <memory>
#include <vector>

#include "src/models/model.h"
#include "src/util/ckpt.h"

namespace presto {

struct PredictionEngineParams {
  ModelType model_type = ModelType::kSeasonalAr;
  ModelConfig model_config;
  // Bootstrap pushes are sparse (the sensor suppresses anything within its tolerance),
  // so readiness is about *span*, not density: the seasonal component needs to have
  // seen every time-of-day bin, and the grid resampler fills the gaps. A bit over one
  // diurnal cycle, with a floor on real observations.
  Duration min_training_span = Hours(26);
  size_t min_training_samples = 48;
  size_t max_history = 200000;
  Duration refit_interval = Days(2);
  // Refit early when the sensor is pushing more than this fraction of its samples
  // (model failure monitor).
  double refit_push_rate = 0.30;
};

template <class S, class F, CkptSelf<S, PredictionEngineParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.model_type);
  f(v.model_config);
  f(v.min_training_span);
  f(v.min_training_samples);
  f(v.max_history);
  f(v.refit_interval);
  f(v.refit_push_rate);
}

// PredictionEngine's construction rules (InvalidArgument when broken).
Status Validate(const PredictionEngineParams& params);

class PredictionEngine {
 public:
  explicit PredictionEngine(const PredictionEngineParams& params);

  // Feeds a reference-time sample (push or pull) into the training history.
  void ObserveTraining(const Sample& sample);

  bool ReadyToFit() const {
    return history_.size() >= params_.min_training_samples &&
           history_.back().t - history_.front().t >= params_.min_training_span;
  }
  bool has_model() const { return model_ != nullptr; }
  const PredictiveModel* model() const { return model_.get(); }

  // Fits a fresh model on the (grid-resampled) history and returns its wire params.
  Result<std::vector<uint8_t>> FitAndSerialize();

  // Installs a model from wire params (replica path — no local fit).
  Status InstallSerialized(const std::vector<uint8_t>& params);

  // Mirrors a sensor-side anchor (called when a model-deviation push arrives).
  void MirrorAnchor(const Sample& sample);

  // Extrapolates; fails if no model is installed yet.
  Result<Prediction> Predict(SimTime t) const;

  // --- drift monitoring ---
  // Record that the sensor pushed (deviation) / suppressed-equivalent periods pass.
  void NoteDeviationPush(SimTime now);
  // True when the model looks stale: age > refit_interval, or recent push rate above
  // refit_push_rate (expected samples derived from the model config's sample period).
  bool ShouldRefit(SimTime now) const;

  SimTime last_fit_time() const { return last_fit_time_; }
  uint64_t fit_count() const { return fit_count_; }

  // Installs an already-materialized model (snapshot transfer: full precision, unlike
  // InstallSerialized's wire params).
  void InstallModel(std::unique_ptr<PredictiveModel> model) { model_ = std::move(model); }

  // Checkpoint codec: training history, the fitted model (full precision), fit
  // bookkeeping and the push-rate window.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.history_);
    f(CkptModel(self.model_, self.params_.model_config));
    f(self.last_fit_time_);
    f(self.fit_count_);
    f(self.recent_pushes_);
    f(self.push_window_);
  }

  // Resamples history onto the model's sampling grid (linear interpolation), because
  // bootstrap/value-driven training data is irregular.
  std::vector<Sample> ResampleHistory() const;

  PredictionEngineParams params_;
  std::vector<Sample> history_;  // time-ordered reference samples
  std::unique_ptr<PredictiveModel> model_;
  SimTime last_fit_time_ = 0;
  uint64_t fit_count_ = 0;

  // Sliding push-rate window.
  std::vector<SimTime> recent_pushes_;
  Duration push_window_ = Hours(2);
};

}  // namespace presto

#endif  // SRC_PROXY_PREDICTION_ENGINE_H_
