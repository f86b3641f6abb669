// Seasonal (time-of-day) models. The paper's canonical example: "only deviations from
// the normal temperature for each hour of the day are reported."

#ifndef SRC_MODELS_SEASONAL_H_
#define SRC_MODELS_SEASONAL_H_

#include <vector>

#include "src/models/model.h"
#include "src/util/bytes.h"

namespace presto {

// Shared bin machinery: per-bin mean/spread over a repeating period, with linear
// interpolation between bin centers. Reused by SeasonalModel and SeasonalArModel.
class SeasonalBins {
 public:
  SeasonalBins() = default;
  // Bins given directly: `means` and `stddevs` hold one entry per bin, at least one,
  // and no more bins than `period` has ticks.
  SeasonalBins(Duration period, std::vector<double> means, std::vector<double> stddevs);

  int BinOf(SimTime t) const;
  // Interpolated seasonal expectation at t.
  double ValueAt(SimTime t) const;
  double StddevAt(SimTime t) const;

  // Fits `bins` bins over `period` from samples; requires at least one sample per
  // bin.
  Status Fit(const std::vector<Sample>& history, Duration period, int bins);

  void SerializeTo(ByteWriter* w) const;
  void DeserializeFrom(ByteReader* r);

  // Full-precision checkpoint codec (the wire form above rounds through f32). Only
  // fitted bins are checkpointed, so LoadState refuses, as DataLoss, a period <= 0,
  // no bins, mismatched mean/stddev counts, or more bins than the period has ticks.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.period_);
    f(self.means_);
    f(self.stddevs_);
  }

  // The phase of `t` within the period, in [0, period).
  Duration PhaseOf(SimTime t) const {
    const Duration phase = t % period_;
    return phase < 0 ? phase + period_ : phase;
  }
  // Recomputes bin_width_ after the period or the bin count changed.
  void DeriveBinWidth() {
    bin_width_ = static_cast<double>(period_ / static_cast<Duration>(means_.size()));
  }

  Duration period_ = Hours(24);
  double bin_width_ = 0.0;  // period / bins, in whole ticks
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

// Pure seasonal predictor: Predict(t) = bin mean. Stateless across anchors (an anchor
// does not change the climatology), so sensor and proxy replicas agree trivially.
class SeasonalModel : public PredictiveModel {
 public:
  explicit SeasonalModel(const ModelConfig& config) : config_(config) {}

  ModelType type() const override { return ModelType::kSeasonal; }
  Status Fit(const std::vector<Sample>& history) override;
  std::vector<uint8_t> Serialize() const override;
  Status Deserialize(span<const uint8_t> bytes) override;
  Prediction Predict(SimTime t) const override;
  void OnAnchor(const Sample& sample) override;
  int64_t PredictCostOps() const override { return 8; }
  int64_t FitCostOps(size_t history_len) const override {
    return static_cast<int64_t>(history_len) * 4;
  }
  std::unique_ptr<PredictiveModel> Clone() const override {
    return std::make_unique<SeasonalModel>(*this);
  }
  void SaveState(ByteWriter& w) const override;
  void LoadState(ByteReader& r) override;

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.fitted_);
    f(self.bins_);
  }

  ModelConfig config_;
  SeasonalBins bins_;
  bool fitted_ = false;
};

// Persistence model: Predict(t) = last transmitted value, uncertainty growing with the
// time since that anchor (random-walk error model). This is the model-driven analogue
// of plain value-driven push and the weakest baseline in the model ablation.
class LastValueModel : public PredictiveModel {
 public:
  explicit LastValueModel(const ModelConfig& config) : config_(config) {}

  ModelType type() const override { return ModelType::kLastValue; }
  Status Fit(const std::vector<Sample>& history) override;
  std::vector<uint8_t> Serialize() const override;
  Status Deserialize(span<const uint8_t> bytes) override;
  Prediction Predict(SimTime t) const override;
  void OnAnchor(const Sample& sample) override;
  int64_t PredictCostOps() const override { return 4; }
  int64_t FitCostOps(size_t history_len) const override {
    return static_cast<int64_t>(history_len) * 2;
  }
  std::unique_ptr<PredictiveModel> Clone() const override {
    return std::make_unique<LastValueModel>(*this);
  }
  void SaveState(ByteWriter& w) const override;
  void LoadState(ByteReader& r) override;

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.fitted_);
    f(self.anchored_);
    f(self.mean_);
    f(self.marginal_stddev_);
    f(self.step_stddev_);
    f(self.anchor_);
  }

  ModelConfig config_;
  double mean_ = 0.0;
  double marginal_stddev_ = 0.0;
  double step_stddev_ = 0.0;  // stddev of one-sample differences
  bool fitted_ = false;
  bool anchored_ = false;
  Sample anchor_{};
};

}  // namespace presto

#endif  // SRC_MODELS_SEASONAL_H_
