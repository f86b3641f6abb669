// Discretized-value Markov-chain model (paper §3 suggests Markov models for the
// temporal axis; best suited to regime-style data like daily activity levels).

#ifndef SRC_MODELS_MARKOV_H_
#define SRC_MODELS_MARKOV_H_

#include <vector>

#include "src/models/model.h"

namespace presto {

class MarkovModel : public PredictiveModel {
 public:
  explicit MarkovModel(const ModelConfig& config) : config_(config) {}

  ModelType type() const override { return ModelType::kMarkov; }
  Status Fit(const std::vector<Sample>& history) override;
  std::vector<uint8_t> Serialize() const override;
  Status Deserialize(span<const uint8_t> bytes) override;
  Prediction Predict(SimTime t) const override;
  void OnAnchor(const Sample& sample) override;
  int64_t PredictCostOps() const override;
  int64_t FitCostOps(size_t history_len) const override;
  std::unique_ptr<PredictiveModel> Clone() const override {
    return std::make_unique<MarkovModel>(*this);
  }
  void SaveState(ByteWriter& w) const override;
  void LoadState(ByteReader& r) override;

  int num_states() const { return static_cast<int>(centers_.size()); }

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.fitted_);
    f(self.anchored_);
    f(self.centers_);
    f(self.trans_);
    f(self.marginal_);
    f(self.bin_half_width_);
    f(self.anchor_state_);
    f(self.anchor_time_);
  }

  int StateOf(double value) const;
  // Distribution after k steps from `start`, via cached binary powers of P.
  std::vector<double> Evolve(int start, int64_t k) const;
  Prediction FromDistribution(const std::vector<double>& dist) const;
  void BuildPowerCache();
  // Rounds fitted parameters through the wire precision so proxy and sensor replicas
  // are bit-identical after a Serialize/Deserialize round trip.
  void QuantizeToWirePrecision();

  ModelConfig config_;
  std::vector<double> centers_;              // state representative values
  std::vector<std::vector<double>> trans_;   // row-stochastic transition matrix
  std::vector<double> marginal_;             // empirical state frequencies
  double bin_half_width_ = 0.0;
  bool fitted_ = false;
  bool anchored_ = false;
  int anchor_state_ = 0;
  SimTime anchor_time_ = 0;
  // trans_^(2^i) for binary-decomposition evolution over long horizons.
  std::vector<std::vector<std::vector<double>>> power_cache_;
};

}  // namespace presto

#endif  // SRC_MODELS_MARKOV_H_
