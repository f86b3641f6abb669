#include "src/proxy/prediction_engine.h"

#include <algorithm>

#include "src/models/registry.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"

namespace presto {

Status Validate(const PredictionEngineParams& params) {
  if (params.min_training_samples < 16) {
    return InvalidArgumentError("engine: min_training_samples must be at least 16");
  }
  if (params.min_training_span <= 0) {
    return InvalidArgumentError("engine: min_training_span must be positive");
  }
  return OkStatus();
}

PredictionEngine::PredictionEngine(const PredictionEngineParams& params)
    : params_(params) {
  PRESTO_CHECK_OK(Validate(params_));
}

void PredictionEngine::ObserveTraining(const Sample& sample) {
  if (!history_.empty() && sample.t <= history_.back().t) {
    // Out-of-order (pulled past data): insert in place, dropping exact duplicates.
    auto it = std::lower_bound(
        history_.begin(), history_.end(), sample,
        [](const Sample& a, const Sample& b) { return a.t < b.t; });
    if (it != history_.end() && it->t == sample.t) {
      it->value = sample.value;
      return;
    }
    history_.insert(it, sample);
  } else {
    history_.push_back(sample);
  }
  if (history_.size() > params_.max_history) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<ptrdiff_t>(history_.size() -
                                                             params_.max_history));
  }
}

std::vector<Sample> PredictionEngine::ResampleHistory() const {
  PRESTO_CHECK(history_.size() >= 2);
  const Duration step = params_.model_config.sample_period;
  std::vector<Sample> out;
  const SimTime start = history_.front().t;
  const SimTime end = history_.back().t;
  out.reserve(static_cast<size_t>((end - start) / step) + 1);
  size_t j = 0;
  for (SimTime t = start; t <= end; t += step) {
    while (j + 1 < history_.size() && history_[j + 1].t <= t) {
      ++j;
    }
    double v;
    if (j + 1 < history_.size() && history_[j].t <= t) {
      const Sample& a = history_[j];
      const Sample& b = history_[j + 1];
      const double frac =
          b.t == a.t
              ? 0.0
              : static_cast<double>(t - a.t) / static_cast<double>(b.t - a.t);
      v = a.value * (1.0 - frac) + b.value * frac;
    } else {
      v = history_[j].value;
    }
    out.push_back(Sample{t, v});
  }
  return out;
}

Result<std::vector<uint8_t>> PredictionEngine::FitAndSerialize() {
  if (!ReadyToFit()) {
    return FailedPreconditionError("prediction engine: not enough training data");
  }
  auto model = CreateModel(params_.model_type, params_.model_config);
  const std::vector<Sample> grid = ResampleHistory();
  PRESTO_RETURN_IF_ERROR(model->Fit(grid));
  model_ = std::move(model);
  fit_count_ += 1;
  last_fit_time_ = history_.back().t;
  recent_pushes_.clear();
  return model_->Serialize();
}

Status PredictionEngine::InstallSerialized(const std::vector<uint8_t>& params) {
  auto model = DeserializeModel(params, params_.model_config);
  if (!model.ok()) {
    return model.status();
  }
  model_ = std::move(*model);
  return OkStatus();
}

void PredictionEngine::MirrorAnchor(const Sample& sample) {
  if (model_ != nullptr) {
    model_->OnAnchor(sample);
  }
}

Result<Prediction> PredictionEngine::Predict(SimTime t) const {
  if (model_ == nullptr) {
    return FailedPreconditionError("prediction engine: no model fitted");
  }
  return model_->Predict(t);
}

void PredictionEngine::NoteDeviationPush(SimTime now) {
  recent_pushes_.push_back(now);
  const SimTime cutoff = now - push_window_;
  auto it = std::lower_bound(recent_pushes_.begin(), recent_pushes_.end(), cutoff);
  recent_pushes_.erase(recent_pushes_.begin(), it);
}

bool PredictionEngine::ShouldRefit(SimTime now) const {
  if (model_ == nullptr) {
    return ReadyToFit();
  }
  if (now - last_fit_time_ > params_.refit_interval) {
    return true;
  }
  const double expected =
      static_cast<double>(push_window_) /
      static_cast<double>(params_.model_config.sample_period);
  return static_cast<double>(recent_pushes_.size()) > params_.refit_push_rate * expected;
}

}  // namespace presto

namespace presto {

void PredictionEngine::SaveState(ByteWriter& w) const {
  StateFields(*this, CkptWriter(w));
}

void PredictionEngine::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
