#include "src/models/seasonal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

// ---------- SeasonalBins ----------

SeasonalBins::SeasonalBins(Duration period, std::vector<double> means,
                           std::vector<double> stddevs)
    : period_(period), means_(std::move(means)), stddevs_(std::move(stddevs)) {
  PRESTO_CHECK(!means_.empty() && means_.size() == stddevs_.size());
  PRESTO_CHECK(period_ >= static_cast<Duration>(means_.size()));
  DeriveBinWidth();
}

int SeasonalBins::BinOf(SimTime t) const {
  PRESTO_DCHECK(!means_.empty());
  const int n = static_cast<int>(means_.size());
  const int bin = static_cast<int>(PhaseOf(t) * n / period_);
  return std::min(bin, n - 1);
}

double SeasonalBins::ValueAt(SimTime t) const {
  PRESTO_DCHECK(!means_.empty());
  const int n = static_cast<int>(means_.size());
  // Interpolate between the centers of the two surrounding bins.
  const double pos = (static_cast<double>(PhaseOf(t)) / bin_width_) - 0.5;
  const double lo = std::floor(pos);
  const double frac = pos - lo;
  // pos >= -0.5, so lo >= -1; it passes the last bin only when the bin count does
  // not divide the period (bin_width_ is rounded down).
  int a = static_cast<int>(lo);
  if (a < 0) {
    a += n;
  } else if (a >= n) {
    a %= n;
  }
  const int b = a + 1 == n ? 0 : a + 1;
  return means_[static_cast<size_t>(a)] * (1.0 - frac) +
         means_[static_cast<size_t>(b)] * frac;
}

double SeasonalBins::StddevAt(SimTime t) const {
  return stddevs_[static_cast<size_t>(BinOf(t))];
}

Status SeasonalBins::Fit(const std::vector<Sample>& history, Duration period, int bins) {
  PRESTO_CHECK(bins > 0);
  period_ = period;
  std::vector<double> sums(static_cast<size_t>(bins), 0.0);
  std::vector<double> sq(static_cast<size_t>(bins), 0.0);
  std::vector<int64_t> counts(static_cast<size_t>(bins), 0);
  means_.assign(static_cast<size_t>(bins), 0.0);
  stddevs_.assign(static_cast<size_t>(bins), 0.0);
  DeriveBinWidth();
  for (const Sample& s : history) {
    const int b = BinOf(s.t);
    sums[static_cast<size_t>(b)] += s.value;
    sq[static_cast<size_t>(b)] += s.value * s.value;
    ++counts[static_cast<size_t>(b)];
  }
  for (int b = 0; b < bins; ++b) {
    if (counts[static_cast<size_t>(b)] == 0) {
      return FailedPreconditionError("seasonal fit: a bin has no samples");
    }
    const double n = static_cast<double>(counts[static_cast<size_t>(b)]);
    double& mean = means_[static_cast<size_t>(b)];
    double& stddev = stddevs_[static_cast<size_t>(b)];
    mean = sums[static_cast<size_t>(b)] / n;
    const double var = std::max(0.0, sq[static_cast<size_t>(b)] / n - mean * mean);
    stddev = std::sqrt(var);
    // Wire precision is float32; keep the in-RAM copy identical (lockstep contract).
    mean = static_cast<double>(static_cast<float>(mean));
    stddev = static_cast<double>(static_cast<float>(stddev));
  }
  return OkStatus();
}

void SeasonalBins::SerializeTo(ByteWriter* w) const {
  w->WriteVarU64(static_cast<uint64_t>(period_));
  w->WriteVarU64(means_.size());
  for (size_t i = 0; i < means_.size(); ++i) {
    w->WriteF32(static_cast<float>(means_[i]));
    w->WriteF32(static_cast<float>(stddevs_[i]));
  }
}

void SeasonalBins::DeserializeFrom(ByteReader* r) {
  const uint64_t p = r->ReadVarU64();
  if (!IsWirePeriod(p)) {  // a failed read's 0 included
    return r->Fail(InvalidArgumentError("seasonal params: period not positive"));
  }
  period_ = static_cast<Duration>(p);
  const uint64_t n = r->ReadVarU64();
  // Checked before the bins are allocated: each bin is 8 wire bytes, every bin must
  // span at least one tick, and BinOf's phase * bin count must stay in range.
  if (n == 0) {
    return r->Fail(InvalidArgumentError("seasonal params empty"));
  }
  if (n > r->remaining() / 8) {
    return r->Fail(InvalidArgumentError("seasonal params truncated"));
  }
  if (n > p) {
    return r->Fail(InvalidArgumentError("seasonal params: more bins than period ticks"));
  }
  if (p > static_cast<uint64_t>(INT64_MAX) / n) {
    return r->Fail(
        InvalidArgumentError("seasonal params: period too long for the bin count"));
  }
  means_.clear();
  stddevs_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    const float m = r->ReadF32();
    const float s = r->ReadF32();
    if (!std::isfinite(m) || !std::isfinite(s)) {
      return r->Fail(InvalidArgumentError("seasonal params not finite"));
    }
    means_.push_back(static_cast<double>(m));
    stddevs_.push_back(static_cast<double>(s));
  }
  DeriveBinWidth();
}

// ---------- SeasonalModel ----------

Status SeasonalModel::Fit(const std::vector<Sample>& history) {
  PRESTO_RETURN_IF_ERROR(
      bins_.Fit(history, config_.seasonal_period, config_.seasonal_bins));
  fitted_ = true;
  return OkStatus();
}

std::vector<uint8_t> SeasonalModel::Serialize() const {
  PRESTO_CHECK_MSG(fitted_, "serialize before fit");
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(type()));
  bins_.SerializeTo(&w);
  return w.TakeBuffer();
}

Status SeasonalModel::Deserialize(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag != static_cast<uint8_t>(type())) {
    return InvalidArgumentError("not seasonal model params");
  }
  bins_.DeserializeFrom(&r);
  if (!r.ok()) {
    return r.status();
  }
  fitted_ = true;
  return OkStatus();
}

Prediction SeasonalModel::Predict(SimTime t) const {
  PRESTO_CHECK_MSG(fitted_, "predict before fit");
  return Prediction{bins_.ValueAt(t), bins_.StddevAt(t)};
}

void SeasonalModel::OnAnchor(const Sample& sample) {
  // Climatology ignores individual observations by design.
  (void)sample;
}

// ---------- LastValueModel ----------

Status LastValueModel::Fit(const std::vector<Sample>& history) {
  if (history.size() < 8) {
    return FailedPreconditionError("last-value fit needs >= 8 samples for stable sigmas");
  }
  double sum = 0.0;
  double sq = 0.0;
  for (const Sample& s : history) {
    sum += s.value;
    sq += s.value * s.value;
  }
  const double n = static_cast<double>(history.size());
  mean_ = sum / n;
  marginal_stddev_ = std::sqrt(std::max(0.0, sq / n - mean_ * mean_));

  double dsq = 0.0;
  for (size_t i = 1; i < history.size(); ++i) {
    const double d = history[i].value - history[i - 1].value;
    dsq += d * d;
  }
  step_stddev_ = std::sqrt(dsq / (n - 1.0));
  fitted_ = true;
  anchored_ = false;
  return OkStatus();
}

std::vector<uint8_t> LastValueModel::Serialize() const {
  PRESTO_CHECK_MSG(fitted_, "serialize before fit");
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(type()));
  w.WriteVarU64(static_cast<uint64_t>(config_.sample_period));
  w.WriteF32(static_cast<float>(mean_));
  w.WriteF32(static_cast<float>(marginal_stddev_));
  w.WriteF32(static_cast<float>(step_stddev_));
  return w.TakeBuffer();
}

Status LastValueModel::Deserialize(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag != static_cast<uint8_t>(type())) {
    return InvalidArgumentError("not last-value model params");
  }
  const uint64_t period = r.ReadVarU64();
  const float mean = r.ReadF32();
  const float marg = r.ReadF32();
  const float step = r.ReadF32();
  if (!r.ok()) {
    return InvalidArgumentError("last-value params truncated");
  }
  if (!IsWirePeriod(period)) {
    return InvalidArgumentError("last-value params: sample period not positive");
  }
  if (!std::isfinite(mean) || !std::isfinite(marg) || !std::isfinite(step)) {
    return InvalidArgumentError("last-value params not finite");
  }
  config_.sample_period = static_cast<Duration>(period);
  mean_ = static_cast<double>(mean);
  marginal_stddev_ = static_cast<double>(marg);
  step_stddev_ = static_cast<double>(step);
  fitted_ = true;
  anchored_ = false;
  return OkStatus();
}

Prediction LastValueModel::Predict(SimTime t) const {
  PRESTO_CHECK_MSG(fitted_, "predict before fit");
  if (!anchored_ || t < anchor_.t) {
    return Prediction{mean_, std::max(marginal_stddev_, 1e-9)};
  }
  const double steps =
      static_cast<double>(t - anchor_.t) / static_cast<double>(config_.sample_period);
  const double grow = step_stddev_ * std::sqrt(std::max(steps, 0.0));
  return Prediction{anchor_.value, std::min(std::max(grow, 1e-9),
                                            2.0 * marginal_stddev_)};
}

void LastValueModel::OnAnchor(const Sample& sample) {
  if (anchored_ && sample.t < anchor_.t) {
    return;  // stale anchor (a pull of past data); persistence keeps the newest
  }
  anchor_ = sample;
  anchored_ = true;
}

void SeasonalBins::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void SeasonalBins::LoadState(ByteReader& r) {
  StateFields(*this, CkptReader(r));
  if (period_ <= 0) {
    return r.Fail(DataLossError("seasonal restore: period not positive"));
  }
  if (means_.empty() || means_.size() != stddevs_.size()) {
    return r.Fail(DataLossError("seasonal restore: bins missing or mismatched"));
  }
  if (static_cast<Duration>(means_.size()) > period_) {
    return r.Fail(DataLossError("seasonal restore: more bins than period ticks"));
  }
  DeriveBinWidth();
}

void SeasonalModel::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void SeasonalModel::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

void LastValueModel::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void LastValueModel::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
