#include "src/index/time_sync.h"

#include <cmath>

#include "src/models/linalg.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

DriftingClock::DriftingClock(Duration initial_offset, double drift_ppm,
                             Duration jitter_std,
                             uint64_t seed)
    : offset_(initial_offset),
      drift_ppm_(drift_ppm),
      rate_(1.0 + drift_ppm * 1e-6),
      jitter_std_(jitter_std),
      rng_(seed, /*stream=*/0x434c4b) {}

SimTime DriftingClock::LocalTimeExact(SimTime t) const {
  const double scaled = static_cast<double>(t) * rate_;
  return offset_ + static_cast<SimTime>(scaled);
}

SimTime DriftingClock::LocalTime(SimTime t) {
  const double jitter = rng_.Gaussian(0.0, static_cast<double>(jitter_std_));
  return LocalTimeExact(t) + static_cast<SimTime>(jitter);
}

RegressionTimeSync::RegressionTimeSync(size_t window) : window_(window) {
  PRESTO_CHECK(window_ >= 2);
}

void RegressionTimeSync::AddBeacon(SimTime local, SimTime reference) {
  locals_.push_back(static_cast<double>(local));
  references_.push_back(static_cast<double>(reference));
  if (locals_.size() > window_) {
    locals_.erase(locals_.begin());
    references_.erase(references_.begin());
  }
  fit_valid_ = Refit().ok();
}

Status RegressionTimeSync::Refit() {
  if (locals_.size() < 2) {
    return FailedPreconditionError("time sync: need >= 2 beacons");
  }
  // Center for numerical stability: times are ~1e11 us, squares overflow doubles'
  // precision comfort zone.
  const double ref0 = references_.front();
  const double loc0 = locals_.front();
  std::vector<double> x(references_.size());
  std::vector<double> y(locals_.size());
  for (size_t i = 0; i < references_.size(); ++i) {
    x[i] = references_[i] - ref0;
    y[i] = locals_[i] - loc0;
  }
  auto line = FitLine(x, y);
  if (!line.ok()) {
    return line.status();
  }
  // local - loc0 = a + b (ref - ref0)  =>  local = (loc0 + a - b*ref0) + b*ref.
  slope_ = line->second;
  intercept_ = loc0 + line->first - slope_ * ref0;
  // A mote oscillator is a crystal within a few hundred ppm of nominal. A fitted
  // slope outside ±1% of 1.0 cannot be clock drift — it means the beacon baseline
  // is shorter than the timestamp jitter (e.g. the first two beacons after a
  // failover promotion land seconds apart), and extrapolating that line maps
  // queries wildly off the sensor's timeline. The identity fallback is strictly
  // better until the baseline grows.
  if (std::abs(slope_ - 1.0) > 0.01) {
    return FailedPreconditionError("time sync: slope outside oscillator tolerance");
  }
  return OkStatus();
}

Result<SimTime> RegressionTimeSync::Correct(SimTime local) const {
  if (!fit_valid_) {
    return FailedPreconditionError("time sync: not enough beacons");
  }
  const double reference = (static_cast<double>(local) - intercept_) / slope_;
  return static_cast<SimTime>(reference);
}

Result<SimTime> RegressionTimeSync::ToLocal(SimTime reference) const {
  if (!fit_valid_) {
    return FailedPreconditionError("time sync: not enough beacons");
  }
  return static_cast<SimTime>(intercept_ + slope_ * static_cast<double>(reference));
}

Result<double> RegressionTimeSync::ResidualRms() const {
  if (!fit_valid_) {
    return FailedPreconditionError("time sync: not enough beacons");
  }
  double sq = 0.0;
  for (size_t i = 0; i < locals_.size(); ++i) {
    const double predicted = intercept_ + slope_ * references_[i];
    const double r = locals_[i] - predicted;
    sq += r * r;
  }
  return std::sqrt(sq / static_cast<double>(locals_.size()));
}

}  // namespace presto

namespace presto {

void DriftingClock::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void DriftingClock::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

void RegressionTimeSync::SaveState(ByteWriter& w) const {
  StateFields(*this, CkptWriter(w));
}

void RegressionTimeSync::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
