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
  const Beacon beacon{static_cast<double>(local), static_cast<double>(reference)};
  if (beacons_.size() < window_) {
    beacons_.reserve(window_);
    beacons_.push_back(beacon);
  } else {
    beacons_[head_] = beacon;
    head_ = head_ + 1 == window_ ? 0 : head_ + 1;
  }
  fit_valid_ = Refit().ok();
}

namespace {

// A mote oscillator is a crystal within a few hundred ppm of nominal, so a plausible
// line's slope is within ±1% of 1.0.
bool SlopeIsPlausible(double slope) { return std::abs(slope - 1.0) <= 0.01; }

}  // namespace

Status RegressionTimeSync::Refit() {
  if (beacons_.size() < 2) {
    return FailedPreconditionError("time sync: need >= 2 beacons");
  }
  // Center for numerical stability: times are ~1e11 us, squares overflow doubles'
  // precision comfort zone.
  const double ref0 = At(0).reference;
  const double loc0 = At(0).local;
  auto line = FitLineOf(beacons_.size(), [&](size_t i) {
    const Beacon& b = At(i);
    return std::make_pair(b.reference - ref0, b.local - loc0);
  });
  if (!line.ok()) {
    return line.status();
  }
  // local - loc0 = a + b (ref - ref0)  =>  local = (loc0 + a - b*ref0) + b*ref.
  slope_ = line->second;
  intercept_ = loc0 + line->first - slope_ * ref0;
  // A fitted slope outside the tolerance cannot be clock drift — it means the beacon
  // baseline is shorter than the timestamp jitter (e.g. the first two beacons after
  // a failover promotion land seconds apart), and extrapolating that line maps
  // queries wildly off the sensor's timeline. The identity fallback is strictly
  // better until the baseline grows.
  if (!SlopeIsPlausible(slope_)) {
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
  for (size_t i = 0; i < beacons_.size(); ++i) {
    const double predicted = intercept_ + slope_ * At(i).reference;
    const double r = At(i).local - predicted;
    sq += r * r;
  }
  return std::sqrt(sq / static_cast<double>(beacons_.size()));
}

}  // namespace presto

namespace presto {

void DriftingClock::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void DriftingClock::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

void RegressionTimeSync::SaveState(ByteWriter& w) const {
  w.WriteVarU64(beacons_.size());
  for (size_t i = 0; i < beacons_.size(); ++i) {
    CkptWrite(w, At(i).local);
  }
  w.WriteVarU64(beacons_.size());
  for (size_t i = 0; i < beacons_.size(); ++i) {
    CkptWrite(w, At(i).reference);
  }
  CkptWrite(w, fit_valid_);
  CkptWrite(w, intercept_);
  CkptWrite(w, slope_);
}

void RegressionTimeSync::LoadState(ByteReader& r) {
  std::vector<double> locals;
  std::vector<double> references;
  bool fit_valid = false;
  double intercept = 0.0;
  double slope = 1.0;
  CkptRead(r, locals);
  CkptRead(r, references);
  CkptRead(r, fit_valid);
  CkptRead(r, intercept);
  CkptRead(r, slope);
  if (!r.ok()) {
    return;
  }
  if (locals.size() != references.size()) {
    return r.Fail(DataLossError("ckpt: time-sync beacon lists differ in length"));
  }
  if (locals.size() > window_) {
    return r.Fail(DataLossError("ckpt: time-sync beacons exceed the window"));
  }
  if (fit_valid &&
      !(std::isfinite(intercept) && std::isfinite(slope) && SlopeIsPlausible(slope))) {
    return r.Fail(DataLossError("ckpt: time-sync line flagged valid is implausible"));
  }
  beacons_.clear();
  for (size_t i = 0; i < locals.size(); ++i) {
    beacons_.push_back(Beacon{locals[i], references[i]});
  }
  head_ = 0;
  fit_valid_ = fit_valid;
  intercept_ = intercept;
  slope_ = slope;
}

}  // namespace presto
