// Temporal consistency across the sensor tier (paper §5): mote clocks drift and skew,
// so sensor-local timestamps must be mapped onto the proxies' reference timeline before
// data from different sensors can be ordered or merged.
//
// DriftingClock models a mote oscillator (initial offset + ppm drift + read jitter).
// RegressionTimeSync is the proxy-side corrector: it collects (local, reference) beacon
// pairs and fits local = a + b * reference by least squares, then inverts the line to
// correct timestamps.

#ifndef SRC_INDEX_TIME_SYNC_H_
#define SRC_INDEX_TIME_SYNC_H_

#include <vector>

#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"

namespace presto {

class ByteReader;
class ByteWriter;

class DriftingClock {
 public:
  // drift_ppm: parts-per-million frequency error (positive runs fast).
  // jitter_std: per-reading Gaussian noise (timestamping latency variation).
  DriftingClock(Duration initial_offset, double drift_ppm, Duration jitter_std,
                uint64_t seed);

  // The mote's local clock reading at true time `t` (jittered).
  SimTime LocalTime(SimTime t);

  // Deterministic (jitter-free) reading, for ground-truth checks in tests.
  SimTime LocalTimeExact(SimTime t) const;

  double drift_ppm() const { return drift_ppm_; }

  // Checkpoint codec: only the jitter RNG is dynamic state.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.rng_);
  }

  Duration offset_;
  double drift_ppm_;
  double rate_;  // 1 + drift_ppm_ * 1e-6: local ticks per true tick
  Duration jitter_std_;
  Pcg32 rng_;
};

class RegressionTimeSync {
 public:
  // Caps memory: only the most recent `window` beacons contribute to the fit.
  explicit RegressionTimeSync(size_t window = 32);

  // Records a sync beacon: the sensor reported local time `local` at proxy reference
  // time `reference` (e.g. stamped on a push the proxy just received).
  void AddBeacon(SimTime local, SimTime reference);

  size_t beacon_count() const { return locals_.size(); }
  // A usable fit exists: >= 2 beacons whose least-squares slope is physically
  // plausible (see Refit). Correct/ToLocal fail until this holds.
  bool Ready() const { return fit_valid_; }

  // Maps a sensor-local timestamp onto the reference timeline. Falls back to identity
  // (kFailedPrecondition) until two beacons are seen.
  Result<SimTime> Correct(SimTime local) const;

  // Inverse mapping: the sensor-local time corresponding to a reference time (used to
  // phrase archive pulls in the sensor's own timeline).
  Result<SimTime> ToLocal(SimTime reference) const;

  // RMS residual of the fit in microseconds (how trustworthy corrections are).
  Result<double> ResidualRms() const;

  // Checkpoint codec: beacon window and the fitted line.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.locals_);
    f(self.references_);
    f(self.fit_valid_);
    f(self.intercept_);
    f(self.slope_);
  }

  Status Refit();

  size_t window_;
  std::vector<double> locals_;
  std::vector<double> references_;
  bool fit_valid_ = false;
  double intercept_ = 0.0;  // local = intercept + slope * reference
  double slope_ = 1.0;
};

}  // namespace presto

#endif  // SRC_INDEX_TIME_SYNC_H_
