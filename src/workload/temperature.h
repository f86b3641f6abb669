// Synthetic indoor-temperature field, the stand-in for the Intel Lab trace the paper's
// Figure 2 uses (the trace is not redistributable; see DESIGN.md substitutions).
//
// Structure mirrors the statistics that matter to PRESTO:
//   value(t) = mean + diurnal sinusoid + slow seasonal drift
//            + weather fronts (OU/AR(1) process on an hourly grid, hours of memory)
//            + rare transient events (HVAC faults / open windows: sharp ramp, slow decay)
//            + white measurement noise.
// The diurnal + seasonal parts are what model-driven push learns; fronts make the
// prediction problem honest; events are the "inherently unpredictable" occurrences the
// push protocol must never miss; noise is what wavelet denoising removes.
//
// TemperatureField extends this to N spatially correlated nodes: a shared field plus
// per-node offset and an independent per-node component, giving the correlation that
// spatial extrapolation (ablation A9) exploits.

#ifndef SRC_WORKLOAD_TEMPERATURE_H_
#define SRC_WORKLOAD_TEMPERATURE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/util/sample.h"
#include "src/workload/signal.h"

namespace presto {

struct TemperatureParams {
  double mean_c = 21.0;
  double diurnal_amplitude_c = 4.0;
  Duration diurnal_peak = Hours(15);       // warmest time of day
  double seasonal_amplitude_c = 5.0;
  Duration seasonal_period = Days(365);
  double front_std_c = 1.6;                // weather-front component sigma
  Duration front_timescale = Hours(9);     // OU mean-reversion time constant
  double noise_std_c = 0.12;               // per-sample measurement noise
  double events_per_day = 0.25;            // rare transient anomalies
  double event_magnitude_c = 6.0;          // peak excursion (sign randomized)
  Duration event_rise = Minutes(5);
  Duration event_decay = Minutes(45);
  uint64_t seed = 1;
};

template <class S, class F, CkptSelf<S, TemperatureParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.mean_c);
  f(v.diurnal_amplitude_c);
  f(v.diurnal_peak);
  f(v.seasonal_amplitude_c);
  f(v.seasonal_period);
  f(v.front_std_c);
  f(v.front_timescale);
  f(v.noise_std_c);
  f(v.events_per_day);
  f(v.event_magnitude_c);
  f(v.event_rise);
  f(v.event_decay);
  f(v.seed);
}

// One transient anomaly: ramps up over `rise`, decays exponentially after the peak.
struct TransientEvent {
  SimTime start = 0;
  double magnitude = 0.0;
  Duration rise = 0;
  Duration decay = 0;

  double Contribution(SimTime t) const;
  // Practically over after several decay constants.
  SimTime EffectiveEnd() const { return start + rise + 8 * decay; }
};

class TemperatureSignal : public Signal {
 public:
  explicit TemperatureSignal(const TemperatureParams& params);

  double ValueAt(SimTime t) override;

  // Extends the lazily built front grid and event list through `t`, so that later
  // ValueAt(t' <= t) calls are pure reads. The parallel deployment engine calls this
  // at epoch barriers for signals shared across lanes.
  void PrepareThrough(SimTime t);

  // The noiseless, eventless component (for decomposition-aware tests).
  double BaseAt(SimTime t);

  // Events whose effect overlaps [interval.start, interval.end).
  std::vector<TransientEvent> EventsIn(TimeInterval interval);

 private:
  double FrontAt(SimTime t);
  void ExtendFronts(SimTime t);
  void ExtendEvents(SimTime t);

  TemperatureParams params_;
  Pcg32 front_rng_;
  Pcg32 event_rng_;
  std::vector<double> fronts_;  // OU samples on the hourly grid, extended lazily
  std::vector<TransientEvent> events_;
  SimTime events_horizon_ = 0;
};

class TemperatureField {
 public:
  // `correlation` in [0,1]: 1 -> all nodes see the shared field exactly (plus offset),
  // 0 -> fully independent nodes.
  TemperatureField(int num_nodes, const TemperatureParams& params, double correlation);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Ground truth for node `i` at `t` (including that node's transient events),
  // before measurement noise.
  double TruthAt(int node, SimTime t);

  // TruthAt plus white measurement noise — what the node's ADC reads.
  double MeasureAt(int node, SimTime t);

  // Pre-extends the *shared* field component through `t`. Per-node components are
  // only read by their own node's lane, but the shared signal is read by every lane:
  // the deployment pre-extends it at each epoch barrier so MeasureAt never mutates
  // cross-lane state. (Noise is a stateless hash; no preparation needed.)
  void PrepareThrough(SimTime t);

  // Per-node events (for rare-event detection scoring).
  std::vector<TransientEvent> EventsIn(int node, TimeInterval interval);

 private:
  struct NodeState {
    double offset = 0.0;
    std::unique_ptr<TemperatureSignal> independent;  // de-correlated component source
    std::unique_ptr<TemperatureSignal> own_events;   // carries this node's anomalies
  };

  TemperatureParams params_;
  double correlation_;
  std::unique_ptr<TemperatureSignal> shared_;
  std::vector<NodeState> nodes_;
  uint64_t noise_seed_;
};

}  // namespace presto

#endif  // SRC_WORKLOAD_TEMPERATURE_H_
