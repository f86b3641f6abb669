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

#include <cstddef>
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
  // Draws the hourly front grid out to `rows` points.
  void ExtendFronts(size_t rows);
  void ExtendEvents(SimTime t);

  TemperatureParams params_;
  Pcg32 front_rng_;
  Pcg32 event_rng_;
  double front_decay_;  // OU step: x_{k+1} = decay x_k + step_std eps
  double front_step_std_;
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

  // Pre-extends the shared field component and grows the per-node front table
  // through `t`. The shared signal is read by every lane and the table's rows by
  // every lane's nodes; the deployment calls this at each epoch barrier, so during
  // an epoch a lane only fills its own nodes' cells and never reallocates the
  // table. (Noise is a stateless hash; no preparation needed.)
  void PrepareThrough(SimTime t);

  // Per-node events (for rare-event detection scoring).
  std::vector<TransientEvent> EventsIn(int node, TimeInterval interval);

 private:
  // What one sample of a node reads, kept apart from the draw streams so a tick
  // touches one small record. The node's transient events (own stream, zero base)
  // are summed from `event_cursor`, the first event that has not yet ended at
  // `cursor_time`; a later time before `next_event_start` sees none of them.
  struct NodeState {
    double offset = 0.0;         // room-to-room bias
    SimTime events_horizon = 0;  // event list generated through here
    SimTime cursor_time = 0;
    SimTime next_event_start = 0;
    uint32_t event_cursor = 0;
    uint32_t fronts_filled = 0;  // rows of this node's front column drawn so far
  };
  // A node's draw streams and generated events, touched once per hour or event.
  struct NodeStreams {
    Pcg32 front_rng;  // the independent (de-correlated) OU front component
    Pcg32 event_rng;
    std::vector<TransientEvent> events;  // start-ordered; all share rise and decay
  };

  // The node's independent front at `t` (an OU process on the hourly grid).
  double IndependentAt(size_t node, SimTime t);
  // Sum of the node's transient-event contributions at `t`.
  double EventsAt(size_t node, SimTime t);
  void ExtendEvents(size_t node, SimTime t);
  // Grows the front table to `rows` hourly rows (cells stay undrawn).
  void GrowFrontRows(size_t rows);

  TemperatureParams params_;
  double independent_scale_;  // sqrt(1 - correlation^2)
  double front_decay_;        // OU step: x_{k+1} = decay x_k + step_std eps
  double front_step_std_;
  TemperatureSignal shared_;
  std::vector<NodeState> nodes_;
  std::vector<NodeStreams> streams_;
  // Independent fronts, [hour][node]: row k holds every node's front at hour k.
  std::vector<double> fronts_;
  size_t front_rows_ = 0;
  uint64_t noise_seed_;
};

}  // namespace presto

#endif  // SRC_WORKLOAD_TEMPERATURE_H_
