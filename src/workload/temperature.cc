#include "src/workload/temperature.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/assert.h"

namespace presto {

double TransientEvent::Contribution(SimTime t) const {
  if (t < start || t > EffectiveEnd()) {
    return 0.0;
  }
  const SimTime peak = start + rise;
  if (t <= peak) {
    const double frac = rise > 0
                            ? static_cast<double>(t - start) / static_cast<double>(rise)
                            : 1.0;
    return magnitude * frac;
  }
  const double tau = static_cast<double>(decay);
  return magnitude * std::exp(-static_cast<double>(t - peak) / tau);
}

namespace {

// Discrete OU on the hourly grid: x_{k+1} = a x_k + sigma sqrt(1-a^2) eps.
double FrontDecay(const TemperatureParams& params) {
  return std::exp(-static_cast<double>(kHour) /
                  static_cast<double>(params.front_timescale));
}

double FrontStepStd(const TemperatureParams& params) {
  const double a = FrontDecay(params);
  return params.front_std_c * std::sqrt(1.0 - a * a);
}

// Front streams and event streams of every signal and node draw from these.
constexpr uint64_t kFrontStream = 0x46524f4e54;
constexpr uint64_t kEventStream = 0x45564e54;

// Draws the event that follows `horizon` (which moves to its start) from `rng`.
TransientEvent NextEvent(const TemperatureParams& params, Pcg32& rng, SimTime& horizon) {
  const double rate_per_us = params.events_per_day / static_cast<double>(kDay);
  const double gap_us = rng.Exponential(rate_per_us);
  horizon += static_cast<Duration>(gap_us);
  TransientEvent e;
  e.start = horizon;
  const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  e.magnitude = sign * params.event_magnitude_c * (0.6 + 0.8 * rng.NextDouble());
  e.rise = params.event_rise;
  e.decay = params.event_decay;
  return e;
}

// The shared field carries no events or noise of its own; events are per-node.
TemperatureParams SharedParams(const TemperatureParams& params) {
  TemperatureParams shared = params;
  shared.events_per_day = 0.0;
  shared.noise_std_c = 0.0;
  return shared;
}

// The events whose effect overlaps [interval.start, interval.end).
std::vector<TransientEvent> Overlapping(const std::vector<TransientEvent>& events,
                                        TimeInterval interval) {
  std::vector<TransientEvent> out;
  for (const TransientEvent& e : events) {
    if (e.start < interval.end && e.EffectiveEnd() >= interval.start) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

TemperatureSignal::TemperatureSignal(const TemperatureParams& params)
    : params_(params),
      front_rng_(params.seed, kFrontStream),
      event_rng_(params.seed, kEventStream),
      front_decay_(FrontDecay(params)),
      front_step_std_(FrontStepStd(params)) {}

double TemperatureSignal::BaseAt(SimTime t) {
  // Zero-amplitude terms (the per-node signals of a TemperatureField have no diurnal,
  // seasonal or, for event-only signals, front part) would only add +0.0: skip them.
  double value = params_.mean_c;
  if (params_.diurnal_amplitude_c != 0.0) {
    const double since_peak = static_cast<double>((t - params_.diurnal_peak) % kDay);
    const double day = static_cast<double>(kDay);
    value += params_.diurnal_amplitude_c * std::cos(2.0 * M_PI * since_peak / day);
  }
  if (params_.seasonal_amplitude_c != 0.0) {
    const double into_season = static_cast<double>(t % params_.seasonal_period);
    const double season = static_cast<double>(params_.seasonal_period);
    value += params_.seasonal_amplitude_c * std::sin(2.0 * M_PI * into_season / season);
  }
  if (params_.front_std_c != 0.0) {
    value += FrontAt(t);
  }
  return value;
}

void TemperatureSignal::ExtendFronts(size_t rows) {
  if (fronts_.size() >= rows) {
    return;
  }
  if (fronts_.empty()) {
    fronts_.push_back(front_rng_.Gaussian(0.0, params_.front_std_c));
  }
  while (fronts_.size() < rows) {
    fronts_.push_back(front_decay_ * fronts_.back() +
                      front_rng_.Gaussian(0.0, front_step_std_));
  }
}

double TemperatureSignal::FrontAt(SimTime t) {
  const SimTime hour = t / kHour;
  const size_t k = static_cast<size_t>(hour);
  ExtendFronts(k + 2);
  const double frac = static_cast<double>(t - hour * kHour) / static_cast<double>(kHour);
  return fronts_[k] * (1.0 - frac) + fronts_[k + 1] * frac;
}

void TemperatureSignal::ExtendEvents(SimTime t) {
  if (events_horizon_ > t) {
    return;  // already extended past t: read-only fast path (lane-parallel reads)
  }
  if (params_.events_per_day <= 0.0) {
    events_horizon_ = std::max(events_horizon_, t + kDay);
    return;
  }
  while (events_horizon_ <= t) {
    events_.push_back(NextEvent(params_, event_rng_, events_horizon_));
  }
}

std::vector<TransientEvent> TemperatureSignal::EventsIn(TimeInterval interval) {
  ExtendEvents(interval.end);
  return Overlapping(events_, interval);
}

void TemperatureSignal::PrepareThrough(SimTime t) {
  ExtendFronts(static_cast<size_t>(t / kHour) + 2);
  ExtendEvents(t);
}

double TemperatureSignal::ValueAt(SimTime t) {
  ExtendEvents(t);
  double value = BaseAt(t);
  for (const TransientEvent& e : events_) {
    if (e.start > t) {
      break;  // events_ is start-ordered
    }
    value += e.Contribution(t);
  }
  return value;
}

// Node i's independent front is drawn and summed exactly as a TemperatureSignal with
// seed params.seed ^ (0x1000 + i) and only a front part would, and its events as one
// with seed params.seed ^ (0x2000 + i) and only events: same streams, same draws,
// same order of every sum, which pins each node's values.
TemperatureField::TemperatureField(int num_nodes, const TemperatureParams& params,
                                   double correlation)
    : params_(params),
      independent_scale_(std::sqrt(1.0 - correlation * correlation)),
      front_decay_(FrontDecay(params)),
      front_step_std_(FrontStepStd(params)),
      shared_(SharedParams(params)),
      noise_seed_(params.seed ^ 0x4e4f495345ULL) {
  PRESTO_CHECK(num_nodes >= 1);
  PRESTO_CHECK(correlation >= 0.0 && correlation <= 1.0);

  Pcg32 rng(params.seed, /*stream=*/0x4649454c44);
  nodes_.resize(static_cast<size_t>(num_nodes));
  streams_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    NodeState& node = nodes_[static_cast<size_t>(i)];
    node.offset = rng.Gaussian(0.0, 1.2);
    const uint64_t n = static_cast<uint64_t>(i);
    const Pcg32 front_rng(params.seed ^ (0x1000 + n), kFrontStream);
    const Pcg32 event_rng(params.seed ^ (0x2000 + n), kEventStream);
    streams_.push_back(NodeStreams{front_rng, event_rng, {}});
  }
}

void TemperatureField::GrowFrontRows(size_t rows) {
  if (rows > front_rows_) {
    fronts_.resize(rows * nodes_.size());
    front_rows_ = rows;
  }
}

double TemperatureField::IndependentAt(size_t node, SimTime t) {
  if (params_.front_std_c == 0.0) {
    return 0.0;
  }
  const SimTime hour = t / kHour;
  const size_t k = static_cast<size_t>(hour);
  GrowFrontRows(k + 2);  // a no-op between barriers: PrepareThrough grew the rows
  NodeState& n = nodes_[node];
  const size_t stride = nodes_.size();
  double* const column = fronts_.data() + node;  // hour h at column[h * stride]
  if (n.fronts_filled < k + 2) {
    Pcg32& rng = streams_[node].front_rng;
    size_t row = n.fronts_filled;
    if (row == 0) {
      column[0] = rng.Gaussian(0.0, params_.front_std_c);
      row = 1;
    }
    for (; row < k + 2; ++row) {
      const double eps = rng.Gaussian(0.0, front_step_std_);
      column[row * stride] = front_decay_ * column[(row - 1) * stride] + eps;
    }
    n.fronts_filled = static_cast<uint32_t>(row);
  }
  const double frac = static_cast<double>(t - hour * kHour) / static_cast<double>(kHour);
  const double lo = column[k * stride];
  const double hi = column[(k + 1) * stride];
  // 0.0 + front: that signal's zero mean, so a -0.0 front reads as +0.0.
  return 0.0 + (lo * (1.0 - frac) + hi * frac);
}

void TemperatureField::ExtendEvents(size_t node, SimTime t) {
  NodeState& n = nodes_[node];
  if (n.events_horizon > t) {
    return;
  }
  if (params_.events_per_day <= 0.0) {
    n.events_horizon = std::max(n.events_horizon, t + kDay);
    return;
  }
  NodeStreams& s = streams_[node];
  while (n.events_horizon <= t) {
    s.events.push_back(NextEvent(params_, s.event_rng, n.events_horizon));
  }
}

double TemperatureField::EventsAt(size_t node, SimTime t) {
  NodeState& n = nodes_[node];
  if (t >= n.cursor_time && t < n.next_event_start) {
    return 0.0;  // every event before the cursor has ended, none after it has begun
  }
  ExtendEvents(node, t);
  const std::vector<TransientEvent>& events = streams_[node].events;
  // Events share rise and decay, so their ends are ordered like their starts: the
  // ended ones are a prefix, whose +0.0 contributions the sum may skip.
  size_t i = n.event_cursor;
  while (i > 0 && events[i - 1].EffectiveEnd() >= t) {
    --i;
  }
  while (i < events.size() && events[i].EffectiveEnd() < t) {
    ++i;
  }
  n.event_cursor = static_cast<uint32_t>(i);
  n.cursor_time = t;
  n.next_event_start = std::numeric_limits<SimTime>::max();
  if (i < events.size()) {
    n.next_event_start = events[i].start;
  }
  double value = 0.0;
  for (; i < events.size() && events[i].start <= t; ++i) {
    value += events[i].Contribution(t);
  }
  return value;
}

double TemperatureField::TruthAt(int node, SimTime t) {
  PRESTO_CHECK(node >= 0 && node < num_nodes());
  const size_t i = static_cast<size_t>(node);
  const double shared = shared_.ValueAt(t);
  const double indep = IndependentAt(i, t);
  const double events = EventsAt(i, t);
  return shared + nodes_[i].offset + independent_scale_ * indep + events;
}

double TemperatureField::MeasureAt(int node, SimTime t) {
  const double noise =
      params_.noise_std_c *
      HashGaussian(noise_seed_ ^ static_cast<uint64_t>(node), t);
  return TruthAt(node, t) + noise;
}

void TemperatureField::PrepareThrough(SimTime t) {
  shared_.PrepareThrough(t);
  if (params_.front_std_c != 0.0) {
    GrowFrontRows(static_cast<size_t>(t / kHour) + 2);
  }
}

std::vector<TransientEvent> TemperatureField::EventsIn(int node, TimeInterval interval) {
  PRESTO_CHECK(node >= 0 && node < num_nodes());
  const size_t i = static_cast<size_t>(node);
  ExtendEvents(i, interval.end);
  return Overlapping(streams_[i].events, interval);
}

}  // namespace presto
