#include "src/workload/temperature.h"

#include <algorithm>
#include <cmath>

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

TemperatureSignal::TemperatureSignal(const TemperatureParams& params)
    : params_(params),
      front_rng_(params.seed, /*stream=*/0x46524f4e54),
      event_rng_(params.seed, /*stream=*/0x45564e54) {}

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

void TemperatureSignal::ExtendFronts(SimTime t) {
  const size_t needed = static_cast<size_t>(t / kHour) + 2;
  if (fronts_.size() >= needed) {
    return;
  }
  // Discrete OU: x_{k+1} = a x_k + sigma sqrt(1-a^2) eps, step = 1 hour.
  const double a = std::exp(-static_cast<double>(kHour) /
                            static_cast<double>(params_.front_timescale));
  const double step_std = params_.front_std_c * std::sqrt(1.0 - a * a);
  if (fronts_.empty()) {
    fronts_.push_back(front_rng_.Gaussian(0.0, params_.front_std_c));
  }
  while (fronts_.size() < needed) {
    fronts_.push_back(a * fronts_.back() + front_rng_.Gaussian(0.0, step_std));
  }
}

double TemperatureSignal::FrontAt(SimTime t) {
  ExtendFronts(t);
  const size_t k = static_cast<size_t>(t / kHour);
  const double frac =
      static_cast<double>(t % kHour) / static_cast<double>(kHour);
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
  const double rate_per_us =
      params_.events_per_day / static_cast<double>(kDay);
  while (events_horizon_ <= t) {
    const double gap_us = event_rng_.Exponential(rate_per_us);
    events_horizon_ += static_cast<Duration>(gap_us);
    TransientEvent e;
    e.start = events_horizon_;
    const double sign = event_rng_.Bernoulli(0.5) ? 1.0 : -1.0;
    e.magnitude = sign * params_.event_magnitude_c *
                  (0.6 + 0.8 * event_rng_.NextDouble());
    e.rise = params_.event_rise;
    e.decay = params_.event_decay;
    events_.push_back(e);
  }
}

std::vector<TransientEvent> TemperatureSignal::EventsIn(TimeInterval interval) {
  ExtendEvents(interval.end);
  std::vector<TransientEvent> out;
  for (const TransientEvent& e : events_) {
    if (e.start < interval.end && e.EffectiveEnd() >= interval.start) {
      out.push_back(e);
    }
  }
  return out;
}

void TemperatureSignal::PrepareThrough(SimTime t) {
  ExtendFronts(t);
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

TemperatureField::TemperatureField(int num_nodes, const TemperatureParams& params,
                                   double correlation)
    : params_(params),
      correlation_(correlation),
      noise_seed_(params.seed ^ 0x4e4f495345ULL) {
  PRESTO_CHECK(num_nodes >= 1);
  PRESTO_CHECK(correlation >= 0.0 && correlation <= 1.0);

  // The shared field carries no events of its own; events are per-node.
  TemperatureParams shared = params;
  shared.events_per_day = 0.0;
  shared.noise_std_c = 0.0;
  shared_ = std::make_unique<TemperatureSignal>(shared);

  Pcg32 rng(params.seed, /*stream=*/0x4649454c44);
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    NodeState node;
    node.offset = rng.Gaussian(0.0, 1.2);  // room-to-room bias

    TemperatureParams indep = params;
    indep.seed = params.seed ^ (0x1000 + static_cast<uint64_t>(i));
    indep.mean_c = 0.0;
    indep.diurnal_amplitude_c = 0.0;
    indep.seasonal_amplitude_c = 0.0;
    indep.events_per_day = 0.0;
    node.independent = std::make_unique<TemperatureSignal>(indep);

    TemperatureParams ev = params;
    ev.seed = params.seed ^ (0x2000 + static_cast<uint64_t>(i));
    ev.mean_c = 0.0;
    ev.diurnal_amplitude_c = 0.0;
    ev.seasonal_amplitude_c = 0.0;
    ev.front_std_c = 0.0;
    node.own_events = std::make_unique<TemperatureSignal>(ev);

    nodes_.push_back(std::move(node));
  }
}

double TemperatureField::TruthAt(int node, SimTime t) {
  PRESTO_CHECK(node >= 0 && node < num_nodes());
  NodeState& n = nodes_[static_cast<size_t>(node)];
  const double shared = shared_->ValueAt(t);
  const double indep = n.independent->ValueAt(t);
  const double events = n.own_events->ValueAt(t);
  return shared + n.offset + std::sqrt(1.0 - correlation_ * correlation_) * indep +
         events;
}

double TemperatureField::MeasureAt(int node, SimTime t) {
  const double noise =
      params_.noise_std_c *
      HashGaussian(noise_seed_ ^ static_cast<uint64_t>(node), t);
  return TruthAt(node, t) + noise;
}

void TemperatureField::PrepareThrough(SimTime t) { shared_->PrepareThrough(t); }

std::vector<TransientEvent> TemperatureField::EventsIn(int node, TimeInterval interval) {
  PRESTO_CHECK(node >= 0 && node < num_nodes());
  return nodes_[static_cast<size_t>(node)].own_events->EventsIn(interval);
}

}  // namespace presto
