#include "src/proxy/query_matcher.h"

#include <algorithm>
#include <cmath>

#include "src/util/ckpt.h"

namespace presto {

void QueryProfile::Note(Duration latency_bound, double tolerance) {
  ++queries;
  if (queries == 1) {
    min_latency_bound = latency_bound;
    min_tolerance = tolerance;
  } else {
    min_latency_bound = std::min(min_latency_bound, latency_bound);
    min_tolerance = std::min(min_tolerance, tolerance);
  }
}

void QueryProfile::Reset(SimTime now) {
  queries = 0;
  min_latency_bound = 0;
  min_tolerance = 0.0;
  window_start = now;
}

QuerySensorMatcher::QuerySensorMatcher(const MatcherParams& params) : params_(params) {}

void QuerySensorMatcher::NoteQuery(Duration latency_bound, double tolerance) {
  profile_.Note(latency_bound, tolerance);
}

std::optional<ConfigUpdateMsg> QuerySensorMatcher::Recommend(SimTime now) {
  if (profile_.queries == 0) {
    return std::nullopt;
  }
  const Duration lpl = std::clamp(
      static_cast<Duration>(static_cast<double>(profile_.min_latency_bound) *
                            params_.lpl_fraction_of_latency),
      params_.min_lpl, params_.max_lpl);
  const double quant =
      std::clamp(profile_.min_tolerance * params_.quant_fraction_of_tolerance,
                 params_.min_quant, params_.max_quant);

  auto moved = [&](double applied, double target) {
    if (applied <= 0.0) {
      return true;
    }
    return std::abs(target - applied) / applied > params_.hysteresis;
  };
  ConfigUpdateMsg msg;
  if (moved(static_cast<double>(applied_lpl_), static_cast<double>(lpl))) {
    msg.fields |= kCfgLplInterval;
    msg.lpl_interval = lpl;
    applied_lpl_ = lpl;
  }
  if (moved(applied_quant_, quant)) {
    msg.fields |= kCfgCompression;
    msg.compress = true;
    msg.quant_step = quant;
    applied_quant_ = quant;
  }
  profile_.Reset(now);
  if (msg.fields == 0) {
    return std::nullopt;
  }
  return msg;
}

}  // namespace presto

namespace presto {

void QuerySensorMatcher::SaveState(ByteWriter& w) const {
  StateFields(*this, CkptWriter(w));
}

void QuerySensorMatcher::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
