#include "src/workload/queries.h"

#include <algorithm>

#include "src/util/assert.h"

namespace presto {

QueryRequest DrawQueryRequest(Pcg32& rng, const QueryWorkloadParams& params,
                              SimTime t) {
  QueryRequest q;
  q.issue_at = t;
  q.sensor = static_cast<int>(rng.UniformInt(0, params.num_sensors - 1));
  q.past = rng.Bernoulli(params.past_fraction);
  if (q.past) {
    const double age_us =
        rng.Exponential(1.0 / static_cast<double>(params.mean_past_age));
    q.age = std::min(static_cast<Duration>(age_us), params.max_past_age);
    // Never ask for the future and keep the window inside the lived past.
    q.age = std::max<Duration>(q.age, params.past_window);
    q.age = std::min<Duration>(q.age, t);
    q.window = params.past_window;
  }
  q.tolerance = rng.Uniform(params.min_tolerance, params.max_tolerance);
  q.latency_bound =
      params.min_latency +
      static_cast<Duration>(
          rng.NextDouble() *
          static_cast<double>(params.max_latency - params.min_latency));
  return q;
}

TimeInterval PastRangeOf(const QueryRequest& request, SimTime now) {
  const SimTime start = std::max<SimTime>(0, now - request.age);
  return TimeInterval{start, std::min(now, start + request.window)};
}

Status Validate(const QueryWorkloadParams& params) {
  if (params.num_sensors < 1) {
    return InvalidArgumentError("queries: num_sensors must be at least 1");
  }
  if (!(params.queries_per_hour > 0.0)) {
    return InvalidArgumentError("queries: queries_per_hour must be positive");
  }
  return OkStatus();
}

std::vector<QueryRequest> GenerateQueries(const QueryWorkloadParams& params,
                                          TimeInterval interval) {
  PRESTO_CHECK_OK(Validate(params));
  Pcg32 rng(params.seed, /*stream=*/0x515259);
  const double rate_per_us = params.queries_per_hour / static_cast<double>(kHour);
  std::vector<QueryRequest> out;
  SimTime t = interval.start;
  while (true) {
    t += static_cast<Duration>(rng.Exponential(rate_per_us));
    if (t >= interval.end) {
      break;
    }
    out.push_back(DrawQueryRequest(rng, params, t));
  }
  return out;
}

}  // namespace presto
