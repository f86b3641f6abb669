// Query workload generator: Poisson arrivals of NOW and PAST queries with configurable
// precision/latency requirements. The proxy's query-sensor matching (§3) adapts sensor
// settings to exactly these distributions, so benches sweep them.

#ifndef SRC_WORKLOAD_QUERIES_H_
#define SRC_WORKLOAD_QUERIES_H_

#include <vector>

#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/util/sample.h"
#include "src/util/sim_time.h"

namespace presto {

// A user query request, before being bound to the core query types (workload stays
// below core in the layering).
struct QueryRequest {
  SimTime issue_at = 0;
  int sensor = 0;              // target sensor index within the deployment
  bool past = false;           // false: NOW query; true: PAST (archival) query
  Duration age = 0;            // for PAST: how far back the window starts
  Duration window = Minutes(10);  // for PAST: length of the requested range
  double tolerance = 0.5;      // acceptable absolute error in value units
  Duration latency_bound = Seconds(30);
};

struct QueryWorkloadParams {
  double queries_per_hour = 30.0;
  double past_fraction = 0.3;
  Duration mean_past_age = Hours(12);  // exponential
  Duration max_past_age = Days(7);
  Duration past_window = Minutes(30);
  double min_tolerance = 0.2;
  double max_tolerance = 2.0;
  Duration min_latency = Seconds(5);
  Duration max_latency = Minutes(5);
  int num_sensors = 1;
  uint64_t seed = 23;
};

template <class S, class F, CkptSelf<S, QueryWorkloadParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.queries_per_hour);
  f(v.past_fraction);
  f(v.mean_past_age);
  f(v.max_past_age);
  f(v.past_window);
  f(v.min_tolerance);
  f(v.max_tolerance);
  f(v.min_latency);
  f(v.max_latency);
  f(v.num_sensors);
  f(v.seed);
}

// GenerateQueries' and QueryDriver's rules (InvalidArgument when broken).
Status Validate(const QueryWorkloadParams& params);

// Draws one query's fields (target, NOW/PAST shape, tolerance, latency bound) for a
// query issued at `t`. Shared by the batch generator below and the in-sim
// QueryDriver so both produce the same distributions from the same draws.
QueryRequest DrawQueryRequest(Pcg32& rng, const QueryWorkloadParams& params, SimTime t);

// The concrete time range a PAST request asks for when issued at `now`: [age ago,
// age ago + window], clamped inside the lived past. One definition, so every
// binding of the workload (deployment-local, federated) asks for identical ranges.
TimeInterval PastRangeOf(const QueryRequest& request, SimTime now);

// All queries issued during `interval`, in time order.
std::vector<QueryRequest> GenerateQueries(const QueryWorkloadParams& params,
                                          TimeInterval interval);

}  // namespace presto

#endif  // SRC_WORKLOAD_QUERIES_H_
