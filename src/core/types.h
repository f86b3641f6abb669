// User-facing query types for the unified logical store (paper §5).

#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/util/ckpt.h"
#include "src/util/sample.h"
#include "src/workload/query_driver.h"

namespace presto {

enum class QueryType : uint8_t {
  kNow = 0,   // current value of a sensor
  kPast = 1,  // archival range query
};
constexpr bool CkptEnumValid(QueryType v) { return v <= QueryType::kPast; }

struct QuerySpec {
  QueryType type = QueryType::kNow;
  NodeId sensor_id = 0;
  TimeInterval range{};              // kPast only
  double tolerance = 0.5;            // acceptable absolute error (value units)
  Duration latency_bound = Seconds(30);
};

// What the unified store hands back: the owning proxy's answer plus routing metadata.
struct UnifiedQueryResult {
  QueryAnswer answer;
  NodeId served_by = 0;   // proxy that produced the answer
  int index_hops = 0;     // skip-graph hops spent locating the owner
  bool used_replica = false;
  SimTime issued_at = 0;
  SimTime completed_at = 0;

  Duration Latency() const { return completed_at - issued_at; }
};

// Field lists: specs and results ride inside pending-query sections and trunk mail.
template <class S, class F, CkptSelf<S, QuerySpec> = 0>
void CkptFields(S& v, F&& f) {
  f(v.type);
  f(v.sensor_id);
  f(v.range);
  f(v.tolerance);
  f(v.latency_bound);
}

template <class S, class F, CkptSelf<S, UnifiedQueryResult> = 0>
void CkptFields(S& v, F&& f) {
  f(v.answer);
  f(v.served_by);
  f(v.index_hops);
  f(v.used_replica);
  f(v.issued_at);
  f(v.completed_at);
}

// QueryOutcome view of a store result — the driver-glue half both Deployment and
// Federation report through (the federation additionally stamps `cross_cell`).
inline QueryOutcome OutcomeFromResult(const UnifiedQueryResult& result) {
  QueryOutcome outcome;
  outcome.issued_at = result.issued_at;
  outcome.completed_at = result.completed_at;
  outcome.ok = result.answer.status.ok();
  outcome.source = static_cast<uint8_t>(result.answer.source);
  outcome.energy_j = result.answer.energy_j;
  return outcome;
}

}  // namespace presto

#endif  // SRC_CORE_TYPES_H_
