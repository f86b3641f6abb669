// Query-sensor matching (paper §3): translate observed query characteristics — arrival
// rate, latency bounds, precision needs — into sensor operating parameters. "If the
// worst case notification latency for typical queries is 10 minutes, the proxy can
// instruct remote sensors to set its radio duty-cycling parameters accordingly"; "if
// queries only require 75% precision ... lossy compression can be used."

#ifndef SRC_PROXY_QUERY_MATCHER_H_
#define SRC_PROXY_QUERY_MATCHER_H_

#include <optional>

#include "src/sensor/protocol.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"

namespace presto {

class ByteReader;
class ByteWriter;

struct QueryProfile {
  uint64_t queries = 0;
  Duration min_latency_bound = 0;  // tightest latency requirement seen
  double min_tolerance = 0.0;      // tightest precision requirement seen
  SimTime window_start = 0;

  void Note(Duration latency_bound, double tolerance);
  void Reset(SimTime now);
};

template <class S, class F, CkptSelf<S, QueryProfile> = 0>
void CkptFields(S& v, F&& f) {
  f(v.queries);
  f(v.min_latency_bound);
  f(v.min_tolerance);
  f(v.window_start);
}

struct MatcherParams {
  // Duty cycle: the pull path costs roughly one LPL interval of rendezvous latency, so
  // keep the interval a quarter of the tightest latency bound, within sane limits.
  double lpl_fraction_of_latency = 0.25;
  Duration min_lpl = Millis(200);
  Duration max_lpl = Seconds(60);
  // Compression: quantization at a quarter of the tightest tolerance keeps codec error
  // well inside query precision.
  double quant_fraction_of_tolerance = 0.25;
  double min_quant = 0.005;
  double max_quant = 0.5;
  // Only push a reconfiguration when a parameter moves by more than this factor
  // (avoids chattering control traffic).
  double hysteresis = 0.25;
};

template <class S, class F, CkptSelf<S, MatcherParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.lpl_fraction_of_latency);
  f(v.min_lpl);
  f(v.max_lpl);
  f(v.quant_fraction_of_tolerance);
  f(v.min_quant);
  f(v.max_quant);
  f(v.hysteresis);
}

class QuerySensorMatcher {
 public:
  explicit QuerySensorMatcher(const MatcherParams& params);

  void NoteQuery(Duration latency_bound, double tolerance);

  // Configuration update to send, if the profile has drifted enough from what is
  // currently applied; updates the applied snapshot when it emits.
  std::optional<ConfigUpdateMsg> Recommend(SimTime now);

  const QueryProfile& profile() const { return profile_; }
  Duration applied_lpl() const { return applied_lpl_; }
  double applied_quant() const { return applied_quant_; }

  // Checkpoint codec: the query profile window and the applied-config snapshot.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.profile_);
    f(self.applied_lpl_);
    f(self.applied_quant_);
  }

  MatcherParams params_;
  QueryProfile profile_;
  Duration applied_lpl_ = 0;   // 0 = never applied
  double applied_quant_ = 0.0;
};

}  // namespace presto

#endif  // SRC_PROXY_QUERY_MATCHER_H_
