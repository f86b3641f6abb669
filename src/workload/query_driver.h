// Open-loop query driver that lives *inside* the simulation.
//
// QueryAndWait's host loop steps the simulator once per query — fine for probes,
// hopeless for a high-QPS interactive workload on the lane engine, where every
// round-trip advances whole epochs. The driver instead schedules its arrival
// process as typed control-lane events: each fire draws one QueryRequest (the same
// distributions as GenerateQueries), hands it to an injected IssueFn, and schedules
// the next arrival — open-loop, so arrivals never wait on completions. One
// `RunUntil(end)` then carries the entire workload with zero host round-trips.
//
// Layering: the driver knows simulators and QueryRequests, not proxies or stores.
// The binding to a concrete query path is the IssueFn — Deployment::AttachQueryDriver
// issues into its unified store, FedCell::AttachDriver into the cross-cell
// router. The glue tags each in-flight query with its driver and reports the
// outcome through RecordOutcome from control context (both bindings marshal
// completions onto the control lane), so recording is serial and needs no locks.
//
// Determinism: arrivals draw from a seeded Pcg32 stream and execute as simulator
// events, so issue times, targets, and the recorded outcomes are part of the replay
// fingerprint; outcome timestamps are event times, making the latency histogram
// bit-identical across worker counts.

#ifndef SRC_WORKLOAD_QUERY_DRIVER_H_
#define SRC_WORKLOAD_QUERY_DRIVER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/queries.h"

namespace presto {

enum class ArrivalProcess : uint8_t {
  kPoisson = 0,    // exponential interarrivals at mix.queries_per_hour
  kFixedRate = 1,  // constant interarrival of 1 / mix.queries_per_hour
};
constexpr bool CkptEnumValid(ArrivalProcess v) { return v <= ArrivalProcess::kFixedRate; }

struct QueryDriverParams {
  // Arrival rate (queries_per_hour), NOW/PAST mix, tolerance and latency-bound
  // distributions, target namespace size (num_sensors), and the driver's seed.
  QueryWorkloadParams mix;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
};

template <class S, class F, CkptSelf<S, QueryDriverParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.mix);
  f(v.arrivals);
}

// Attach-time rules: the mix's, except that num_sensors <= 0 stands for the whole
// population, which the attaching cell fills in (InvalidArgument when broken).
Status Validate(const QueryDriverParams& params);

// What the glue reports back when a query finishes. Timestamps are simulator event
// times (not wall clock), so latencies replay bit-identically.
struct QueryOutcome {
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  bool ok = false;
  uint8_t source = 0;       // sink-defined answer-source tag (deployment: AnswerSource)
  bool cross_cell = false;  // federation glue: the query left its origin cell
  bool past = false;        // query class: archival PAST (true) vs interactive NOW
  int source_cell = 0;      // federation glue: cell that served the answer
  double energy_j = 0.0;    // sensor radio energy this query cost (pulls only)

  Duration Latency() const { return completed_at - issued_at; }
};

// Power-of-two latency buckets over microseconds: bucket i counts latencies in
// [2^i us, 2^(i+1) us). Integer math only — equal runs produce equal histograms, so
// tests and benches compare them directly (the query-path half of the determinism
// contract, alongside the simulator fingerprint).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;  // 2^39 us ~ 6.4 days: plenty

  void Record(Duration latency);
  void Merge(const LatencyHistogram& other);

  uint64_t TotalCount() const;
  uint64_t BucketCount(int i) const { return counts_[static_cast<size_t>(i)]; }

  // FNV digest over the bucket vector — the self-check benches print and compare.
  // Memoized: mutations (Record / Merge / LoadState) invalidate, so hot compare
  // loops pay the 40-bucket fold once per mutation, not once per call. Merge sums
  // commuting bucket counts, so hash(merge(a, b)) == hash(merge(b, a)).
  uint64_t Hash() const;

  // "[1ms,2ms):12" style non-empty buckets, for bench dumps.
  std::string ToString() const;

  // Checkpoint codec: bucket counts only (the memo rebuilds on demand).
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

  friend bool operator==(const LatencyHistogram& a, const LatencyHistogram& b) {
    return a.counts_ == b.counts_;
  }
  friend bool operator!=(const LatencyHistogram& a, const LatencyHistogram& b) {
    return !(a == b);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  mutable uint64_t cached_hash_ = 0;
  mutable bool hash_valid_ = false;
};

struct QueryDriverStats {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cross_cell = 0;
  std::array<uint64_t, 4> by_source{};  // indexed by QueryOutcome::source & 3
  SampleSet latency_ms;                 // completed queries (mean / quantiles)
  LatencyHistogram latency;             // completed queries (determinism digest)
  // Per-query energy attribution (satellite of the paper's energy-vs-latency
  // tradeoff): total sensor radio joules charged to this driver's queries, split by
  // query class and by the cell whose sensors paid. Recording is serial (control
  // lane), so the double sums accumulate in a deterministic order.
  double energy_j = 0.0;
  double energy_now_j = 0.0;
  double energy_past_j = 0.0;
  uint64_t energized = 0;                    // completions that cost sensor energy
  std::map<int, double> energy_by_cell_j;    // keyed by QueryOutcome::source_cell
};

// Stats field list: checkpoints embed it via QueryDriver::SaveState, and the
// federation process seam marshals per-worker driver stats through it (kSnapshot
// frames) — one field order for both, so the two paths cannot drift.
template <class S, class F, CkptSelf<S, QueryDriverStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.issued);
  f(v.completed);
  f(v.failed);
  f(v.cross_cell);
  f(v.by_source);
  f(v.latency_ms);
  f(v.latency);
  f(v.energy_j);
  f(v.energy_now_j);
  f(v.energy_past_j);
  f(v.energized);
  f(v.energy_by_cell_j);
}

class QueryDriver : public EventSink {
 public:
  // Issues one request into the system under test. The glue must call
  // RecordOutcome exactly once when the query completes (or fails).
  using IssueFn = std::function<void(const QueryRequest& request)>;

  // `sim` must outlive the driver. The driver must outlive every in-flight query
  // (its owner destroys it before the simulator).
  QueryDriver(Simulator* sim, const QueryDriverParams& params, IssueFn issue_fn);
  ~QueryDriver() override { Stop(); }

  QueryDriver(const QueryDriver&) = delete;
  QueryDriver& operator=(const QueryDriver&) = delete;

  // Begins the arrival process (first arrival one draw from now). `duration` > 0
  // stops issuing at Now() + duration; 0 keeps issuing until Stop(). Control
  // context only.
  void Start(Duration duration = 0);

  // Cancels the pending arrival; in-flight queries still complete. Idempotent.
  void Stop();

  const QueryDriverParams& params() const { return params_; }
  const QueryDriverStats& stats() const { return stats_; }

  // Records one completed (or failed) query. Control context only.
  void RecordOutcome(const QueryOutcome& outcome);

  // The accounting identity of every driver d: issued = completed + in_flight[d]
  // (`completed` counts failures too). Owners tally their own in-flight entries.
  static bool Balanced(const std::vector<std::unique_ptr<QueryDriver>>& drivers,
                       const std::vector<uint64_t>& in_flight);

  void OnSimEvent(EventKind kind, EventPayload& payload) override;  // arrivals
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override;

  // Checkpoint codec: arrival RNG and schedule, run window, and recorded stats.
  // The pending-arrival event itself lives in the simulator's queue; LoadState
  // drops the stale handle and OnEventRestored re-captures it.
  Status SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.rng_);
    f(self.next_at_);
    f(self.until_);
    f(self.running_);
    f(self.stats_);
  }

  Duration NextGap();

  Simulator* sim_;
  QueryDriverParams params_;
  IssueFn issue_fn_;
  Pcg32 rng_;
  EventHandle pending_;
  // The arrival process chains off intended arrival times, not observed Now().
  // Control events observe their scheduled time, but execution is still
  // barrier-batched: chaining off the observed clock would couple the arrival
  // schedule to execution order instead of the Poisson draw. Arrivals that fall
  // behind a barrier execute there in-batch while keeping their intended stamps.
  SimTime next_at_ = 0;
  SimTime until_ = -1;  // no arrivals at/after this time; -1 = unbounded
  bool running_ = false;
  QueryDriverStats stats_;
};

}  // namespace presto

#endif  // SRC_WORKLOAD_QUERY_DRIVER_H_
