// The PRESTO proxy (paper §3): the tethered middle tier that balances interactive
// querying against sensor energy.
//
// Per managed sensor it maintains: a summary cache with provenance, a prediction
// engine (model fitting + extrapolation + drift monitoring), a regression time sync
// (drift-corrected timestamps), and a query-sensor matcher. Query answering follows
// the paper's cascade:
//
//   cache hit  ->  model extrapolation within the query's error tolerance
//              ->  cache-miss-triggered pull from the sensor's flash archive.
//
// Proxies can replicate caches and models to a peer over the wired tier (§5), so
// queries survive a proxy failure with degraded (cache/extrapolation-only) service.
//
// ProxyMode selects the Table 1 baselines: kPresto (full cascade), kCacheOnly
// (stream-style: answer only from what was pushed), kAlwaysPull (direct-query style:
// every query goes to the sensor).

#ifndef SRC_PROXY_PROXY_NODE_H_
#define SRC_PROXY_PROXY_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/index/time_sync.h"
#include "src/net/network.h"
#include "src/proxy/prediction_engine.h"
#include "src/proxy/query_matcher.h"
#include "src/proxy/summary_cache.h"
#include "src/sensor/protocol.h"
#include "src/sim/timer.h"
#include "src/util/id_map.h"
#include "src/util/stats.h"

namespace presto {

enum class ProxyMode : uint8_t {
  kPresto = 0,
  kCacheOnly = 1,   // streaming architectures: proxy answers only from pushed data
  kAlwaysPull = 2,  // direct-query architectures: no cache use, always ask the sensor
};

enum class AnswerSource : uint8_t {
  kCacheHit = 0,
  kExtrapolated = 1,
  kSensorPull = 2,
  kFailed = 3,
};

const char* AnswerSourceName(AnswerSource source);

struct QueryAnswer {
  Status status;
  AnswerSource source = AnswerSource::kFailed;
  std::vector<Sample> samples;   // PAST: the range; NOW: one sample
  double value = 0.0;            // NOW convenience (== samples.back().value)
  double error_estimate = 0.0;   // one-sigma-style bound the proxy asserts
  // Sensor-side radio energy this answer cost (joules). Zero for cache hits and
  // extrapolations — the whole point of the cascade; pulls carry their share of the
  // radio transaction's closed-form estimate (coalesced riders split it evenly).
  double energy_j = 0.0;
  SimTime issued_at = 0;
  SimTime completed_at = 0;

  Duration Latency() const { return completed_at - issued_at; }
};

// Checkpoint codec for answers parked in pending store/federation queries.
void CkptWrite(ByteWriter& w, const QueryAnswer& answer);
Status CkptRead(ByteReader& r, QueryAnswer& answer);

// Completion target of the query API: the client gets the token it passed to
// QueryNow/QueryPast back with the answer, which it may keep (the answer is moved,
// never copied, on its way out). Implemented by the unified store; tokens survive a
// checkpoint.
class PullClient {
 public:
  virtual ~PullClient() = default;
  virtual void OnPullDone(uint64_t token, QueryAnswer&& answer) = 0;
};

struct ProxyNodeConfig {
  NodeId id = 0;
  ProxyMode mode = ProxyMode::kPresto;
  PredictionEngineParams engine;
  MatcherParams matcher;
  double default_tolerance = 0.5;    // model-driven push threshold sent to sensors
  Duration pull_timeout = Minutes(10);
  // Minimum spacing between promotion-time backfill pulls. A promotion hands the
  // new owner its whole shard at one barrier; issuing every repair pull right there
  // serializes minutes of LPL preambles on this proxy's radio, starving interactive
  // pulls into timeout (and timing out most of the backfill itself). Queued repairs
  // drain one radio transaction per spacing instead. 0 = issue immediately.
  Duration backfill_spacing = Seconds(2);
  Duration maintenance_period = Minutes(1);
  // A NOW answer from cache counts as fresh within this many sensing periods.
  double freshness_periods = 3.0;
  // PAST coverage at/above which the cache alone answers.
  double past_coverage_threshold = 0.75;
  bool manage_models = true;    // fit & install models (off for baseline architectures)
  bool enable_matcher = true;   // query-sensor matching reconfiguration
  // Replicate owned-sensor state to the per-sensor replica targets (SetReplicaTargets).
  bool enable_replication = false;
  uint64_t seed = 1;
};

struct ProxyStats {
  uint64_t pushes_received = 0;
  uint64_t push_samples = 0;
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t extrapolations = 0;
  uint64_t pulls = 0;
  uint64_t coalesced_pulls = 0;  // queries that rode an already-in-flight pull
  uint64_t pull_timeouts = 0;
  uint64_t failures = 0;
  uint64_t degraded_answers = 0;  // queries served from replicated state (§5 degraded)
  uint64_t model_sends = 0;
  uint64_t config_sends = 0;
  uint64_t replica_updates = 0;
  uint64_t promotions = 0;      // replica slots elevated to full ownership
  uint64_t demotions = 0;       // ownerships handed back to replica duty
  uint64_t snapshots_sent = 0;  // cache+model state transfers (migration / hand-back)
  uint64_t backfill_pulls = 0;  // archive pulls issued to fill promotion-time gaps
  SampleSet now_latency_ms;
  SampleSet past_latency_ms;
};

class ProxyNode : public NetNode, public EventSink {
 public:
  // Attaches itself to `net` as `config.id` (powered, always-listening).
  ProxyNode(Simulator* sim, Network* net, const ProxyNodeConfig& config);

  // Pins this proxy's self-scheduled events (maintenance timer, pull timeouts) to a
  // simulator lane; the deployment binds lane = shard index. Call before Start().
  void BindLane(int lane) {
    lane_ = lane;
    maintenance_timer_.BindLane(lane);
  }

  // Declares a sensor this proxy manages. `sensing_period` is the sensor's sampling
  // grid (needed for freshness/coverage math). `replica = true` registers standby
  // state for a sensor owned by a peer proxy: it accepts replicated cache/model
  // updates and serves failover queries, but is not indexed as this proxy's own and
  // is excluded from model management / matcher control traffic.
  void RegisterSensor(NodeId sensor_id, Duration sensing_period, bool replica = false);

  // Drops a sensor's state entirely (its shard moved away and this proxy is no longer
  // owner or replica). In-flight pulls for the sensor fail with kUnavailable.
  void UnregisterSensor(NodeId sensor_id);

  // Replica -> full owner: the sensor's state is kept and this proxy takes over pulls,
  // model management, and matcher control (failover promotion / migration landing).
  void PromoteSensor(NodeId sensor_id);

  // Full owner -> replica: keeps state as standby, stops pulling and managing. Any
  // in-flight pulls for the sensor are failed (the new owner re-pulls on demand).
  void DemoteSensor(NodeId sensor_id);

  // Declares where this proxy replicates `sensor_id`'s pushed/pulled state and models
  // (K-way replica set of the sensor's shard; empty disables replication for it).
  void SetReplicaTargets(NodeId sensor_id, std::vector<NodeId> targets);

  // Ships a cache snapshot (last `history` of reference samples) plus the current
  // model to `to_proxy` over the wired mesh — the state-transfer half of a migration
  // or a revive hand-back.
  void SendStateSnapshot(NodeId sensor_id, NodeId to_proxy, Duration history);

  // Promotion-time gap repair: scans the cache over [now - horizon, now] for holes
  // (a recruit's snapshot reaches only `handoff_history` deep at its recruit time, and
  // a standby that was down missed its outage window entirely) and issues one
  // background archive pull spanning them, so the freshly promoted owner serves that
  // window from cache instead of degrading. No-op for replicas and hole-free caches.
  // With backfill_spacing > 0 the repair is queued and drained one pull per spacing
  // (holes re-scanned at drain time, so pulls made redundant by live pushes or a
  // hand-back are skipped); 0 pulls inline.
  void BackfillFromArchive(NodeId sensor_id, Duration horizon);

  // Starts maintenance (model management, matcher) — call once after wiring.
  void Start();

  // --- query API (invoked by the unified store) ---
  // The answer goes to the registered PullClient with `token`, possibly
  // synchronously (cache hits, model answers, failures); a pending pull is fully
  // serializable.
  void QueryNow(NodeId sensor_id, double tolerance, Duration latency_bound,
                uint64_t token);
  void QueryPast(NodeId sensor_id, TimeInterval range, double tolerance,
                 uint64_t token);
  void SetPullClient(PullClient* client) { pull_client_ = client; }

  void OnMessage(const Message& message) override;
  // Pull timeouts (payload.b == 0, payload.a = pull id) and backfill drain ticks
  // (payload.b == 1), both EventKind::kQuery.
  void OnSimEvent(EventKind kind, EventPayload& payload) override;
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override;

  // Checkpoint codec: per-sensor state (cache, engine, sync, matcher), pending pulls
  // with their token/no-op origins, backfill queue, timers and stats. LoadState
  // expects a freshly constructed proxy with the same config; pull-timeout handles
  // are re-captured via OnEventRestored.
  Status SaveState(ByteWriter& w) const;
  Status LoadState(ByteReader& r);

  // Introspection for benches and the unified store.
  const ProxyStats& stats() const { return stats_; }
  ProxyStats& stats_mut() { return stats_; }
  const ProxyNodeConfig& config() const { return config_; }
  // Sensors this proxy *owns* (excludes replica registrations).
  std::vector<NodeId> sensors() const;
  // Sensors this proxy holds only standby (replica) state for.
  std::vector<NodeId> replica_sensors() const;
  bool ManagesSensor(NodeId sensor_id) const { return FindSensor(sensor_id) != nullptr; }
  // True when this proxy holds only standby (replica) state for the sensor.
  bool IsReplicaFor(NodeId sensor_id) const;
  // Queries + pushes seen for this sensor since the last ResetLoadWindow() — the
  // per-shard counters the deployment's rebalancer weighs migrations with.
  uint64_t SensorWindowLoad(NodeId sensor_id) const;
  void ResetLoadWindow();
  const SummaryCache* cache(NodeId sensor_id) const;
  const PredictionEngine* engine(NodeId sensor_id) const;
  Result<double> SyncResidualRms(NodeId sensor_id) const;

  // Reference-time samples cached for `sensor` in `range` (replica-side reads).
  std::vector<Sample> CachedRange(NodeId sensor_id, TimeInterval range) const;

 private:
  struct SensorState {
    NodeId id = 0;
    bool is_replica = false;
    Duration sensing_period = Seconds(31);
    SummaryCache cache;
    PredictionEngine engine;
    RegressionTimeSync sync;
    QuerySensorMatcher matcher;
    bool model_sent = false;
    SimTime last_model_send = 0;
    SimTime last_push = 0;
    std::vector<NodeId> replica_targets;  // where the owner mirrors state/models
    uint64_t window_queries = 0;          // load counters since last ResetLoadWindow
    uint64_t window_pushes = 0;

    SensorState(NodeId sensor_id, Duration period,
                const PredictionEngineParams& engine_params,
                const MatcherParams& matcher_params)
        : id(sensor_id), sensing_period(period), engine(engine_params),
          matcher(matcher_params) {}
  };

  // Where a query's answer goes: nowhere (backfill pulls: the pulled data landing
  // in the cache is the answer) or the pull client, with a token. Kind values are
  // checkpoint bytes; 1 is unused.
  struct QueryOrigin {
    enum class Kind : uint8_t { kNone = 0, kToken = 2 };
    Kind kind = Kind::kNone;
    uint64_t token = 0;

    static QueryOrigin Token(uint64_t token) {
      QueryOrigin o;
      o.kind = Kind::kToken;
      o.token = token;
      return o;
    }
  };

  // A query that attached itself to an already-in-flight pull covering its range
  // (the batched query pipeline: one radio transaction answers them all).
  struct PullRider {
    bool is_now = false;
    TimeInterval range{};
    SimTime issued_at = 0;
    QueryOrigin origin;
  };

  struct PendingPull {
    uint32_t id = 0;
    NodeId sensor_id = 0;
    bool is_now = false;
    TimeInterval range{};  // reference timeline
    double tolerance = 0.0;
    SimTime issued_at = 0;
    size_t request_bytes = 0;  // encoded ArchiveQueryMsg size, for energy attribution
    QueryOrigin origin;
    EventHandle timeout;
    std::vector<PullRider> riders;
  };

  // A deferred promotion-time repair: the hole scan re-runs at drain time, so a
  // request that live pushes (or a hand-back) already repaired issues no pull.
  struct BackfillRequest {
    NodeId sensor_id = 0;
    Duration horizon = 0;
  };

  SensorState& GetSensor(NodeId sensor_id);
  SensorState* FindSensor(NodeId sensor_id) const;
  // Adds a sensor state to both tables; false when the id is already registered.
  bool AddSensorState(std::unique_ptr<SensorState> state);

  // Scans `sensor`'s cache for holes and issues the spanning archive pull if any
  // remain; returns whether a pull (a radio transaction) was actually issued.
  bool TryBackfillPull(SensorState& sensor, Duration horizon);
  // Pops backfill_queue_ until one pull is issued (skipping entries whose sensor was
  // demoted/unregistered or whose holes have since been repaired), then reschedules
  // itself backfill_spacing later while the queue is non-empty.
  void DrainBackfillQueue();
  // Schedules the next drain tick (a typed kQuery event with payload.b == 1, so the
  // tick survives a checkpoint) and marks the drain pending.
  void ScheduleBackfillDrain();

  void HandleDataPush(const Message& message);
  void HandleArchiveReply(const Message& message);
  void HandleReplicaUpdate(const Message& message);
  void HandleReplicaModel(const Message& message);
  void HandleStateSnapshot(const Message& message);

  void MaybeSendModel(SensorState& sensor);
  void RunMaintenance();
  // Best-effort answer when this proxy only holds replicated state for the sensor:
  // cache/extrapolation only, never a pull (the owner is down; paper §5's degraded
  // service). The error estimate is honest rather than tolerance-gated.
  void AnswerDegradedNow(SensorState& sensor, SimTime now, QueryOrigin origin);
  // `window` is the cache's view of the queried range.
  void AnswerDegradedPast(const SensorState& sensor, const SummaryCache::Window& window,
                          SimTime now, QueryOrigin origin);
  void IssuePull(SensorState& sensor, TimeInterval range, double tolerance, bool is_now,
                 SimTime issued_at, QueryOrigin origin);
  // Answers one query (the pull's originator or a rider) from freshly pulled data.
  // `energy_j` is this query's share of the radio transaction's energy estimate.
  void CompletePullQuery(bool is_now, TimeInterval range, SimTime issued_at,
                         const QueryOrigin& origin, SensorState& sensor,
                         const std::vector<Sample>& pulled, double energy_j);
  // Fails the pull's originator and every rider with `status`.
  void FailPull(const PendingPull& pull, const Status& status);
  void Answer(QueryAnswer answer, const QueryOrigin& origin, bool is_now);
  void Replicate(SensorState& sensor, const std::vector<Sample>& reference_samples);
  // Fails and removes every pending pull addressed to `sensor_id`.
  void AbortPullsFor(NodeId sensor_id, const Status& status);

  // Converts a local-time batch to reference time using the sensor's sync state.
  std::vector<Sample> CorrectTimestamps(SensorState& sensor,
                                        const std::vector<Sample>& local) const;

  Simulator* sim_;
  Network* net_;
  ProxyNodeConfig config_;
  PullClient* pull_client_ = nullptr;
  int lane_ = Simulator::kLaneCurrent;  // set by BindLane (deployments)
  PeriodicTimer maintenance_timer_;
  // Sensor states in ascending id order (maintenance, checkpoints and sensors() walk
  // it), and an id index over them for the per-message and per-query lookups. Both
  // change only in RegisterSensor, UnregisterSensor and LoadState, all in control
  // context; lanes only read the index.
  std::vector<std::unique_ptr<SensorState>> sensors_;
  IdMap<SensorState*> sensor_index_;
  std::map<uint32_t, PendingPull> pending_pulls_;
  std::deque<BackfillRequest> backfill_queue_;
  bool backfill_drain_pending_ = false;
  uint32_t next_pull_id_ = 1;
  ProxyStats stats_;
};

}  // namespace presto

#endif  // SRC_PROXY_PROXY_NODE_H_
