// Deployment builder and dynamic shard manager: wires a complete PRESTO system —
// simulator, tiered network, proxies (with caches/engines/matchers), sensors (with
// flash archives and push policies), spatially correlated workload, skip-graph-routed
// unified store, K-way proxy replication — from one config struct, then keeps the
// shard layout *live*:
//
//  - Routing follows *sensors*, not proxies: every sensor carries an ordered chain of
//    the proxies holding its state (acting owner first), re-derived on each mutation
//    and mirrored into the unified store. Queries fall through to the first live
//    holder, so even a second failure of a promoted acting owner never strands a
//    shard. Promotion tops the chain back up to `replication_factor` live copies by
//    recruiting ring successors of the new owner (registration + state snapshot).
//  - KillProxy schedules replica promotion after `promotion_delay`: the first live
//    holder on each stranded sensor's chain becomes the full owner (takes over pulls,
//    model management, and the unified-store index entry) instead of serving
//    cache/extrapolation-only forever. Promotion and hand-back walk the shard map's
//    incremental served-by index — O(shard), never a full-population rescan.
//  - ReviveProxy hands ownership back, with a cache+model state transfer from the
//    acting owner over the wired mesh, and restores the home holder chain.
//  - MigrateSensor moves one sensor between live proxies (rebalancing primitive).
//  - An optional load-aware rebalancer sweeps per-shard query+push counters every
//    `rebalance_period` and re-packs hot sensors across all live proxies with a
//    global LPT (longest-processing-time) assignment — multi-shard skew converges in
//    one sweep instead of one busiest/calmest pair at a time.
//
// Every mutation executes as a deterministic simulator event, so same-seed replays
// (Simulator::fingerprint()) stay bit-identical.
//
// This is the entry point examples, benches, and integration tests share.

#ifndef SRC_CORE_DEPLOYMENT_H_
#define SRC_CORE_DEPLOYMENT_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/shard_map.h"
#include "src/core/types.h"
#include "src/core/unified_store.h"
#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/sensor/sensor_node.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/ckpt.h"
#include "src/util/id_map.h"
#include "src/workload/query_driver.h"
#include "src/workload/temperature.h"

namespace presto {

// The completion target of host-side deployment queries (Deployment::QueryAsync):
// the client gets back the tag it issued the query with, so entries in flight are
// plain data and survive a checkpoint. The deployment-level analogue of PullClient /
// UnifiedStore::Client, one layer up; the federation's cells and Table 1's query
// issuer implement it.
class DeploymentQueryClient {
 public:
  virtual ~DeploymentQueryClient() = default;
  virtual void OnDeploymentQueryDone(uint64_t tag, UnifiedQueryResult&& result) = 0;
};

// Deployment-level network defaults. The link-coalescing epoch ships non-zero here
// (unlike the raw NetworkParams default of 0): bench/fig2_batching's sweep shows
// interactive latency stays at the epoch-0 level for any epoch — pulls and archive
// replies bypass the window — while replica fan-in onto the wired tier coalesces
// from 0.25 s up. 1 s sits comfortably inside the flat region (operating point
// recorded in README).
inline NetworkParams DefaultDeploymentNet() {
  NetworkParams net;
  net.batch_epoch = Seconds(1);
  return net;
}

struct DeploymentConfig {
  int num_proxies = 2;
  int sensors_per_proxy = 8;
  // How the global sensor population is sharded across proxies. kGeographic keeps the
  // (proxy, sensor) naming grid and ownership aligned (the seed behaviour); kHash
  // spreads sensors across proxies by index hash for load balance.
  ShardPolicy shard_policy = ShardPolicy::kGeographic;

  // Sensor behaviour.
  Duration sensing_period = Seconds(31);
  PushPolicy policy = PushPolicy::kModelDriven;
  double model_tolerance = 0.5;
  double value_delta = 1.0;
  Duration batch_interval = Minutes(16.5);
  bool compress = false;
  CodecParams codec;
  FlashParams flash;
  ArchiveParams archive;
  ModelConfig model_config;
  NodeRadioConfig sensor_radio;        // powered=false; lpl/post-burst knobs
  double max_drift_ppm = 40.0;         // per-sensor drift drawn uniformly in +/- this
  Duration max_clock_offset = Seconds(2);

  // Proxy behaviour.
  ProxyMode proxy_mode = ProxyMode::kPresto;
  PredictionEngineParams engine;
  MatcherParams matcher;
  bool manage_models = true;
  bool enable_matcher = false;  // opt-in: benches sweep this explicitly
  bool enable_replication = false;
  // Total copies per shard including the owner (K-way). 2 = the PR-1 single-standby
  // behaviour; clamped to the proxy count. Only meaningful with enable_replication.
  int replication_factor = 2;
  // KillProxy -> replica promotion lag (failure detection + takeover). Queries in the
  // window are served degraded through the unified store's failover chain.
  Duration promotion_delay = Seconds(30);
  // Cache depth shipped when state is handed over (migration / revive hand-back).
  Duration handoff_history = Hours(4);
  // Archive-backed backfill at failover promotion: the promoted proxy scans its cache
  // over the last handoff_history for holes (shallow recruit snapshots, standby
  // outage windows) and repairs them with one background pull from the sensor's flash
  // archive, so the promoted window serves from cache instead of degrading.
  bool promotion_backfill = true;
  Duration pull_timeout = Minutes(10);

  // --- shard-lane engine ---
  // The simulator runs one lane per proxy shard (sensors ride their acting owner's
  // lane) under an epoch-barrier schedule; mutations (kill / revive / promote /
  // migrate / rebalance) run at barriers and move a re-homed sensor's lane there.
  // sim_threads workers execute the lanes — fingerprints are identical for 1 and N
  // workers. The epoch is the conservative lookahead, the fastest cross-lane delay
  // (the store's route hop, cross-lane wired links), re-derived at every mutation
  // barrier: cross-lane latencies stay faithful. lane_engine must stay true (the
  // only engine); the field remains for callers that still assign it.
  bool lane_engine = true;
  int sim_threads = 1;

  // Load-aware rebalancing (opt-in): every rebalance_period, per-sensor query+push
  // window counters feed an EMA (one window is a noisy sample of the workload); if
  // the smoothed per-proxy load ratio exceeds rebalance_max_ratio, the sweep
  // re-packs loaded sensors across all live proxies with a sticky global LPT
  // assignment and executes the migrations it implies (hottest differences first,
  // at most rebalance_max_moves a sweep). A sweep that acts drives to the packed
  // optimum — comfortably inside the bound, not parked on its edge — so the next
  // windows' noise does not re-trip the gate; an already-balanced layout re-derives
  // itself move-free.
  bool enable_rebalancing = false;
  Duration rebalance_period = Minutes(30);
  double rebalance_max_ratio = 1.5;
  int rebalance_max_moves = 4;
  // EMA smoothing constant for the per-sensor window loads the sweep packs against:
  // higher tracks a shifting workload faster, lower rides out bursty windows.
  double rebalance_ema_alpha = 0.5;
  // Keep a sensor on its home proxy unless moving it leaves home lighter than the
  // destination becomes — a converged layout then re-derives itself move-free. Off:
  // pure LPT packing (tightest balance, but re-packs freely).
  bool rebalance_sticky = true;
  // A sweep only acts when the busiest proxy saw at least this many window events:
  // background push noise is not a signal worth migrating (anti-thrash floor).
  uint64_t rebalance_min_load = 16;

  // World.
  TemperatureParams field;
  double spatial_correlation = 0.85;

  NetworkParams net = DefaultDeploymentNet();
  uint64_t seed = 42;
};

template <class S, class F, CkptSelf<S, DeploymentConfig> = 0>
void CkptFields(S& v, F&& f) {
  f(v.num_proxies);
  f(v.sensors_per_proxy);
  f(v.shard_policy);
  f(v.sensing_period);
  f(v.policy);
  f(v.model_tolerance);
  f(v.value_delta);
  f(v.batch_interval);
  f(v.compress);
  f(v.codec);
  f(v.flash);
  f(v.archive);
  f(v.model_config);
  f(v.sensor_radio);
  f(v.max_drift_ppm);
  f(v.max_clock_offset);
  f(v.proxy_mode);
  f(v.engine);
  f(v.matcher);
  f(v.manage_models);
  f(v.enable_matcher);
  f(v.enable_replication);
  f(v.replication_factor);
  f(v.promotion_delay);
  f(v.handoff_history);
  f(v.promotion_backfill);
  f(v.pull_timeout);
  f(v.lane_engine);
  f(v.sim_threads);
  f(v.enable_rebalancing);
  f(v.rebalance_period);
  f(v.rebalance_max_ratio);
  f(v.rebalance_max_moves);
  f(v.rebalance_ema_alpha);
  f(v.rebalance_sticky);
  f(v.rebalance_min_load);
  f(v.field);
  f(v.spatial_correlation);
  f(v.net);
  f(v.seed);
}

// Deployment's construction rules, its subsystems' included (InvalidArgument when
// broken). A bootstrap that passes builds its cells without aborting.
Status Validate(const DeploymentConfig& config);

class Deployment : public EventSink, public UnifiedStore::Client {
 public:
  // Reads the world for one sensor; the default reads the temperature field.
  using MeasureFactory = std::function<SensorNode::MeasureFn(int global_sensor_index)>;

  explicit Deployment(const DeploymentConfig& config);
  Deployment(const DeploymentConfig& config, MeasureFactory measure_factory);

  // Starts sensing loops and proxy maintenance. Call once, then run the simulator.
  void Start();

  // --- topology accessors ---
  // (proxy_index, sensor_index) is the deployment's *naming grid*: it fixes sensor ids
  // and global indices independent of sharding. Under kGeographic the named proxy also
  // owns the sensor; under kHash ownership comes from the shard map.
  static NodeId ProxyId(int proxy_index) { return static_cast<NodeId>(1 + proxy_index); }
  static NodeId SensorId(int proxy_index, int sensor_index) {
    return static_cast<NodeId>(1000 * (proxy_index + 1) + sensor_index);
  }
  int GlobalSensorIndex(int proxy_index, int sensor_index) const {
    return proxy_index * config_.sensors_per_proxy + sensor_index;
  }
  NodeId GlobalSensorId(int global_index) const {
    return SensorId(global_index / config_.sensors_per_proxy,
                    global_index % config_.sensors_per_proxy);
  }
  int total_sensors() const { return config_.num_proxies * config_.sensors_per_proxy; }

  const ShardMap& shard() const { return *shard_map_; }
  // The proxy that owns (serves queries for) the (p, s)-named sensor.
  int OwnerProxyIndex(int proxy_index, int sensor_index) const {
    return shard_map_->OwnerOf(GlobalSensorIndex(proxy_index, sensor_index));
  }

  // Failure injection at deployment granularity: a killed proxy neither receives
  // pushes nor answers queries. With replication its shard is served degraded from the
  // replica set immediately, and after `promotion_delay` the first live replica is
  // promoted to full owner (pulls, models, index entry — full service).
  void KillProxy(int proxy_index);
  // Brings the proxy back and hands its shard back from the acting owners, with a
  // cache/model state transfer over the wired mesh.
  void ReviveProxy(int proxy_index);
  bool IsProxyDown(int proxy_index) const;

  // Schedules a live migration of one sensor to `new_owner` as a simulator event:
  // state snapshot over the wired mesh, ownership + replica-set re-registration,
  // index re-point, and push re-targeting. No-op if either side is down or the
  // sensor's shard is currently in failover.
  void MigrateSensor(int global_index, int new_owner);

  // The proxy currently serving the sensor (the shard-map owner, or the promoted
  // replica while the owner is down).
  int ActingOwner(int global_index) const;

  // Sum of the current-window load counters over the sensors `proxy_index` serves.
  uint64_t ProxyWindowLoad(int proxy_index) const;

  struct ShardMgmtStats {
    uint64_t promotions = 0;       // sensors taken over by a replica
    uint64_t handbacks = 0;        // sensors returned to a revived owner
    uint64_t migrations = 0;       // live migrations executed (manual + rebalancer)
    uint64_t rebalance_sweeps = 0;
    SimTime last_promotion_at = -1;  // recovery-time reporting

    template <class S, class F, CkptSelf<S, ShardMgmtStats> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.promotions);
      f(v.handbacks);
      f(v.migrations);
      f(v.rebalance_sweeps);
      f(v.last_promotion_at);
    }
  };
  const ShardMgmtStats& shard_stats() const { return shard_stats_; }

  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  UnifiedStore& store() { return *store_; }
  TemperatureField& field() { return *field_; }
  ProxyNode& proxy(int proxy_index) {
    return *proxies_[static_cast<size_t>(proxy_index)];
  }
  SensorNode& sensor(int proxy_index, int sensor_index);
  const DeploymentConfig& config() const { return config_; }

  // Mean sensor energy in joules (settles idle energy first).
  double MeanSensorEnergy();

  // Issues a query and steps the simulator until it completes (or `max_wait`
  // passes: DeadlineExceeded). The completion lands inline, with no control-lane
  // event, so a probe adds nothing to the event stream but the store's own stages.
  // A timed-out query stays in flight, and blocks SaveCheckpoint, until it lands.
  UnifiedQueryResult QueryAndWait(const QuerySpec& spec, Duration max_wait = Minutes(30));

  // External query entry without a host-loop round-trip: routing runs now (control
  // context only), execution rides the store's typed kQuery events in the serving
  // proxy's lane, and the completion bounces back as a typed event to the *control
  // lane*, where it is delivered as query_client->OnDeploymentQueryDone(tag, result)
  // — so clients never observe worker-lane context, and queries in flight survive
  // a checkpoint. Needs SetQueryClient first.
  void QueryAsync(const QuerySpec& spec, uint64_t tag);
  void SetQueryClient(DeploymentQueryClient* client) { query_client_ = client; }

  // UnifiedStore::Client: store completions come back keyed by external-query id.
  void OnStoreQueryDone(uint64_t token, UnifiedQueryResult&& result) override;

  // Attaches an open-loop in-sim query driver targeting this deployment's sensors
  // (QueryRequest.sensor = global index; mix.num_sensors <= 0 defaults to the whole
  // population). The driver issues through the external-query table, so a single
  // RunUntil carries the entire workload. Caller starts it:
  // AttachQueryDriver(p).Start(duration).
  QueryDriver& AttachQueryDriver(const QueryDriverParams& params);

  // Runs the simulator forward to `t` (no-op if already past). Debug builds then
  // assert every attached driver's accounting: issued = completed + in flight.
  void RunUntil(SimTime t);

  // Topology mutations (promotion, hand-back, migration) arrive as typed kMutation
  // events on the control lane: they touch every layer, so they only ever execute at
  // epoch barriers. kQuery events are external-query completions marshalled from the
  // serving proxy's lane back to control context.
  void OnSimEvent(EventKind kind, EventPayload& payload) override;
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override;

  // --- checkpoint / restore ---
  // Snapshots every stateful subsystem into per-section payloads (each section
  // carries its own checksum inside the container): "net", "store", "shard_map",
  // "deploy", one "proxy/<p>" per proxy, "sensors", "drivers", and "sim" — composed
  // here so section boundaries match subsystem boundaries and a diff names the first
  // divergent layer. Call at a barrier / between RunUntil calls only; fails (writing
  // nothing partial) while a QueryAndWait query is in flight. `prefix` namespaces
  // the section names ("cell3/sim") for multi-deployment containers.
  Status SaveCheckpoint(Checkpoint* out, const std::string& prefix = "") const;

  // The section names SaveCheckpoint writes (unprefixed), in save order — what a
  // restore must find before it touches anything.
  std::vector<std::string> CheckpointSections() const;

  // Restores into a *freshly constructed, identically configured* deployment (same
  // config, same AttachQueryDriver calls, Start() already run). Subsystem sections
  // load first; "sim" loads last so restored queue events re-announce into
  // already-restored subsystems. Restore at barrier B is observationally identical
  // to never stopping: fingerprints and histograms match an uninterrupted run.
  Status LoadCheckpoint(const Checkpoint& ckpt, const std::string& prefix = "");

 private:
  void Build(MeasureFactory measure_factory);

  bool ReplicationEnabled() const {
    return config_.enable_replication && config_.num_proxies > 1;
  }
  int LiveProxyCount() const;
  // Inverse of the naming grid: the global index of a SensorId().
  int GlobalIndexOfId(NodeId sensor_id) const {
    const int named_proxy = static_cast<int>(sensor_id) / 1000 - 1;
    const int sensor = static_cast<int>(sensor_id) % 1000;
    return named_proxy * config_.sensors_per_proxy + sensor;
  }
  // Re-derives sensor `g`'s ordered holder chain with `acting` at the head: current
  // state holders first (home, then the home replica set, then surviving recruits),
  // then — with replication — newly recruited live ring successors of `acting`
  // (registered and snapshot-seeded here) until the chain holds `replication_factor`
  // live copies.
  std::vector<int> DeriveChain(int global_index, int acting);
  // Installs a derived chain: re-arms the acting owner's replica targets (live
  // standbys), mirrors the chain + index entry into the unified store, re-targets the
  // sensor's pushes, and updates the shard map's acting-owner index.
  void ApplyChain(int global_index, std::vector<int> chain);
  // Promotes every sensor currently served by the (down) proxy to the first live
  // holder on its chain. Fired `promotion_delay` after KillProxy.
  void PromoteShardsOf(int proxy_index);
  // Returns ownership of `proxy_index`'s home shard from the acting owners.
  void HandBackShardsOf(int proxy_index);
  // Executes one migration immediately (callers run inside simulator events).
  void ExecuteMigration(int global_index, int new_owner);
  void RebalanceSweep();
  // Moves sensor `g`'s lane to its acting owner's at the current barrier (control
  // context): timers re-bind cooperatively, pending network events hand over.
  void RebindSensorLane(int global_index, int acting);
  // Sets the epoch to the lookahead the live topology allows.
  void RetuneEpoch();

  DeploymentConfig config_;
  Simulator sim_;
  std::unique_ptr<ShardMap> shard_map_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<TemperatureField> field_;
  std::unique_ptr<UnifiedStore> store_;
  std::vector<std::unique_ptr<ProxyNode>> proxies_;
  std::vector<std::unique_ptr<SensorNode>> sensors_;  // proxy-major order

  // --- dynamic shard management state ---
  std::vector<char> proxy_down_;
  std::vector<EventHandle> pending_promotions_;  // per proxy, armed by KillProxy
  // True between KillProxy and its promotion event firing (or being cancelled): the
  // failure-detection window during which a revive-time rescue must NOT pre-empt the
  // scheduled promotion.
  std::vector<char> promotion_pending_;
  // Per-sensor ordered holder chains (acting owner first), mirrored into the unified
  // store on every mutation. The acting-owner indirection itself lives in the shard
  // map's incremental served-by index.
  std::vector<std::vector<int>> sensor_chain_;
  // Smoothed per-sensor window loads (global index; follows the sensor across
  // migrations) — the rebalancer's signal.
  std::vector<double> sensor_load_ema_;
  std::unique_ptr<PeriodicTimer> rebalance_timer_;
  ShardMgmtStats shard_stats_;

  // --- external query entry ---
  // In-flight external queries. The table is mutex-guarded because store
  // completions run in serving-proxy lanes (concurrently for different proxies);
  // each entry is only ever touched by its own query's events, and its slot never
  // moves while it is in flight — the UnifiedStore pattern. kDriver and kClient
  // entries serialize; kWait entries (host-side probes) block SaveCheckpoint while
  // in flight.
  struct ExternalQuery {
    enum class Origin : uint8_t {
      kDriver = 1,  // attached QueryDriver: tag = driver index, past = class
      kClient = 2,  // QueryAsync: tag = the query client's own tag
      kWait = 3,    // QueryAndWait: tag = WaitState — not checkpointable
    };
    friend constexpr bool CkptEnumValid(Origin v) {
      return v >= Origin::kDriver && v <= Origin::kWait;
    }
    enum WaitState : uint64_t { kWaiting = 0, kWaitDone = 1, kWaitAbandoned = 2 };
    Origin origin = Origin::kDriver;
    uint64_t tag = 0;
    bool past = false;  // kDriver: the request's PAST/NOW class
    UnifiedQueryResult result;

    template <class S, class F, CkptSelf<S, ExternalQuery> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.origin);
      f(v.tag);
      f(v.past);
      f(v.result);
    }
  };
  void QueryAsyncInternal(const QuerySpec& spec, ExternalQuery entry);
  // The "deploy" section's fields before its external-query table.
  template <class Self, class F>
  static void DeployFields(Self& self, F&& f) {
    f(self.proxy_down_);
    f(self.promotion_pending_);
    f(self.sensor_chain_);
    f(self.sensor_load_ema_);
    f(self.shard_stats_);
    f(*self.rebalance_timer_);
    f(self.next_external_id_);
  }
  ExternalQuery* FindExternal(uint64_t id);
  bool DriverAccountingHolds() const;
  std::mutex external_m_;
  StableIdMap<ExternalQuery> external_;
  uint64_t next_external_id_ = 1;
  // kWait entries key on their own tokens (top bit set), so host probes leave
  // next_external_id_, and with it the checkpoint bytes, untouched.
  uint64_t next_wait_token_ = uint64_t{1} << 63;
  DeploymentQueryClient* query_client_ = nullptr;
  // Declared after sim_ so drivers (which hold pending arrival events) die first.
  std::vector<std::unique_ptr<QueryDriver>> drivers_;
};

}  // namespace presto

#endif  // SRC_CORE_DEPLOYMENT_H_
