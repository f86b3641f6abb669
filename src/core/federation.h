// Multi-cell federation: the first layer *above* Deployment.
//
// A Federation owns N proxy cells (each a complete Deployment: simulator, tiered
// network, proxies, sensors, unified store) under one global sensor namespace, and
// routes queries between them:
//
//  - CellDirectory maps the federation-wide sensor index onto (cell, local index):
//    contiguous per-cell blocks, so a gateway resolves any sensor to its home cell
//    in O(1). Queries may enter at any cell; a query whose target lives elsewhere is
//    forwarded over an inter-cell trunk (CellLink: FIFO serialization at the
//    configured bandwidth plus propagation latency) and its answer rides the reverse
//    trunk home — both hops typed simulator events, never a host round-trip.
//
//  - FedCell is the per-cell half of that router: it owns the cell's outgoing trunk
//    row, its pending cross-cell query table (indexed by target cell, so whole-cell
//    kill/revive fails pending queries in O(pending-for-that-cell)), its attached
//    query drivers, and a FIFO outbox of FedMail — byte-serialized trunk messages
//    (the query spec rides the request, the full result rides the response). A
//    FedCell therefore needs *nothing* from any other cell at runtime: every
//    cross-cell interaction is a FedMail.
//
//  - All cells advance under one shared epoch-barrier schedule (FederationConfig::
//    epoch): Federation::RunUntil steps every cell through the same absolute grid.
//    Inter-cell traffic generated inside an epoch lands in per-source-cell FIFO
//    outboxes and is drained at the next federation barrier — delivery times clamp
//    to the barrier, exactly the rule the intra-cell lane mailboxes follow, so
//    inter-cell delivery granularity is the federation epoch.
//
//  - One orchestrator, direct or wire transport (src/core/cell_worker.h). The
//    Federation owns no Deployments: every cell lives in a worker's CellHost
//    (Deployment + FedCell pairs), and cell c belongs to worker c % num_workers.
//    The orchestrator reaches every worker through the same typed ops — start,
//    driver attach/start, step, inject, kill/revive, proxy ops, migrate, snapshot,
//    checkpoint save/load — so it has one mail drain (per-source FIFOs routed at
//    barriers), one step loop, one death path, one snapshot fold and one
//    checkpoint composer. What carries the calls is the only thing the modes
//    change:
//      * in-process (the default): one CellHost per cell, called directly — no
//        serialization. cell_threads > 1 runs the hosts' epochs concurrently on a
//        claim pool; safe without locks because every mutable structure belongs to
//        exactly one cell, and barrier-time work stays serial.
//      * cell_processes > 1 / cell_endpoints: each worker is a presto_cell process
//        (forked over shared frame rings, or dialled over TCP) and every op is one
//        versioned fed_wire frame (src/net/fed_wire.h) with one reply. Workers step
//        between the kStep request and its reply — process parallelism with the
//        same observables. A worker whose link fails is a deployment-visible
//        failure, not a hang: its cells are marked down everywhere (fail-fast,
//        like KillCell), its last folded stats freeze, and the run continues on
//        the survivors.
//
//  - Determinism: cells only interact through FedMail drained serially at barriers,
//    so per-cell event streams are independent of which host thread, how many, or
//    which *process* steps them. fingerprint() folds each cell's worker-count-
//    independent fingerprint (bound to its cell index) with a barrier-sequence hash
//    over drained mail, making the federation fingerprint bit-identical across
//    `sim_threads` worker counts, `cell_threads` counts, `cell_processes` counts,
//    and reruns — bench and federation_test self-check all of them.
//
// Query lifecycle (cross-cell): driver/host issues at origin O -> directory lookup
// at O's gateway -> spec serialized into a FedMail on the O->T trunk -> drained at
// a federation barrier -> executes in T via Deployment::QueryAsync (typed kQuery
// stages in the serving proxy's lane, completion on T's control lane) -> result
// serialized into a FedMail on the T->O trunk -> drained at a federation barrier ->
// finalized on O's control lane (latency measured on O's clock end to end).

#ifndef SRC_CORE_FEDERATION_H_
#define SRC_CORE_FEDERATION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/types.h"
#include "src/net/cell_link.h"
#include "src/net/fed_wire.h"
#include "src/sim/simulator.h"
#include "src/util/ckpt.h"
#include "src/util/id_map.h"
#include "src/workload/query_driver.h"

namespace presto {

// Federation kQuery payload.a op codes (payload.b carries the query id, and
// payload.bytes the serialized QuerySpec / UnifiedQueryResult). Shared by the
// outboxes, the wire frames, and the checkpoint — one mail format.
inline constexpr uint64_t kFedOpExecute = 1;   // request landed at the target cell
inline constexpr uint64_t kFedOpComplete = 2;  // response landed back at the origin

// Per-cell deployment seed derived from the federation seed: cells are
// statistically independent but the whole federation replays from one number.
inline uint64_t FederationCellSeed(uint64_t fed_seed, int cell) {
  return fed_seed ^ (0xfedc0de + 0x9e3779b9ull * static_cast<uint64_t>(cell));
}

// Global sensor namespace: federation index = cell * sensors_per_cell + local
// (contiguous per-cell blocks — the geographic analogue one layer up).
class CellDirectory {
 public:
  CellDirectory(int num_cells, int sensors_per_cell);

  int num_cells() const { return cell_count_; }
  int sensors_per_cell() const { return sensors_per_cell_; }
  int total_sensors() const { return cell_count_ * sensors_per_cell_; }

  int CellOf(int fed_index) const;
  int LocalOf(int fed_index) const;
  int FedIndexOf(int cell, int local) const;

 private:
  int cell_count_;
  int sensors_per_cell_;
};

// One socket-transport worker endpoint (numeric IPv4 + port).
struct FedEndpoint {
  std::string host;
  uint16_t port = 0;
};

struct FederationConfig {
  int num_cells = 2;
  // Per-cell template (proxies, sensors, replication, lane engine, ...). Each cell
  // gets a distinct seed derived from `seed`, so cells are statistically independent
  // but the whole federation replays from one number.
  DeploymentConfig cell;
  // Federation barrier grid: inter-cell delivery granularity (> 0). Each cell runs
  // exactly to every federation barrier, whatever its own lane epoch. An epoch no
  // longer than the trunk latency keeps the barrier clamp from binding, so
  // cross-cell completion times are faithful to trunk latency rather than
  // quantized to federation barrier multiples.
  Duration epoch = Seconds(1);
  // Host threads stepping cells concurrently within each federation epoch, clamped
  // to [1, num_cells]. 1 (the default) keeps sequential cell-index-order stepping.
  // Fingerprints and driver latency histograms are identical at every value — the
  // cell-parallel half of the federation determinism contract (see file header).
  int cell_threads = 1;
  // Worker *processes* hosting the cells, clamped to [1, num_cells]. 1 (the
  // default) keeps every cell in this process. > 1 forks that many presto_cell
  // workers and distributes cell c to worker c % cell_processes; every
  // orchestrator<->cell call then rides the fed_wire frame protocol (and cell()
  // is unavailable). Mutually exclusive with cell_threads > 1: processes already
  // step cells concurrently. Observables (fingerprint, histograms, stats,
  // checkpoint bytes) are bit-identical to in-process runs.
  int cell_processes = 1;
  // TCP socket transport (non-empty cell_endpoints): instead of forking, the
  // federation connects to one already-listening `presto_cell --listen` worker per
  // endpoint, places cell c on endpoint c % cell_endpoints.size() — the same
  // placement rule fork mode uses — and speaks the same fed_wire frames over TCP
  // after a versioned hello handshake. Mutually exclusive with cell_threads /
  // cell_processes > 1. Observables (fingerprint, histograms, stats, checkpoint
  // bytes) stay bit-identical to every other mode; a dead TCP peer surfaces as
  // the same contained cell failure as a SIGKILLed fork worker.
  std::vector<FedEndpoint> cell_endpoints;
  // Per-frame wall-clock deadline on socket channels (connect, handshake, and
  // every frame read/write). A worker that stops responding — SIGSTOP, network
  // black hole — degrades into a contained cell failure within this bound
  // instead of wedging the barrier loop. Fork-mode links stay fully blocking
  // (death there always arrives as EOF).
  Duration frame_deadline = Seconds(30);
  // Inter-cell trunk model (one directed CellLink per cell pair).
  CellLinkParams link;
  // Message sizes on the trunk: a query request, a response envelope, and each
  // returned sample (PAST answers pay for their payload).
  uint32_t query_bytes = 64;
  uint32_t response_base_bytes = 64;
  uint32_t response_sample_bytes = 16;
  uint64_t seed = 42;
};

// The kBootstrap payload: the fields a worker builds its cells from. The
// parallelism, endpoint and deadline fields belong to the orchestrator (the
// transport that delivers this list is not part of the simulated world), so
// every mode builds its cells from identical bytes.
template <class S, class F, CkptSelf<S, FederationConfig> = 0>
void CkptFields(S& v, F&& f) {
  f(v.num_cells);
  f(v.cell);
  f(v.epoch);
  f(v.link);
  f(v.query_bytes);
  f(v.response_base_bytes);
  f(v.response_sample_bytes);
  f(v.seed);
}

// Federation's construction rules for the fields a bootstrap carries, the cell
// template's included (InvalidArgument when broken).
Status Validate(const FederationConfig& config);

// A query against the federation's global namespace, entering at some origin cell.
struct FederationQuerySpec {
  QueryType type = QueryType::kNow;
  int fed_sensor = 0;  // federation-wide sensor index (CellDirectory namespace)
  TimeInterval range{};
  double tolerance = 0.5;
  Duration latency_bound = Seconds(30);
};

struct FederationQueryResult {
  UnifiedQueryResult cell;  // the serving cell's provenance-annotated answer
  int origin_cell = 0;
  int target_cell = 0;
  bool cross_cell = false;
  SimTime issued_at = 0;     // at the origin gateway
  SimTime completed_at = 0;  // response landed back at the origin

  Duration Latency() const { return completed_at - issued_at; }
};

// Field lists: specs ride kInject frames, results ride host_done folds and
// in-flight pending entries.
template <class S, class F, CkptSelf<S, FederationQuerySpec> = 0>
void CkptFields(S& v, F&& f) {
  f(v.type);
  f(v.fed_sensor);
  f(v.range);
  f(v.tolerance);
  f(v.latency_bound);
}

template <class S, class F, CkptSelf<S, FederationQueryResult> = 0>
void CkptFields(S& v, F&& f) {
  f(v.cell);
  f(v.origin_cell);
  f(v.target_cell);
  f(v.cross_cell);
  f(v.issued_at);
  f(v.completed_at);
}

struct FederationStats {
  uint64_t queries = 0;
  uint64_t local = 0;      // target cell == origin cell (no trunk hop)
  uint64_t forwarded = 0;  // routed over an inter-cell trunk
  uint64_t failed = 0;
  uint64_t barriers = 0;
  uint64_t mail_drained = 0;  // inter-cell messages delivered at barriers
  // Trunk messages dropped because their endpoint state died out from under them:
  // an execute arriving at a killed cell, a response for a query already failed
  // fast at its origin, or mail addressed to a crashed worker's cells. Never a
  // hang, never an abort — just counted.
  uint64_t orphans = 0;
};

// Inter-cell trunk totals, summed over every directed link (mode-independent).
struct FederationTrunkTotals {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

template <class S, class F, CkptSelf<S, FederationTrunkTotals> = 0>
void CkptFields(S& v, F&& f) {
  f(v.messages);
  f(v.bytes);
}

// The per-cell half of the federation router (see file header). One FedCell per
// cell, living in the CellHost that owns its Deployment. All methods run on the
// cell's serial control lane or in host control context between steps; nothing
// here locks.
class FedCell : public EventSink, public DeploymentQueryClient {
 public:
  // Completion target of a pending query: a serializable driver tag, or a
  // host-probe token (QueryAndWait — the result rides back to the orchestrator
  // in the next op's host_done list; never checkpointable in flight).
  enum class Origin : uint8_t { kDriver = 1, kHost = 2 };

  struct Pending {
    QuerySpec spec;  // target-cell-local spec
    FederationQueryResult result;
    Origin origin = Origin::kDriver;
    uint64_t driver_slot = 0;  // kDriver: index into this cell's drivers
    bool past = false;         // kDriver: query class for the recorded outcome
    uint64_t host_token = 0;   // kHost: orchestrator-side correlation token

    // Only kDriver entries cross a checkpoint, so the origin and the host token
    // are not listed.
    template <class S, class F, CkptSelf<S, Pending> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.spec);
      f(v.result);
      f(v.driver_slot);
      f(v.past);
    }
  };

  struct HostDone {
    uint64_t token = 0;
    FederationQueryResult result;

    template <class S, class F, CkptSelf<S, HostDone> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.token);
      f(v.result);
    }
  };

  // Per-origin-cell bookkeeping, written only from this cell's serial control lane
  // (or host control context between steps).
  struct Counters {
    uint64_t next_qid = 0;
    uint64_t queries = 0;
    uint64_t local = 0;
    uint64_t forwarded = 0;
    uint64_t failed = 0;
    uint64_t orphans = 0;

    template <class S, class F, CkptSelf<S, Counters> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.next_qid);
      f(v.queries);
      f(v.local);
      f(v.forwarded);
      f(v.failed);
      f(v.orphans);
    }
  };

  // Registers as a sink on (and federation client of) `cell`'s simulator — call
  // in cell-index order so sink ids match across modes. `config` and `cell` must
  // outlive the FedCell.
  FedCell(int index, const FederationConfig* config, Deployment* cell);

  FedCell(const FedCell&) = delete;
  FedCell& operator=(const FedCell&) = delete;

  int index() const { return index_; }

  // Issues a query entering at this cell. A query whose target cell is marked down
  // fails fast at this gateway (zero added latency, no trunk hop); otherwise it
  // executes locally or rides the trunk as FedMail.
  void Issue(const FederationQuerySpec& spec, Pending q);

  // Attaches an open-loop in-sim driver issuing at this gateway; returns its slot.
  int AttachDriver(const QueryDriverParams& params);
  void StartDriver(int slot, Duration duration);
  QueryDriver& driver(int slot) { return *drivers_[static_cast<size_t>(slot)]; }
  int num_drivers() const { return static_cast<int>(drivers_.size()); }

  // Down-cell bookkeeping. SetCellDown flips the routing flag only; the caller
  // pairs it with FailPendingToward (kill) so every pending query toward the dead
  // cell finalizes immediately (ascending qid order — deterministic), instead of
  // waiting for a response that will never come.
  void SetCellDown(int cell_index, bool down);
  void FailPendingToward(int cell_index);
  // Checkpoint restore: flags only, no pending sweep.
  void RestoreCellDown(const std::vector<uint8_t>& flags);

  // Barrier-time mail delivery: schedules the typed kQuery event on this cell's
  // control lane at max(mail.time, barrier) — the barrier clamp.
  void DeliverMail(FedMail mail, SimTime barrier);
  std::vector<FedMail> TakeOutbox();
  std::vector<HostDone> TakeHostDone();

  const Counters& counters() const { return counters_; }
  FederationTrunkTotals TrunkTotals() const;
  // Per attached driver: issued = completed (failures included) + kDriver entries
  // still pending here. Host context between steps.
  bool DriverAccountingHolds() const;

  void OnSimEvent(EventKind kind, EventPayload& payload) override;
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override {
    // Mail events carry everything in their payload; nothing to re-capture.
    (void)t, (void)kind, (void)payload, (void)handle, (void)lane;
  }

  // DeploymentQueryClient: a tagged deployment query completed at this cell (runs
  // on this cell's control lane). Local queries finalize here; cross-cell answers
  // ride the trunk home as FedMail.
  void OnDeploymentQueryDone(uint64_t qid, UnifiedQueryResult&& result) override;

  // Checkpoint codec for the "cell<i>/fed" section: counters, outgoing trunk row,
  // pending table (ascending qid; driver-form only — host-probe entries cannot
  // cross a checkpoint), and attached driver state. The outbox is *not* here:
  // undrained mail belongs to the orchestrator's "fed" section, which is what
  // makes checkpoints byte-identical whatever the worker layout.
  Status SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  int OriginOf(uint64_t qid) const {
    return static_cast<int>(qid % static_cast<uint64_t>(config_->num_cells));
  }
  void ExecuteLocal(uint64_t qid);
  void FinalizeEntry(uint64_t qid, UnifiedQueryResult&& result);
  // Stamps completed_at, counts a failure, and dispatches to the completion
  // target. `q` is already detached from the pending table (or never entered it —
  // the fail-fast path).
  void Complete(Pending q);

  int index_;
  const FederationConfig* config_;
  CellDirectory directory_;  // derived from *config_: pure routing math
  Deployment* cell_;
  Counters counters_;
  // Pending cross-cell queries issued *at this cell*, by qid (single-writer: this
  // cell's control lane). Walks that must be deterministic (checkpoints, the kill
  // sweep) go in ascending qid order.
  StableIdMap<Pending> pending_;
  std::vector<std::unique_ptr<CellLink>> links_out_;  // [dst], nullptr diagonal
  std::vector<FedMail> outbox_;                       // FIFO, drained at barriers
  std::vector<uint8_t> cell_down_;                    // routing view, all cells
  std::vector<HostDone> host_done_;                   // kHost completions
  // Declared after cell_ wiring so drivers (holding pending arrival events) are
  // destroyed before their simulator.
  std::vector<std::unique_ptr<QueryDriver>> drivers_;
};


// One cell's folded telemetry, marshalled over kSnapshot frames: everything the
// orchestrator's read-side facade (stats / fingerprint / EventsExecuted /
// TrunkTotals / DriverStats) needs without touching the cell.
struct FedCellSnapshot {
  uint64_t sim_fingerprint = 0;
  uint64_t events = 0;
  FedCell::Counters counters;
  FederationTrunkTotals trunks;
  std::vector<QueryDriverStats> drivers;
};

template <class S, class F, CkptSelf<S, FedCellSnapshot> = 0>
void CkptFields(S& v, F&& f) {
  f(v.sim_fingerprint);
  f(v.events);
  f(v.counters);
  f(v.trunks);
  f(v.drivers);
}

// What a worker op (or epoch) hands back: the FedMail its cells generated plus
// any host-probe completions. Over the wire this is the control-reply payload:
// every control frame (kStart through kMigrateSensor, including kStep and
// kInject) replies with one, so the orchestrator's mail routing never waits an
// extra barrier.
struct CellOutput {
  std::vector<FedMail> mail;
  std::vector<FedCell::HostDone> host_done;
};

std::vector<uint8_t> EncodeFedControlReply(
    const std::vector<FedMail>& mail, const std::vector<FedCell::HostDone>& host_done);
Status DecodeFedControlReply(span<const uint8_t> payload, std::vector<FedMail>* mail,
                             std::vector<FedCell::HostDone>* host_done);

class CellTransport;
class ClaimPool;
struct CellControl;

class Federation {
 public:
  explicit Federation(const FederationConfig& config);
  ~Federation();

  // Starts every cell. Call once, then RunUntil.
  void Start();

  // Advances every cell through the shared barrier grid to `t`. Workers step
  // their cells concurrently between barriers (in-process hosts on the
  // cell_threads pool, worker processes on their own); mail drain and everything
  // else at the barrier stays serial.
  void RunUntil(SimTime t);

  // Effective parallelism (config clamped to the cell count).
  int cell_threads() const { return cell_threads_; }
  int cell_processes() const { return cell_processes_; }
  bool socket_mode() const { return socket_mode_; }
  bool process_mode() const { return cell_processes_ > 1 || socket_mode_; }

  SimTime Now() const { return now_; }
  int num_cells() const { return config_.num_cells; }
  const CellDirectory& directory() const { return directory_; }
  const FederationConfig& config() const { return config_; }

  // The cell's Deployment, for read-side inspection of in-process runs
  // (PRESTO_CHECK in process mode: the cell lives in another process). Mutate
  // through the facade below so every mode behaves alike.
  Deployment& cell(int index);

  // --- the facade: one body per op, whatever the transport ---
  // Attaches an open-loop in-sim query driver whose queries enter at `origin_cell`
  // and target the whole federation namespace (mix.num_sensors <= 0 defaults to
  // directory().total_sensors()); returns a federation-wide driver index. Call
  // before Start()/RunUntil in the same order on save and restore sides.
  int AttachDriver(int origin_cell, const QueryDriverParams& params);
  void StartDriver(int driver_index, Duration duration);
  // Stats snapshot by value (a crashed worker's drivers freeze at their last
  // folded values).
  QueryDriverStats DriverStats(int driver_index) const;
  int num_drivers() const { return static_cast<int>(driver_map_.size()); }

  // Issues and runs the federation until the answer arrives (or `max_wait`
  // passes). The probe rides a kInject op to the origin cell's worker and its
  // result returns in that op's (or a later step's) host_done fold.
  FederationQueryResult QueryAndWait(int origin_cell, const FederationQuerySpec& spec,
                                     Duration max_wait = Minutes(30));

  // Failure injection at cell granularity: marks the cell down at every gateway
  // (new queries toward it fail fast at their origin; pending ones finalize as
  // failures immediately) and kills (revives) every proxy in the cell.
  void KillCell(int cell_index);
  void ReviveCell(int cell_index);

  // Per-proxy topology mutations addressed by cell.
  void KillProxyInCell(int cell_index, int proxy_index);
  void ReviveProxyInCell(int cell_index, int proxy_index);
  void MigrateSensorInCell(int cell_index, int global_index, int new_owner);

  // Total simulator events executed across cells (bench throughput metric).
  uint64_t EventsExecuted() const;
  FederationTrunkTotals TrunkTotals() const;

  // Aggregated over the per-cell counter blocks plus the orchestrator's barrier
  // and orphan counters; call from host control context (between RunUntil calls).
  FederationStats stats() const;

  // Order-independent fold of the per-cell fingerprints (each bound to its cell
  // index) plus the federation barrier-sequence hash. Equal across reruns, worker
  // counts, and process counts — the federation-level replay contract. A crashed
  // worker contributes its cells' last folded fingerprints plus a death marker in
  // the barrier hash.
  uint64_t fingerprint() const;

  // One cell's simulator fingerprint (mode-independent; chaos tests compare
  // *survivor* cells between a worker-kill run and a KillCell reference run,
  // where the global fingerprint legitimately differs by death markers).
  uint64_t CellFingerprint(int cell_index) const;

  // Live migration (socket mode): checkpoints the whole federation, shuts the
  // worker's old channel down, connects/handshakes/bootstraps `endpoint`, and
  // restores worker w exactly as a fork-mode restore would — its own cells'
  // sections of that checkpoint, over a different fd. Requires every worker alive and no
  // probe in flight (SaveCheckpoint's contract). On a dead endpoint the worker
  // is marked dead (contained cell failure) and the error returned.
  Status MigrateWorkerEndpoint(int w, const FedEndpoint& endpoint);

  // --- worker table (one per cell in-process; one per process or endpoint
  // otherwise) ---
  int num_workers() const { return static_cast<int>(workers_.size()); }
  bool worker_alive(int w) const { return workers_[static_cast<size_t>(w)].alive; }
  // The forked worker's pid; -1 for in-process hosts, TCP peers and dead workers.
  int worker_pid(int w) const;

  // Composes every cell's checkpoint (sections prefixed "cell<i>/", including the
  // per-cell federation router state "cell<i>/fed") plus one "fed" section holding
  // only orchestrator state: federation clock, barrier hash, barrier and orphan
  // counters, cell-down flags, and the undrained FedMail. The container is
  // byte-identical whatever the transport — a checkpoint taken from any mode
  // restores into any mode (the live-migration primitive; process-mode workers
  // bootstrap from exactly this format). Call only between RunUntil calls; fails
  // if a probe query (QueryAndWait) is in flight or a worker has crashed.
  Status SaveCheckpoint(Checkpoint* out) const;

  // Inverse of SaveCheckpoint, into a freshly constructed federation with the same
  // FederationConfig (cell_threads / cell_processes may differ) and the same
  // AttachDriver calls, after Start(). Router state restores before each cell's
  // simulator, so restored events re-announce into fully rebuilt tables. Every
  // worker is handed its cells before any reply is awaited (a wire worker gets
  // only its own cells' sections), so worker processes load concurrently.
  Status LoadCheckpoint(const Checkpoint& ckpt);

 private:
  struct Worker {
    std::unique_ptr<CellTransport> transport;
    std::vector<int> cells;  // global cell indices, ascending
    bool alive = false;
    // StepWorkers' per-epoch state, kept here so stepping allocates nothing.
    std::vector<FedMail> deliver;  // drained mail for the next PostStep
    bool posted = false;
    Status stepped;
    CellOutput output;
  };

  int WorkerOf(int cell_index) const { return cell_index % num_workers(); }
  // Re-attaches every driver whose origin cell worker w hosts (migration replay;
  // slots must match the original attachment order).
  Status ReplayDriverAttachments(int w);
  // Runs one control op on worker w and routes its output. Any failure marks
  // the worker dead; returns whether the op ran.
  bool Control(int w, const CellControl& op);
  // Control on every live worker, then FlushDeadCellKills.
  void Broadcast(const CellControl& op);
  // Control on the worker hosting op.cell (which must be alive).
  void MutateCell(const CellControl& op);
  // Routes (and empties) an op's output: mail into route_, probe results into
  // host_results_.
  void Absorb(CellOutput* out);
  void StepWorkers(SimTime end, bool on_grid);
  // The one death path. Local bookkeeping only (close + reap + mark cells down +
  // drop routed mail): never sends frames, so it is safe while sibling step
  // replies are still outstanding. The survivor-facing kKillCell broadcast is
  // deferred into kills_pending_ and flushed once no reply is pending.
  void MarkWorkerDead(int w);
  void FlushDeadCellKills();
  void RefreshSnapshots() const;
  // The "fed" section's scalars, in wire order (the cell-down bitmap and the
  // undrained mail follow them).
  template <class Self, class F>
  static void OrchestratorFields(Self& self, F&& f) {
    f(self.now_);
    f(self.barrier_hash_);
    f(self.barriers_);
    f(self.mail_drained_);
    f(self.orphans_);
  }

  FederationConfig config_;
  CellDirectory directory_;
  int cell_threads_ = 1;
  int cell_processes_ = 1;
  bool socket_mode_ = false;

  std::vector<Worker> workers_;      // cell c lives in workers_[c % size]
  std::unique_ptr<ClaimPool> pool_;  // runs the workers' epochs (cell_threads)

  // Undrained inter-cell mail, per source cell FIFO.
  std::vector<std::vector<FedMail>> route_;
  uint64_t next_host_token_ = 0;
  std::unordered_map<uint64_t, FederationQueryResult> host_results_;
  std::vector<int> kills_pending_;
  mutable std::vector<FedCellSnapshot> snaps_;  // [cell], refreshed lazily
  mutable bool snaps_fresh_ = false;

  std::vector<uint8_t> cell_down_;  // the orchestrator's routing view
  // Global driver index -> (origin cell, per-cell slot).
  std::vector<std::pair<int, int>> driver_map_;
  // The raw params of each AttachDriver call, in driver-index order — replayed
  // verbatim when a migrated worker re-bootstraps (slots must come out equal).
  std::vector<QueryDriverParams> driver_params_;

  SimTime now_ = 0;
  uint64_t barrier_hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  uint64_t barriers_ = 0;
  uint64_t mail_drained_ = 0;  // inter-cell messages delivered at barriers
  // Mail dropped at the barrier: from a downed source cell, or toward a crashed
  // worker's cells. Checkpointed in the "fed" section.
  uint64_t orphans_ = 0;
};

}  // namespace presto

#endif  // SRC_CORE_FEDERATION_H_
