#include "src/core/federation.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/util/assert.h"
#include "src/util/claim_pool.h"
#include "src/util/hash.h"

namespace presto {
namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

// Folded into the barrier hash (with the cell index) when a worker dies: a crash
// is part of the run's observable history, exactly like a drained barrier.
constexpr uint64_t kWorkerDeathMark = 0xdeadc377ull;

}  // namespace

FedEndpoint MakeFedEndpoint(const char* host, uint16_t port) {
  FedEndpoint out;
  PRESTO_CHECK_MSG(std::strlen(host) < sizeof(out.host),
                   "endpoint host string too long");
  std::strncpy(out.host, host, sizeof(out.host) - 1);
  out.port = port;
  return out;
}

CellDirectory::CellDirectory(int num_cells, int sensors_per_cell)
    : cell_count_(num_cells), sensors_per_cell_(sensors_per_cell) {
  PRESTO_CHECK(cell_count_ >= 1);
  PRESTO_CHECK(sensors_per_cell_ >= 1);
}

int CellDirectory::CellOf(int fed_index) const {
  PRESTO_CHECK(fed_index >= 0 && fed_index < total_sensors());
  return fed_index / sensors_per_cell_;
}

int CellDirectory::LocalOf(int fed_index) const {
  PRESTO_CHECK(fed_index >= 0 && fed_index < total_sensors());
  return fed_index % sensors_per_cell_;
}

int CellDirectory::FedIndexOf(int cell, int local) const {
  PRESTO_CHECK(cell >= 0 && cell < cell_count_);
  PRESTO_CHECK(local >= 0 && local < sensors_per_cell_);
  return cell * sensors_per_cell_ + local;
}

// ---------------------------------------------------------------------------
// Seam codecs.
// ---------------------------------------------------------------------------

void CkptWrite(ByteWriter& w, const FederationQuerySpec& v) {
  CkptWrite(w, v.type);
  CkptWrite(w, v.fed_sensor);
  CkptWrite(w, v.range);
  CkptWrite(w, v.tolerance);
  CkptWrite(w, v.latency_bound);
}

Status CkptRead(ByteReader& r, FederationQuerySpec& v) {
  CKPT_READ(r, v.type);
  if (static_cast<uint8_t>(v.type) > static_cast<uint8_t>(QueryType::kPast)) {
    return DataLossError("federation query spec: type out of range");
  }
  CKPT_READ(r, v.fed_sensor);
  CKPT_READ(r, v.range);
  CKPT_READ(r, v.tolerance);
  CKPT_READ(r, v.latency_bound);
  return OkStatus();
}

void CkptWrite(ByteWriter& w, const FederationQueryResult& v) {
  CkptWrite(w, v.cell);
  CkptWrite(w, v.origin_cell);
  CkptWrite(w, v.target_cell);
  CkptWrite(w, v.cross_cell);
  CkptWrite(w, v.issued_at);
  CkptWrite(w, v.completed_at);
}

Status CkptRead(ByteReader& r, FederationQueryResult& v) {
  CKPT_READ(r, v.cell);
  CKPT_READ(r, v.origin_cell);
  CKPT_READ(r, v.target_cell);
  CKPT_READ(r, v.cross_cell);
  CKPT_READ(r, v.issued_at);
  CKPT_READ(r, v.completed_at);
  return OkStatus();
}

void CkptWrite(ByteWriter& w, const FederationTrunkTotals& v) {
  CkptWrite(w, v.messages);
  CkptWrite(w, v.bytes);
}

Status CkptRead(ByteReader& r, FederationTrunkTotals& v) {
  CKPT_READ(r, v.messages);
  CKPT_READ(r, v.bytes);
  return OkStatus();
}

void CkptWrite(ByteWriter& w, const FedCell::Counters& v) {
  CkptWrite(w, v.next_qid);
  CkptWrite(w, v.queries);
  CkptWrite(w, v.local);
  CkptWrite(w, v.forwarded);
  CkptWrite(w, v.failed);
  CkptWrite(w, v.orphans);
}

Status CkptRead(ByteReader& r, FedCell::Counters& v) {
  CKPT_READ(r, v.next_qid);
  CKPT_READ(r, v.queries);
  CKPT_READ(r, v.local);
  CKPT_READ(r, v.forwarded);
  CKPT_READ(r, v.failed);
  CKPT_READ(r, v.orphans);
  return OkStatus();
}

void CkptWrite(ByteWriter& w, const FedCellSnapshot& v) {
  CkptWrite(w, v.sim_fingerprint);
  CkptWrite(w, v.events);
  CkptWrite(w, v.counters);
  CkptWrite(w, v.trunks);
  CkptWrite(w, v.drivers);
}

Status CkptRead(ByteReader& r, FedCellSnapshot& v) {
  CKPT_READ(r, v.sim_fingerprint);
  CKPT_READ(r, v.events);
  CKPT_READ(r, v.counters);
  CKPT_READ(r, v.trunks);
  CKPT_READ(r, v.drivers);
  return OkStatus();
}

std::vector<uint8_t> EncodeFedControlReply(
    const std::vector<FedMail>& mail,
    const std::vector<FedCell::HostDone>& host_done) {
  ByteWriter w;
  CkptWrite(w, mail);
  w.WriteVarU64(host_done.size());
  for (const FedCell::HostDone& d : host_done) {
    CkptWrite(w, d.token);
    CkptWrite(w, d.result);
  }
  return w.TakeBuffer();
}

Status DecodeFedControlReply(span<const uint8_t> payload, std::vector<FedMail>* mail,
                             std::vector<FedCell::HostDone>* host_done) {
  ByteReader r{payload};
  CKPT_READ(r, *mail);
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("fed control reply: count exceeds payload bytes");
  }
  host_done->clear();
  for (uint64_t i = 0; i < *count; ++i) {
    FedCell::HostDone d;
    CKPT_READ(r, d.token);
    CKPT_READ(r, d.result);
    host_done->push_back(std::move(d));
  }
  if (r.remaining() != 0) {
    return DataLossError("fed control reply: trailing bytes");
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// FedCell: the per-cell half of the router.
// ---------------------------------------------------------------------------

FedCell::FedCell(int index, const FederationConfig* config, Deployment* cell)
    : index_(index),
      config_(config),
      directory_(config->num_cells,
                 config->cell.num_proxies * config->cell.sensors_per_proxy),
      cell_(cell) {
  PRESTO_CHECK(cell_ != nullptr);
  PRESTO_CHECK(index_ >= 0 && index_ < config_->num_cells);
  by_target_.resize(static_cast<size_t>(config_->num_cells));
  cell_down_.assign(static_cast<size_t>(config_->num_cells), 0);
  links_out_.reserve(static_cast<size_t>(config_->num_cells));
  for (int d = 0; d < config_->num_cells; ++d) {
    links_out_.push_back(d == index_ ? nullptr
                                     : std::make_unique<CellLink>(config_->link));
  }
  // Tagged cross-cell queries complete through OnDeploymentQueryDone, and the
  // router is a sink on the cell simulator (mail-delivery events), so both
  // survive checkpoints. The caller constructs FedCells in cell-index order, so
  // sink ids match across modes.
  cell_->SetFederationClient(this);
  cell_->sim().RegisterSink(this);
}

void FedCell::Issue(const FederationQuerySpec& spec, Pending q) {
  // Runs on this cell's control lane (driver arrivals, mail) or host control
  // context between steps: the counter block is single-writer either way, so qid
  // allocation (qid ≡ index_ mod num_cells) needs no cross-cell coordination —
  // and is deterministic, unlike a shared counter under cell-parallel stepping.
  const int target = directory_.CellOf(spec.fed_sensor);
  const int local = directory_.LocalOf(spec.fed_sensor);
  ++counters_.queries;
  const uint64_t qid =
      ++counters_.next_qid * static_cast<uint64_t>(config_->num_cells) +
      static_cast<uint64_t>(index_);
  const int spp = config_->cell.sensors_per_proxy;
  q.spec.type = spec.type;
  q.spec.sensor_id = Deployment::SensorId(local / spp, local % spp);
  q.spec.range = spec.range;
  q.spec.tolerance = spec.tolerance;
  q.spec.latency_bound = spec.latency_bound;
  q.result.origin_cell = index_;
  q.result.target_cell = target;
  q.result.cross_cell = target != index_;
  q.result.issued_at = cell_->sim().Now();
  if (cell_down_[static_cast<size_t>(target)]) {
    // Fail fast at this gateway: zero added latency, no trunk hop, no pending
    // entry — the directory knows the cell is down, so the query never leaves.
    q.result.cell = UnifiedQueryResult{};
    q.result.cell.answer.status =
        UnavailableError("federation: target cell is down");
    Complete(std::move(q));
    return;
  }
  by_target_[static_cast<size_t>(target)].insert(qid);
  if (target == index_) {
    ++counters_.local;
    pending_.emplace(qid, std::move(q));
    ExecuteLocal(qid);  // no trunk hop: straight into the local store
    return;
  }
  ++counters_.forwarded;
  // This origin->target trunk is driven only by this cell's control lane, so its
  // serialization clock stays single-writer and monotone under parallel stepping.
  const SimTime at = links_out_[static_cast<size_t>(target)]->Deliver(
      q.result.issued_at, config_->query_bytes);
  ByteWriter body;
  CkptWrite(body, q.spec);
  pending_.emplace(qid, std::move(q));
  outbox_.push_back(
      FedMail{index_, target, at, kFedOpExecute, qid, body.TakeBuffer()});
}

void FedCell::ExecuteLocal(uint64_t qid) {
  auto it = pending_.find(qid);
  PRESTO_CHECK(it != pending_.end());
  // Copy: QueryAsyncFederated may complete synchronously and erase the entry.
  const QuerySpec spec = it->second.spec;
  cell_->QueryAsyncFederated(spec, qid);
}

void FedCell::OnSimEvent(EventKind kind, EventPayload& payload) {
  PRESTO_CHECK(kind == EventKind::kQuery);
  switch (payload.a) {
    case kFedOpExecute: {
      if (cell_down_[static_cast<size_t>(index_)]) {
        // Mail raced a kill: the origin already failed (or will fail) this query
        // in its own kill sweep. Dropping here keeps a dead cell silent.
        ++counters_.orphans;
        return;
      }
      QuerySpec spec;
      ByteReader r{span<const uint8_t>(payload.bytes)};
      const Status s = CkptRead(r, spec);
      PRESTO_CHECK_MSG(s.ok() && r.remaining() == 0,
                       "federation: bad execute mail body");
      // Tagged (not closure) form: the deployment carries the fed qid through its
      // own checkpointable pending table and calls OnDeploymentQueryDone when the
      // store answers.
      cell_->QueryAsyncFederated(spec, payload.b);
      return;
    }
    case kFedOpComplete: {
      if (pending_.find(payload.b) == pending_.end()) {
        // A response for a query this origin already failed fast at kill time.
        ++counters_.orphans;
        return;
      }
      UnifiedQueryResult result;
      ByteReader r{span<const uint8_t>(payload.bytes)};
      const Status s = CkptRead(r, result);
      PRESTO_CHECK_MSG(s.ok() && r.remaining() == 0,
                       "federation: bad complete mail body");
      FinalizeEntry(payload.b, std::move(result));
      return;
    }
    default:
      PRESTO_CHECK_MSG(false, "unknown federation op");
  }
}

void FedCell::OnDeploymentQueryDone(uint64_t qid, UnifiedQueryResult&& result) {
  // Runs on this cell's control lane (QueryAsync marshals completions there).
  const int origin = OriginOf(qid);
  if (origin == index_) {
    if (pending_.find(qid) == pending_.end()) {
      ++counters_.orphans;  // completed after a kill sweep already failed it
      return;
    }
    FinalizeEntry(qid, std::move(result));
    return;
  }
  // Cross-cell: the answer rides the target->origin trunk home as FedMail (PAST
  // answers pay for their sample payload).
  const size_t bytes = config_->response_base_bytes +
                       result.answer.samples.size() *
                           static_cast<size_t>(config_->response_sample_bytes);
  const SimTime at =
      links_out_[static_cast<size_t>(origin)]->Deliver(cell_->sim().Now(), bytes);
  ByteWriter body;
  CkptWrite(body, result);
  outbox_.push_back(
      FedMail{index_, origin, at, kFedOpComplete, qid, body.TakeBuffer()});
}

void FedCell::FinalizeEntry(uint64_t qid, UnifiedQueryResult&& result) {
  auto it = pending_.find(qid);
  PRESTO_CHECK(it != pending_.end());
  Pending q = std::move(it->second);
  by_target_[static_cast<size_t>(q.result.target_cell)].erase(qid);
  pending_.erase(it);
  q.result.cell = std::move(result);
  Complete(std::move(q));
}

void FedCell::Complete(Pending q) {
  q.result.completed_at = cell_->sim().Now();
  if (!q.result.cell.answer.status.ok()) {
    ++counters_.failed;
  }
  switch (q.origin) {
    case Origin::kDriver: {
      // The gateway's clock, not the serving cell's: federation latency spans
      // both trunk hops. source_cell is the cell whose sensors paid any energy.
      QueryOutcome outcome = OutcomeFromResult(q.result.cell);
      outcome.issued_at = q.result.issued_at;
      outcome.completed_at = q.result.completed_at;
      outcome.cross_cell = q.result.cross_cell;
      outcome.past = q.past;
      outcome.source_cell = q.result.target_cell;
      PRESTO_CHECK(q.driver_slot < drivers_.size());
      drivers_[static_cast<size_t>(q.driver_slot)]->RecordOutcome(outcome);
      return;
    }
    case Origin::kHost:
      host_done_.push_back(HostDone{q.host_token, std::move(q.result)});
      return;
  }
}

int FedCell::AttachDriver(const QueryDriverParams& params) {
  QueryDriverParams p = params;
  if (p.mix.num_sensors <= 0) {
    p.mix.num_sensors = directory_.total_sensors();
  }
  PRESTO_CHECK_MSG(p.mix.num_sensors <= directory_.total_sensors(),
                   "driver namespace exceeds the federation population");
  // The pending entry carries this driver's slot, so in-flight driver queries
  // survive a checkpoint. Complete records the outcome through the slot.
  const uint64_t slot = drivers_.size();
  auto issue = [this, slot](const QueryRequest& request) {
    FederationQuerySpec fspec;
    fspec.fed_sensor = request.sensor;
    fspec.tolerance = request.tolerance;
    fspec.latency_bound = request.latency_bound;
    if (request.past) {
      fspec.type = QueryType::kPast;
      fspec.range = PastRangeOf(request, cell_->sim().Now());
    }
    Pending q;
    q.origin = Origin::kDriver;
    q.driver_slot = slot;
    q.past = request.past;
    Issue(fspec, std::move(q));
  };
  drivers_.push_back(
      std::make_unique<QueryDriver>(&cell_->sim(), p, std::move(issue)));
  return static_cast<int>(slot);
}

void FedCell::StartDriver(int slot, Duration duration) {
  PRESTO_CHECK(slot >= 0 && slot < num_drivers());
  drivers_[static_cast<size_t>(slot)]->Start(duration);
}

void FedCell::SetCellDown(int cell_index, bool down) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_->num_cells);
  cell_down_[static_cast<size_t>(cell_index)] = down ? 1 : 0;
}

void FedCell::FailPendingToward(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_->num_cells);
  std::set<uint64_t> victims;
  victims.swap(by_target_[static_cast<size_t>(cell_index)]);
  for (const uint64_t qid : victims) {  // ascending qid: deterministic order
    auto it = pending_.find(qid);
    PRESTO_CHECK(it != pending_.end());
    Pending q = std::move(it->second);
    pending_.erase(it);
    q.result.cell = UnifiedQueryResult{};
    q.result.cell.answer.status =
        UnavailableError("federation: target cell was killed");
    Complete(std::move(q));
  }
}

void FedCell::RestoreCellDown(const std::vector<uint8_t>& flags) {
  PRESTO_CHECK(flags.size() == cell_down_.size());
  cell_down_ = flags;
}

void FedCell::DeliverMail(FedMail mail, SimTime barrier) {
  PRESTO_CHECK(mail.target_cell == index_);
  EventPayload payload;
  payload.a = mail.op;
  payload.b = mail.qid;
  payload.bytes = std::move(mail.body);
  // Delivery clamps to this barrier: inter-cell granularity is the federation
  // epoch (trunk latency below it is only faithful modulo the clamp).
  cell_->sim().ScheduleEventAt(std::max(mail.time, barrier), EventKind::kQuery,
                               this, std::move(payload), Simulator::kLaneControl);
}

std::vector<FedMail> FedCell::TakeOutbox() {
  return std::exchange(outbox_, {});
}

std::vector<FedCell::HostDone> FedCell::TakeHostDone() {
  return std::exchange(host_done_, {});
}

bool FedCell::DriverAccountingHolds() const {
  std::vector<uint64_t> in_flight(drivers_.size(), 0);
  for (const auto& [qid, q] : pending_) {
    if (q.origin == Origin::kDriver) {
      ++in_flight[static_cast<size_t>(q.driver_slot)];
    }
  }
  return QueryDriver::Balanced(drivers_, in_flight);
}

FederationTrunkTotals FedCell::TrunkTotals() const {
  FederationTrunkTotals total;
  for (const auto& link : links_out_) {
    if (link == nullptr) {
      continue;
    }
    total.messages += link->stats().messages;
    total.bytes += link->stats().bytes;
  }
  return total;
}

Status FedCell::SaveState(ByteWriter& w) const {
  CkptWrite(w, counters_);
  for (const auto& link : links_out_) {
    if (link != nullptr) {
      link->SaveState(w);
    }
  }
  // qid-sorted walk: the serialized bytes must not depend on hash layout.
  std::vector<uint64_t> qids;
  qids.reserve(pending_.size());
  for (const auto& [qid, q] : pending_) {
    qids.push_back(qid);
  }
  std::sort(qids.begin(), qids.end());
  w.WriteVarU64(qids.size());
  for (const uint64_t qid : qids) {
    const Pending& q = pending_.at(qid);
    if (q.origin != Origin::kDriver) {
      return FailedPreconditionError(
          "federation checkpoint: host probe in flight (QueryAndWait)");
    }
    CkptWrite(w, qid);
    CkptWrite(w, q.spec);
    CkptWrite(w, q.result);
    CkptWrite(w, q.driver_slot);
    CkptWrite(w, q.past);
  }
  w.WriteVarU64(drivers_.size());
  for (const auto& driver : drivers_) {
    PRESTO_RETURN_IF_ERROR(driver->SaveState(w));
  }
  return OkStatus();
}

Status FedCell::LoadState(ByteReader& r) {
  CKPT_READ(r, counters_);
  for (auto& link : links_out_) {
    if (link != nullptr) {
      PRESTO_RETURN_IF_ERROR(link->LoadState(r));
    }
  }
  pending_.clear();
  for (auto& targets : by_target_) {
    targets.clear();
  }
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("federation restore: pending count exceeds section bytes");
  }
  for (uint64_t i = 0; i < *count; ++i) {
    uint64_t qid = 0;
    CKPT_READ(r, qid);
    Pending q;
    q.origin = Origin::kDriver;  // the only origin that can cross a checkpoint
    CKPT_READ(r, q.spec);
    CKPT_READ(r, q.result);
    CKPT_READ(r, q.driver_slot);
    CKPT_READ(r, q.past);
    if (OriginOf(qid) != index_ || q.result.origin_cell != index_) {
      return DataLossError("federation restore: pending query origin mismatch");
    }
    if (q.result.target_cell < 0 || q.result.target_cell >= config_->num_cells) {
      return DataLossError("federation restore: pending query cell out of range");
    }
    if (q.driver_slot >= drivers_.size()) {
      return FailedPreconditionError(
          "federation restore: attach the same drivers before restoring");
    }
    by_target_[static_cast<size_t>(q.result.target_cell)].insert(qid);
    pending_.emplace(qid, std::move(q));
  }
  auto driver_count = r.ReadVarU64();
  if (!driver_count.ok()) {
    return driver_count.status();
  }
  if (*driver_count != drivers_.size()) {
    return FailedPreconditionError(
        "federation restore: attach the same drivers before restoring");
  }
  for (const auto& driver : drivers_) {
    PRESTO_RETURN_IF_ERROR(driver->LoadState(r));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Federation: construction and the shared barrier schedule.
// ---------------------------------------------------------------------------

Federation::Federation(const FederationConfig& config)
    : config_(config),
      directory_(config.num_cells,
                 config.cell.num_proxies * config.cell.sensors_per_proxy) {
  PRESTO_CHECK(config_.num_cells >= 1);
  PRESTO_CHECK_MSG(config_.epoch > 0, "federation epoch must be positive");
  cell_threads_ = std::max(1, std::min(config_.cell_threads, config_.num_cells));
  cell_processes_ =
      std::max(1, std::min(config_.cell_processes, config_.num_cells));
  PRESTO_CHECK_MSG(cell_threads_ == 1 || cell_processes_ == 1,
                   "cell_processes and cell_threads are mutually exclusive");
  socket_mode_ = config_.num_endpoints > 0;
  if (socket_mode_) {
    PRESTO_CHECK_MSG(config_.num_endpoints <= kMaxFedEndpoints,
                     "num_endpoints exceeds kMaxFedEndpoints");
    PRESTO_CHECK_MSG(config_.cell_threads == 1 && config_.cell_processes == 1,
                     "cell_endpoints is mutually exclusive with cell_threads / "
                     "cell_processes");
    PRESTO_CHECK_MSG(config_.frame_deadline > 0,
                     "frame_deadline must be positive in socket mode");
    // Endpoints play the worker-process role: cell c -> endpoint c % N, the
    // exact placement rule fork mode uses, so observables cannot drift.
    cell_processes_ = std::min(config_.num_endpoints, config_.num_cells);
  }
  const size_t num_cells = static_cast<size_t>(config_.num_cells);
  cell_down_.assign(num_cells, 0);
  route_.resize(num_cells);
  snaps_.assign(num_cells, FedCellSnapshot{});
  // The one mode switch: which transport reaches each worker. In-process runs
  // get one direct host per cell; process runs one wire worker per slot.
  const int n = process_mode() ? cell_processes_ : config_.num_cells;
  workers_.resize(static_cast<size_t>(n));
  for (int c = 0; c < config_.num_cells; ++c) {
    workers_[static_cast<size_t>(WorkerOf(c))].cells.push_back(c);
  }
  for (int w = 0; w < n; ++w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    if (process_mode()) {
      auto transport = socket_mode_ ? ConnectCellWorker(config_.cell_endpoints[w],
                                                        config_.frame_deadline,
                                                        WorkerConfig(), w, n)
                                    : SpawnCellWorker(WorkerConfig(), w, n);
      PRESTO_CHECK_MSG(transport.ok(),
                       "failed to start a presto_cell worker (fork mode: is the "
                       "presto_cell binary next to this executable? set "
                       "PRESTO_CELL_BIN otherwise; socket mode: is it running at "
                       "cell_endpoints[w]?)");
      worker.transport = std::move(*transport);
    } else {
      worker.transport = std::make_unique<CellHost>(WorkerConfig(), w, n);
    }
    worker.alive = true;
  }
  pool_ = std::make_unique<ClaimPool>(cell_threads_);
}

Federation::~Federation() {
  for (Worker& worker : workers_) {
    worker.transport->Close(/*graceful=*/worker.alive);
  }
}

FederationConfig Federation::WorkerConfig() const {
  // Workers construct their cells from the orchestrator's config with the
  // parallelism fields neutralized (the orchestrator owns the parallelism),
  // num_cells kept — every worker owns a full routing view. The
  // endpoint map is neutralized too: the transport that delivers this config is
  // not part of the simulated world, so every mode builds from identical bytes.
  FederationConfig wire = config_;
  wire.cell_threads = 1;
  wire.cell_processes = 1;
  wire.num_endpoints = 0;
  // memset (not per-element assignment) so padding bytes zero too: the struct
  // ships as raw bytes and every worker must receive identical payloads.
  std::memset(static_cast<void*>(wire.cell_endpoints), 0,
              sizeof(wire.cell_endpoints));
  return wire;
}

void Federation::Start() { Broadcast(CellControl{FedFrameType::kStart}); }

void Federation::RunUntil(SimTime t) {
  PRESTO_CHECK_MSG(t >= now_, "cannot run the federation backwards");
  while (now_ < t) {
    const SimTime end = std::min((now_ / config_.epoch + 1) * config_.epoch, t);
    // Mail drains only on the absolute epoch grid. A RunUntil that stopped
    // off-grid resumes with a partial iteration whose start is *not* a barrier —
    // draining there would make delivery times (and the barrier hash) depend on
    // how the host happened to slice its RunUntil calls.
    StepWorkers(end, /*on_grid=*/now_ % config_.epoch == 0);
    now_ = end;
  }
}

void Federation::StepWorkers(SimTime end, bool on_grid) {
  // Mail drained at this barrier, and how much of it became orphans instead of
  // reaching a worker (both stay 0 off the grid).
  uint64_t drained = 0;
  uint64_t orphaned = 0;
  if (on_grid) {
    // The barrier drain: route_ holds per-source FIFOs, walked source-ascending —
    // the per-target arrival order every transport reproduces, so delivery
    // schedules (and fingerprints) match across modes.
    for (std::vector<FedMail>& box : route_) {
      for (FedMail& mail : box) {
        ++drained;  // delivery happened at this barrier either way
        if (cell_down_[static_cast<size_t>(mail.source_cell)] != 0) {
          // A killed cell keeps stepping, but its trunks are down: late mail from
          // it is dropped at the barrier, never delivered. This is what makes a
          // KillCell run fingerprint-identical on the survivors to a run whose
          // worker was SIGKILLed (where that mail never exists at all).
          ++orphaned;
          continue;
        }
        Worker& target = workers_[static_cast<size_t>(WorkerOf(mail.target_cell))];
        if (!target.alive) {
          ++orphaned;  // the dead cell drops it, counted like any orphan
          continue;
        }
        target.deliver.push_back(std::move(mail));
      }
      box.clear();
    }
    ++barriers_;
    if (drained > 0) {
      mail_drained_ += drained;
      // Which barrier took delivery of how much inter-cell traffic is part of
      // the federation replay contract (mirrors the simulator's barrier hash).
      FnvMix(barrier_hash_, static_cast<uint64_t>(now_));
      FnvMix(barrier_hash_, drained);
    }
  }
  // Post every live worker its epoch, then finish them all: worker processes
  // compute between the two halves, and in-process hosts run their epochs on
  // the pool. Cells only interact through the mail drained above, so which
  // thread or process steps a cell is unobservable.
  [[maybe_unused]] uint64_t delivered = 0;  // read only by the DCHECK below
  for (int w = 0; w < num_workers(); ++w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    worker.posted = false;
    if (!worker.alive) {
      continue;
    }
    const size_t count = worker.deliver.size();
    if (!worker.transport->PostStep(now_, end, std::exchange(worker.deliver, {})).ok()) {
      orphaned += count;
      MarkWorkerDead(w);
      continue;
    }
    delivered += count;
    worker.posted = true;
  }
  // Every message drained at this barrier reached a worker or is an orphan of it.
  PRESTO_DCHECK(drained == delivered + orphaned);
  orphans_ += orphaned;
  pool_->Run(num_workers(), [this](int w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    if (worker.posted) {
      worker.stepped = worker.transport->FinishStep(&worker.output);
    }
  });
  for (int w = 0; w < num_workers(); ++w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    if (!worker.posted) {
      continue;
    }
    if (!worker.stepped.ok()) {
      MarkWorkerDead(w);
      continue;
    }
    Absorb(&worker.output);
  }
  // Only now — with no reply outstanding — may the survivors hear about deaths.
  FlushDeadCellKills();
  snaps_fresh_ = false;
}

Deployment& Federation::cell(int index) {
  PRESTO_CHECK(index >= 0 && index < config_.num_cells);
  CellHost* host = workers_[static_cast<size_t>(WorkerOf(index))].transport->local_host();
  PRESTO_CHECK_MSG(host != nullptr, "Federation::cell is in-process only");
  return host->cell(index);
}

int Federation::worker_pid(int w) const {
  return static_cast<int>(workers_[static_cast<size_t>(w)].transport->pid());
}

// ---------------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------------

int Federation::AttachDriver(int origin_cell, const QueryDriverParams& params) {
  PRESTO_CHECK(origin_cell >= 0 && origin_cell < config_.num_cells);
  auto slot = workers_[static_cast<size_t>(WorkerOf(origin_cell))]
                  .transport->AttachDriver(origin_cell, params);
  PRESTO_CHECK_MSG(slot.ok(), "failed to attach a query driver to its cell");
  driver_map_.emplace_back(origin_cell, *slot);
  driver_params_.push_back(params);
  snaps_fresh_ = false;
  return static_cast<int>(driver_map_.size()) - 1;
}

void Federation::StartDriver(int driver_index, Duration duration) {
  PRESTO_CHECK(driver_index >= 0 && driver_index < num_drivers());
  const auto [cell_index, slot] = driver_map_[static_cast<size_t>(driver_index)];
  const int w = WorkerOf(cell_index);
  if (!workers_[static_cast<size_t>(w)].alive) {
    return;  // the dead worker's cells are already down: nothing to start
  }
  CellControl op{FedFrameType::kStartDriver, cell_index, slot};
  op.duration = duration;
  Control(w, op);
  FlushDeadCellKills();
}

QueryDriverStats Federation::DriverStats(int driver_index) const {
  PRESTO_CHECK(driver_index >= 0 && driver_index < num_drivers());
  const auto [cell_index, slot] = driver_map_[static_cast<size_t>(driver_index)];
  RefreshSnapshots();
  const FedCellSnapshot& snap = snaps_[static_cast<size_t>(cell_index)];
  if (static_cast<size_t>(slot) >= snap.drivers.size()) {
    return QueryDriverStats{};  // worker died before its first snapshot fold
  }
  return snap.drivers[static_cast<size_t>(slot)];
}

FederationQueryResult Federation::QueryAndWait(int origin_cell,
                                               const FederationQuerySpec& spec,
                                               Duration max_wait) {
  PRESTO_CHECK(origin_cell >= 0 && origin_cell < config_.num_cells);
  const int target = directory_.CellOf(spec.fed_sensor);
  const SimTime deadline = now_ + max_wait;
  const int w = WorkerOf(origin_cell);
  auto synthesize = [&](Status status) {
    FederationQueryResult out;
    out.cell.answer.status = std::move(status);
    out.origin_cell = origin_cell;
    out.target_cell = target;
    out.issued_at = now_;
    out.completed_at = now_;
    return out;
  };
  if (!workers_[static_cast<size_t>(w)].alive) {
    return synthesize(UnavailableError("federation: origin cell's worker is gone"));
  }
  const uint64_t token = ++next_host_token_;
  CellControl op{FedFrameType::kInject, origin_cell};
  op.token = token;
  op.spec = spec;
  Control(w, op);
  FlushDeadCellKills();
  // Fail-fast and same-instant completions ride back in the inject's own output;
  // anything slower surfaces in a later step's host_done fold.
  auto it = host_results_.find(token);
  while (it == host_results_.end() && now_ < deadline &&
         workers_[static_cast<size_t>(w)].alive) {
    RunUntil(std::min(now_ + config_.epoch, deadline));
    it = host_results_.find(token);  // re-find: absorbs may rehash the map
  }
  if (it == host_results_.end()) {
    if (!workers_[static_cast<size_t>(w)].alive) {
      return synthesize(
          UnavailableError("federation: origin cell's worker died mid-query"));
    }
    return synthesize(
        DeadlineExceededError("federated query did not complete in max_wait"));
  }
  FederationQueryResult out = std::move(it->second);
  host_results_.erase(it);
  return out;
}

void Federation::KillCell(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  cell_down_[static_cast<size_t>(cell_index)] = 1;
  Broadcast(CellControl{FedFrameType::kKillCell, cell_index});
  snaps_fresh_ = false;
}

void Federation::ReviveCell(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  PRESTO_CHECK_MSG(workers_[static_cast<size_t>(WorkerOf(cell_index))].alive,
                   "cannot revive a cell whose worker died");
  Broadcast(CellControl{FedFrameType::kReviveCell, cell_index});
  cell_down_[static_cast<size_t>(cell_index)] = 0;
  snaps_fresh_ = false;
}

void Federation::KillProxyInCell(int cell_index, int proxy_index) {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < config_.cell.num_proxies);
  MutateCell(CellControl{FedFrameType::kKillProxy, cell_index, proxy_index});
}

void Federation::ReviveProxyInCell(int cell_index, int proxy_index) {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < config_.cell.num_proxies);
  MutateCell(CellControl{FedFrameType::kReviveProxy, cell_index, proxy_index});
}

void Federation::MigrateSensorInCell(int cell_index, int global_index,
                                     int new_owner) {
  PRESTO_CHECK(global_index >= 0 && global_index < directory_.sensors_per_cell());
  PRESTO_CHECK(new_owner >= 0 && new_owner < config_.cell.num_proxies);
  MutateCell(
      CellControl{FedFrameType::kMigrateSensor, cell_index, global_index, new_owner});
}

uint64_t Federation::EventsExecuted() const {
  RefreshSnapshots();
  uint64_t total = 0;
  for (const FedCellSnapshot& snap : snaps_) {
    total += snap.events;
  }
  return total;
}

FederationTrunkTotals Federation::TrunkTotals() const {
  RefreshSnapshots();
  FederationTrunkTotals total;
  for (const FedCellSnapshot& snap : snaps_) {
    total.messages += snap.trunks.messages;
    total.bytes += snap.trunks.bytes;
  }
  return total;
}

FederationStats Federation::stats() const {
  RefreshSnapshots();
  FederationStats total;
  total.barriers = barriers_;
  total.mail_drained = mail_drained_;
  total.orphans = orphans_;
  for (const FedCellSnapshot& snap : snaps_) {
    total.queries += snap.counters.queries;
    total.local += snap.counters.local;
    total.forwarded += snap.counters.forwarded;
    total.failed += snap.counters.failed;
    total.orphans += snap.counters.orphans;
  }
  return total;
}

uint64_t Federation::fingerprint() const {
  RefreshSnapshots();
  uint64_t total = barrier_hash_;
  uint64_t index = 0;
  for (const FedCellSnapshot& snap : snaps_) {
    // Bind each stream to its cell identity before the commutative sum, so
    // swapping two cells' entire histories (a directory misrouting bug) still
    // changes the fold — the same shape as the simulator's per-lane fingerprint.
    uint64_t term = snap.sim_fingerprint;
    FnvMix(term, index++);
    total += term * kGolden;
  }
  return total;
}

uint64_t Federation::CellFingerprint(int cell_index) const {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  RefreshSnapshots();
  return snaps_[static_cast<size_t>(cell_index)].sim_fingerprint;
}

// ---------------------------------------------------------------------------
// Worker ops and the one death path.
// ---------------------------------------------------------------------------

bool Federation::Control(int w, const CellControl& op) {
  CellOutput out;
  if (!workers_[static_cast<size_t>(w)].transport->Control(op, &out).ok()) {
    MarkWorkerDead(w);
    return false;
  }
  Absorb(&out);
  return true;
}

void Federation::Broadcast(const CellControl& op) {
  for (int w = 0; w < num_workers(); ++w) {
    if (workers_[static_cast<size_t>(w)].alive) {
      Control(w, op);
    }
  }
  FlushDeadCellKills();
}

void Federation::MutateCell(const CellControl& op) {
  PRESTO_CHECK(op.cell >= 0 && op.cell < config_.num_cells);
  const int w = WorkerOf(op.cell);
  PRESTO_CHECK_MSG(workers_[static_cast<size_t>(w)].alive,
                   "cannot mutate a cell whose worker died");
  Control(w, op);
  FlushDeadCellKills();
  snaps_fresh_ = false;
}

void Federation::Absorb(CellOutput* out) {
  for (FedMail& mail : out->mail) {
    route_[static_cast<size_t>(mail.source_cell)].push_back(std::move(mail));
  }
  for (FedCell::HostDone& done : out->host_done) {
    host_results_[done.token] = std::move(done.result);
  }
  out->mail.clear();
  out->host_done.clear();
}

void Federation::MarkWorkerDead(int w) {
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return;
  }
  worker.alive = false;
  worker.transport->Close(/*graceful=*/false);
  for (const int c : worker.cells) {
    // A crash is observable history: fold a death marker per cell into the
    // barrier hash (always — even if the cell was already marked down).
    FnvMix(barrier_hash_, kWorkerDeathMark);
    FnvMix(barrier_hash_, static_cast<uint64_t>(c));
    if (!cell_down_[static_cast<size_t>(c)]) {
      cell_down_[static_cast<size_t>(c)] = 1;
      kills_pending_.push_back(c);
    }
  }
  // Undelivered mail toward the dead cells can never land: drop and count.
  const auto undeliverable = [this](const FedMail& mail) {
    return !workers_[static_cast<size_t>(WorkerOf(mail.target_cell))].alive;
  };
  for (std::vector<FedMail>& box : route_) {
    const auto kept = std::remove_if(box.begin(), box.end(), undeliverable);
    orphans_ += static_cast<uint64_t>(box.end() - kept);
    box.erase(kept, box.end());
  }
  snaps_fresh_ = false;
}

void Federation::FlushDeadCellKills() {
  // Loop: broadcasting a kill can itself discover another dead worker, which
  // queues more kills.
  while (!kills_pending_.empty()) {
    for (const int c : std::exchange(kills_pending_, {})) {
      for (int w = 0; w < num_workers(); ++w) {
        if (workers_[static_cast<size_t>(w)].alive) {
          Control(w, CellControl{FedFrameType::kKillCell, c});
        }
      }
    }
  }
}

void Federation::RefreshSnapshots() const {
  if (snaps_fresh_) {
    return;
  }
  // Logically const: folds worker-side telemetry into the mutable snapshot
  // cache. A failed fold marks the worker dead, which is exactly the "crashed
  // worker freezes at its last fold" contract.
  auto* self = const_cast<Federation*>(this);
  for (int w = 0; w < num_workers(); ++w) {
    const Worker& worker = workers_[static_cast<size_t>(w)];
    if (!worker.alive) {
      continue;  // its cells freeze at their last folded snapshot
    }
    std::vector<FedCellSnapshot> snaps;
    if (!worker.transport->Snapshot(&snaps).ok() ||
        snaps.size() != worker.cells.size()) {
      self->MarkWorkerDead(w);
      continue;
    }
    for (size_t i = 0; i < snaps.size(); ++i) {
      snaps_[static_cast<size_t>(worker.cells[i])] = std::move(snaps[i]);
    }
  }
  self->FlushDeadCellKills();
  snaps_fresh_ = true;
}

// ---------------------------------------------------------------------------
// Checkpoints: per-cell sections + one orchestrator "fed" section, byte-
// identical whichever transport produced them (the live-migration contract).
// ---------------------------------------------------------------------------

Status Federation::SaveCheckpoint(Checkpoint* out) const {
  PRESTO_CHECK(out != nullptr);
  auto* self = const_cast<Federation*>(this);
  std::vector<Checkpoint> subs(workers_.size());
  for (int w = 0; w < num_workers(); ++w) {
    const Worker& worker = workers_[static_cast<size_t>(w)];
    if (!worker.alive) {
      return FailedPreconditionError("federation checkpoint: a cell worker died");
    }
    // A refusal (e.g. a probe query in flight) leaves the worker alive.
    const Status s = worker.transport->SaveCheckpoint(&subs[static_cast<size_t>(w)]);
    if (worker.transport->broken()) {
      self->MarkWorkerDead(w);
    }
    PRESTO_RETURN_IF_ERROR(s);
  }
  // Nothing partial on failure: sections land in the output only once every
  // worker serialized cleanly. They move (never copy) into cell-index order
  // regardless of worker layout, each cell's in its worker's save order.
  std::vector<std::vector<Checkpoint::Section>> by_cell(
      static_cast<size_t>(config_.num_cells));
  for (int w = 0; w < num_workers(); ++w) {
    for (Checkpoint::Section& section : subs[static_cast<size_t>(w)].TakeSections()) {
      const int c = CheckpointSectionCell(section.name);
      if (c >= 0 && c < config_.num_cells && WorkerOf(c) == w) {
        by_cell[static_cast<size_t>(c)].push_back(std::move(section));
      }
    }
  }
  for (std::vector<Checkpoint::Section>& sections : by_cell) {
    for (Checkpoint::Section& section : sections) {
      out->Add(section.name, std::move(section.payload));
    }
  }
  // Orchestrator-only state: the federation clock, barrier-sequence hash,
  // barrier and orphan counters, cell-down flags, and the undrained FedMail
  // (per-source FIFO, flattened source-ascending).
  ByteWriter w;
  CkptWrite(w, now_);
  CkptWrite(w, barrier_hash_);
  CkptWrite(w, barriers_);
  CkptWrite(w, mail_drained_);
  CkptWrite(w, orphans_);
  WriteCellBitmap(w, cell_down_);
  std::vector<FedMail> mail;
  for (const std::vector<FedMail>& box : route_) {
    mail.insert(mail.end(), box.begin(), box.end());
  }
  CkptWrite(w, mail);
  out->Add("fed", w.TakeBuffer());
  return OkStatus();
}

Status Federation::LoadCheckpoint(const Checkpoint& ckpt) {
  const std::vector<uint8_t>* payload = ckpt.Find("fed");
  if (payload == nullptr) {
    return NotFoundError("checkpoint missing section fed");
  }
  ByteReader r{span<const uint8_t>(*payload)};
  CKPT_READ(r, now_);
  CKPT_READ(r, barrier_hash_);
  CKPT_READ(r, barriers_);
  CKPT_READ(r, mail_drained_);
  CKPT_READ(r, orphans_);
  PRESTO_RETURN_IF_ERROR(
      ReadCellBitmap(r, static_cast<size_t>(config_.num_cells), &cell_down_));
  std::vector<FedMail> mail;
  CKPT_READ(r, mail);
  for (const FedMail& m : mail) {
    if (m.source_cell < 0 || m.source_cell >= config_.num_cells ||
        m.target_cell < 0 || m.target_cell >= config_.num_cells ||
        (m.op != kFedOpExecute && m.op != kFedOpComplete)) {
      return DataLossError("federation restore: bad mail entry");
    }
  }
  if (r.remaining() != 0) {
    return DataLossError("checkpoint section fed has trailing bytes");
  }
  // Each worker restores its cells from the same container, whatever the
  // transport — live migration is just "bootstrap, then load". Restores fan out
  // like steps: post every worker its cells, then collect every reply, so wire
  // workers load concurrently.
  for (const Worker& worker : workers_) {
    if (!worker.alive) {
      return FailedPreconditionError("federation restore: a cell worker died");
    }
  }
  Status restored = OkStatus();
  int posted = 0;  // workers [0, posted) owe a reply, even after a failed post
  while (posted < num_workers()) {
    restored = workers_[static_cast<size_t>(posted)].transport->LoadCheckpoint(
        ckpt, cell_down_);
    if (!restored.ok()) {
      break;
    }
    ++posted;
  }
  for (int w = 0; w < num_workers(); ++w) {
    CellTransport& transport = *workers_[static_cast<size_t>(w)].transport;
    const Status s = w < posted ? transport.FinishLoad() : OkStatus();
    if (transport.broken()) {
      MarkWorkerDead(w);
    }
    if (restored.ok()) {
      restored = s;
    }
  }
  PRESTO_RETURN_IF_ERROR(restored);
  for (std::vector<FedMail>& box : route_) {
    box.clear();
  }
  for (FedMail& m : mail) {
    route_[static_cast<size_t>(m.source_cell)].push_back(std::move(m));
  }
  host_results_.clear();
  snaps_fresh_ = false;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Socket mode: connection setup and live migration.
// ---------------------------------------------------------------------------

Status Federation::ReplayDriverAttachments(int w) {
  for (size_t i = 0; i < driver_map_.size(); ++i) {
    const auto [cell_index, slot] = driver_map_[i];
    if (WorkerOf(cell_index) != w) {
      continue;
    }
    auto replayed = workers_[static_cast<size_t>(w)].transport->AttachDriver(
        cell_index, driver_params_[i]);
    if (!replayed.ok()) {
      return replayed.status();
    }
    if (*replayed != slot) {
      return DataLossError("federation migrate: driver slot mismatch on re-attach");
    }
  }
  return OkStatus();
}

Status Federation::MigrateWorkerEndpoint(int w, const FedEndpoint& endpoint) {
  PRESTO_CHECK_MSG(socket_mode_, "MigrateWorkerEndpoint requires socket transport");
  PRESTO_CHECK(w >= 0 && w < num_workers());
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return FailedPreconditionError("federation migrate: worker is already dead");
  }
  // The migration payload is the federation checkpoint — of which, as in any
  // restore, the new endpoint receives only its own cells' sections.
  // SaveCheckpoint enforces its own preconditions (every worker alive, no host
  // probe in flight).
  Checkpoint ckpt;
  PRESTO_RETURN_IF_ERROR(SaveCheckpoint(&ckpt));
  // Decommission the old endpoint (best effort: the peer may already be gone),
  // then stand the worker up again over the new fd.
  worker.transport->Close(/*graceful=*/true);
  auto transport = ConnectCellWorker(endpoint, config_.frame_deadline, WorkerConfig(),
                                     w, num_workers());
  Status s = transport.status();
  if (s.ok()) {
    worker.transport = std::move(*transport);
    s = ReplayDriverAttachments(w);
  }
  if (s.ok() && !Control(w, CellControl{FedFrameType::kStart})) {
    s = UnavailableError("federation migrate: start failed on the new worker");
  }
  if (s.ok()) {
    s = worker.transport->LoadCheckpoint(ckpt, cell_down_);
  }
  if (s.ok()) {
    s = worker.transport->FinishLoad();
  }
  if (!s.ok()) {
    // Same containment path as any worker death: mark cells down, tell
    // survivors.
    MarkWorkerDead(w);
    FlushDeadCellKills();
    return s;
  }
  snaps_fresh_ = false;
  return OkStatus();
}

}  // namespace presto
