#include "src/core/cell_worker.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

namespace {

int TotalSensors(const FederationConfig& config) {
  return config.num_cells * config.cell.num_proxies * config.cell.sensors_per_proxy;
}

std::string CellPrefix(int cell_index) {
  return "cell" + std::to_string(cell_index) + "/";
}

// The op's payload fields in wire order — one list for both codec directions, so
// encoder and decoder cannot drift. Returns false for a non-control frame type.
template <typename Op, typename Field>
bool ForEachControlField(Op& op, Field&& field) {
  switch (op.type) {
    case FedFrameType::kStart:
      return true;
    case FedFrameType::kStartDriver:
      field(op.cell);
      field(op.index);
      field(op.duration);
      return true;
    case FedFrameType::kInject:
      field(op.cell);
      field(op.token);
      field(op.spec);
      return true;
    case FedFrameType::kKillCell:
    case FedFrameType::kReviveCell:
      field(op.cell);
      return true;
    case FedFrameType::kKillProxy:
    case FedFrameType::kReviveProxy:
      field(op.cell);
      field(op.index);
      return true;
    case FedFrameType::kMigrateSensor:
      field(op.cell);
      field(op.index);
      field(op.owner);
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Control-op codec.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeCellControl(const CellControl& op) {
  ByteWriter w;
  ForEachControlField(op, CkptWriter(w));
  return w.TakeBuffer();
}

Status DecodeCellControl(FedFrameType type, span<const uint8_t> payload,
                         CellControl* op) {
  ByteReader r{payload};
  *op = CellControl{};
  op->type = type;
  if (!ForEachControlField(*op, CkptReader(r))) {
    return InvalidArgumentError("cell_worker: unexpected frame type");
  }
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return DataLossError("cell_worker: control op trailing bytes");
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Bootstrap and attach-driver codecs.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeBootstrap(const FederationConfig& config, int worker_index,
                                     int num_workers) {
  ByteWriter w;
  CkptWrite(w, config);
  CkptWrite(w, worker_index);
  CkptWrite(w, num_workers);
  return w.TakeBuffer();
}

Status DecodeBootstrap(span<const uint8_t> payload, FederationConfig* config,
                       int* worker_index, int* num_workers) {
  ByteReader r{payload};
  *config = FederationConfig{};
  CkptRead(r, *config);
  CkptRead(r, *worker_index);
  CkptRead(r, *num_workers);
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return DataLossError("cell_worker: bootstrap trailing bytes");
  }
  if (*num_workers < 1 || *worker_index < 0 || *worker_index >= *num_workers) {
    return InvalidArgumentError("cell_worker: bad bootstrap worker slot");
  }
  return Validate(*config);
}

std::vector<uint8_t> EncodeAttachDriver(int origin_cell,
                                        const QueryDriverParams& params) {
  ByteWriter w;
  CkptWrite(w, origin_cell);
  CkptWrite(w, params);
  return w.TakeBuffer();
}

Status DecodeAttachDriver(span<const uint8_t> payload, int* origin_cell,
                          QueryDriverParams* params) {
  ByteReader r{payload};
  *params = QueryDriverParams{};
  CkptRead(r, *origin_cell);
  CkptRead(r, *params);
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return DataLossError("cell_worker: attach-driver trailing bytes");
  }
  return Validate(*params);
}

// ---------------------------------------------------------------------------
// Checkpoint handoff codec.
// ---------------------------------------------------------------------------

int CheckpointSectionCell(const std::string& name) {
  // "cell" + a canonical decimal index (no leading zero, at most 9 digits) + '/'.
  constexpr size_t kFirstDigit = 4;  // after "cell"
  if (name.compare(0, kFirstDigit, "cell") != 0) {
    return -1;
  }
  size_t pos = kFirstDigit;
  int index = 0;
  while (pos < name.size() && pos - kFirstDigit < 9 && name[pos] >= '0' &&
         name[pos] <= '9') {
    index = index * 10 + (name[pos] - '0');
    ++pos;
  }
  if (pos == kFirstDigit || pos >= name.size() || name[pos] != '/' ||
      (name[kFirstDigit] == '0' && pos > kFirstDigit + 1)) {
    return -1;
  }
  return index;
}

std::vector<uint8_t> EncodeCkptLoad(const Checkpoint& ckpt,
                                    const Checkpoint::SectionFilter& keep,
                                    const std::vector<uint8_t>& cell_down) {
  const size_t blob = ckpt.EncodedSize(keep);
  ByteWriter w;
  // Length prefix, blob, and the bitmap's two varints + packed bits.
  w.Reserve(static_cast<size_t>(VarU64Bytes(blob)) + blob + 2 * kMaxVarU64Bytes +
            (cell_down.size() + 7) / 8);
  w.WriteVarU64(blob);
  ckpt.EncodeTo(w, keep);
  WriteCellBitmap(w, cell_down);
  return w.TakeBuffer();
}

Status DecodeCkptLoad(span<const uint8_t> payload, size_t num_cells, Checkpoint* ckpt,
                      std::vector<uint8_t>* cell_down) {
  ByteReader r{payload};
  const span<const uint8_t> blob = r.ReadByteSpan();
  ReadCellBitmap(r, num_cells, cell_down);
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return DataLossError("cell_worker: ckpt-load trailing bytes");
  }
  auto decoded = Checkpoint::Decode(blob);
  if (!decoded.ok()) {
    return decoded.status();
  }
  *ckpt = std::move(*decoded);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// CellHost: the cells themselves, and the direct transport.
// ---------------------------------------------------------------------------

CellHost::CellHost(const FederationConfig& config, int worker_index, int num_workers)
    : config_(config), worker_index_(worker_index), num_workers_(num_workers) {
  PRESTO_CHECK(num_workers_ >= 1 && worker_index_ >= 0 && worker_index_ < num_workers_);
  for (int c = worker_index_; c < config_.num_cells; c += num_workers_) {
    DeploymentConfig cell_config = config_.cell;
    cell_config.seed = FederationCellSeed(config_.seed, c);
    Hosted hosted;
    hosted.deployment = std::make_unique<Deployment>(cell_config);
    // Pairwise construction: each simulator registers the deployment's sinks,
    // then the router's — the same sink ids in every mode (checkpoint contract).
    hosted.router = std::make_unique<FedCell>(c, &config_, hosted.deployment.get());
    hosted_.push_back(std::move(hosted));
  }
}

CellHost::Hosted* CellHost::Find(int cell_index) {
  if (!hosts(cell_index)) {
    return nullptr;
  }
  return &hosted_[static_cast<size_t>((cell_index - worker_index_) / num_workers_)];
}

Deployment& CellHost::cell(int cell_index) {
  Hosted* hosted = Find(cell_index);
  PRESTO_CHECK_MSG(hosted != nullptr, "cell is not hosted here");
  return *hosted->deployment;
}

Result<int> CellHost::AttachDriver(int origin_cell, const QueryDriverParams& params) {
  Hosted* hosted = Find(origin_cell);
  if (hosted == nullptr) {
    return InvalidArgumentError("cell_worker: cell is not hosted by this worker");
  }
  if (params.mix.num_sensors > TotalSensors(config_)) {
    return InvalidArgumentError("driver namespace exceeds the federation population");
  }
  return hosted->router->AttachDriver(params);
}

Status CellHost::Control(const CellControl& op, CellOutput* out) {
  const Status s = Apply(op);
  // Every op hands back the mail (and host-probe completions) it generated.
  TakeOutput(out);
  return s;
}

Status CellHost::Apply(const CellControl& op) {
  switch (op.type) {
    case FedFrameType::kStart:
      for (Hosted& hosted : hosted_) {
        hosted.deployment->Start();
      }
      return OkStatus();
    case FedFrameType::kKillCell:
    case FedFrameType::kReviveCell:
      return SetCellState(op.cell, op.type == FedFrameType::kKillCell);
    default:
      break;
  }
  Hosted* hosted = Find(op.cell);
  if (hosted == nullptr) {
    return InvalidArgumentError("cell_worker: cell is not hosted by this worker");
  }
  Deployment& cell = *hosted->deployment;
  switch (op.type) {
    case FedFrameType::kStartDriver:
      if (op.index < 0 || op.index >= hosted->router->num_drivers()) {
        return InvalidArgumentError("cell_worker: driver slot out of range");
      }
      hosted->router->StartDriver(op.index, op.duration);
      return OkStatus();
    case FedFrameType::kInject: {
      if (op.spec.fed_sensor < 0 || op.spec.fed_sensor >= TotalSensors(config_)) {
        return InvalidArgumentError("cell_worker: inject sensor out of range");
      }
      FedCell::Pending q;
      q.origin = FedCell::Origin::kHost;
      q.host_token = op.token;
      // Fail-fast (dead target) and same-instant completions land in host_done
      // and ride back in this op's own output.
      hosted->router->Issue(op.spec, std::move(q));
      return OkStatus();
    }
    case FedFrameType::kKillProxy:
    case FedFrameType::kReviveProxy:
      if (op.index < 0 || op.index >= cell.config().num_proxies) {
        return InvalidArgumentError("cell_worker: proxy index out of range");
      }
      if (op.type == FedFrameType::kKillProxy) {
        cell.KillProxy(op.index);
      } else {
        cell.ReviveProxy(op.index);
      }
      return OkStatus();
    case FedFrameType::kMigrateSensor:
      if (op.index < 0 || op.index >= cell.total_sensors() || op.owner < 0 ||
          op.owner >= cell.config().num_proxies) {
        return InvalidArgumentError("cell_worker: migrate-sensor argument out of range");
      }
      cell.MigrateSensor(op.index, op.owner);
      return OkStatus();
    default:
      return InvalidArgumentError("cell_worker: unexpected frame type");
  }
}

Status CellHost::SetCellState(int cell_index, bool down) {
  if (cell_index < 0 || cell_index >= config_.num_cells) {
    return InvalidArgumentError("cell_worker: cell index out of range");
  }
  Hosted* target = Find(cell_index);
  if (down) {
    // Every hosted gateway marks the cell down and fails its pending queries
    // toward it (hosted-cell ascending, qid ascending within — deterministic),
    // then the cell's own proxies die.
    for (Hosted& hosted : hosted_) {
      hosted.router->SetCellDown(cell_index, true);
      hosted.router->FailPendingToward(cell_index);
    }
    for (int p = 0; target != nullptr && p < config_.cell.num_proxies; ++p) {
      target->deployment->KillProxy(p);
    }
    return OkStatus();
  }
  for (int p = 0; target != nullptr && p < config_.cell.num_proxies; ++p) {
    target->deployment->ReviveProxy(p);
  }
  for (Hosted& hosted : hosted_) {
    hosted.router->SetCellDown(cell_index, false);
  }
  return OkStatus();
}

Status CellHost::PostStep(SimTime barrier, SimTime end, std::vector<FedMail> mail) {
  for (FedMail& m : mail) {
    Hosted* hosted = Find(m.target_cell);
    if (hosted == nullptr) {
      return InvalidArgumentError("cell_worker: cell is not hosted by this worker");
    }
    if (m.op != kFedOpExecute && m.op != kFedOpComplete) {
      return DataLossError("cell_worker: bad mail op in step");
    }
    hosted->router->DeliverMail(std::move(m), barrier);
  }
  step_end_ = end;
  return OkStatus();
}

Status CellHost::FinishStep(CellOutput* out) {
  for (Hosted& hosted : hosted_) {
    hosted.deployment->RunUntil(step_end_);
    PRESTO_DCHECK(hosted.router->DriverAccountingHolds());
  }
  TakeOutput(out);
  return OkStatus();
}

Status CellHost::Snapshot(std::vector<FedCellSnapshot>* out) {
  out->clear();
  for (Hosted& hosted : hosted_) {
    FedCell& router = *hosted.router;
    FedCellSnapshot snap;
    snap.sim_fingerprint = hosted.deployment->sim().fingerprint();
    snap.events = hosted.deployment->sim().events_executed();
    snap.counters = router.counters();
    snap.trunks = router.TrunkTotals();
    for (int d = 0; d < router.num_drivers(); ++d) {
      snap.drivers.push_back(router.driver(d).stats());
    }
    out->push_back(std::move(snap));
  }
  return OkStatus();
}

Status CellHost::SaveCheckpoint(Checkpoint* out) {
  for (const Hosted& hosted : hosted_) {
    const std::string prefix = CellPrefix(hosted.router->index());
    PRESTO_RETURN_IF_ERROR(hosted.deployment->SaveCheckpoint(out, prefix));
    ByteWriter w;
    PRESTO_RETURN_IF_ERROR(hosted.router->SaveState(w));
    out->Add(prefix + "fed", w.TakeBuffer());
  }
  return OkStatus();
}

Status CellHost::LoadCheckpoint(const Checkpoint& ckpt,
                                const std::vector<uint8_t>& cell_down) {
  // Every hosted cell's sections must be present before any cell is touched: a
  // restore that stopped halfway would leave the worker between two states.
  for (const Hosted& hosted : hosted_) {
    const std::string prefix = CellPrefix(hosted.router->index());
    std::vector<std::string> names = hosted.deployment->CheckpointSections();
    names.push_back("fed");
    for (const std::string& name : names) {
      if (ckpt.Find(prefix + name) == nullptr) {
        return DataLossError("checkpoint missing section " + prefix + name);
      }
    }
  }
  for (Hosted& hosted : hosted_) {
    hosted.router->RestoreCellDown(cell_down);
    hosted.router->TakeOutbox();  // undrained mail belongs to the orchestrator
    const std::string prefix = CellPrefix(hosted.router->index());
    ByteReader r{span<const uint8_t>(*ckpt.Find(prefix + "fed"))};
    // Router first: the cell's simulator (loaded last inside LoadCheckpoint)
    // re-announces restored events into fully rebuilt tables.
    hosted.router->LoadState(r);
    if (!r.ok()) {
      return r.status();
    }
    if (r.remaining() != 0) {
      return DataLossError("checkpoint section " + prefix + "fed has trailing bytes");
    }
    PRESTO_RETURN_IF_ERROR(hosted.deployment->LoadCheckpoint(ckpt, prefix));
  }
  return OkStatus();
}

void CellHost::TakeOutput(CellOutput* out) {
  for (Hosted& hosted : hosted_) {
    std::vector<FedMail> box = hosted.router->TakeOutbox();
    std::move(box.begin(), box.end(), std::back_inserter(out->mail));
    std::vector<FedCell::HostDone> done = hosted.router->TakeHostDone();
    std::move(done.begin(), done.end(), std::back_inserter(out->host_done));
  }
}

// ---------------------------------------------------------------------------
// FrameTransport: the orchestrator end of the wire.
// ---------------------------------------------------------------------------

Status FrameTransport::Send(FedFrameType type, std::vector<uint8_t> payload) {
  if (broken_) {
    return UnavailableError("cell transport: the link is down");
  }
  FedFrame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  const Status sent = channel_->Send(frame);
  if (!sent.ok()) {
    broken_ = true;
  }
  return sent;
}

Result<std::vector<uint8_t>> FrameTransport::Reply() {
  auto reply = channel_->Recv();
  if (!reply.ok()) {
    broken_ = true;
    return reply.status();
  }
  if (reply->type == FedFrameType::kError) {
    ByteReader r{span<const uint8_t>(reply->payload)};
    Status failure = OkStatus();
    CkptRead(r, failure);
    if (!r.ok() || failure.ok()) {
      broken_ = true;
      return DataLossError("cell transport: malformed error reply");
    }
    return failure;  // the worker refused the op; the link is fine
  }
  if (reply->type != FedFrameType::kAck) {
    broken_ = true;
    return DataLossError("cell transport: unexpected reply type");
  }
  return std::move(reply->payload);
}

Result<std::vector<uint8_t>> FrameTransport::Call(FedFrameType type,
                                                  std::vector<uint8_t> payload) {
  PRESTO_RETURN_IF_ERROR(Send(type, std::move(payload)));
  return Reply();
}

Status FrameTransport::DecodeOutput(const std::vector<uint8_t>& payload,
                                    CellOutput* out) const {
  PRESTO_RETURN_IF_ERROR(DecodeFedControlReply(span<const uint8_t>(payload),
                                               &out->mail, &out->host_done));
  for (const FedMail& m : out->mail) {
    if (m.source_cell < 0 || m.source_cell >= cell_count_ || m.target_cell < 0 ||
        m.target_cell >= cell_count_ ||
        (m.op != kFedOpExecute && m.op != kFedOpComplete)) {
      return DataLossError("cell transport: bad mail in control reply");
    }
  }
  return OkStatus();
}

Status FrameTransport::Bootstrap(const FederationConfig& config, int worker_index,
                                 int num_workers) {
  auto reply =
      Call(FedFrameType::kBootstrap, EncodeBootstrap(config, worker_index, num_workers));
  if (!reply.ok()) {
    return reply.status();
  }
  cell_count_ = config.num_cells;
  worker_index_ = worker_index;
  num_workers_ = num_workers;
  return OkStatus();
}

Result<int> FrameTransport::AttachDriver(int origin_cell,
                                         const QueryDriverParams& params) {
  auto reply =
      Call(FedFrameType::kAttachDriver, EncodeAttachDriver(origin_cell, params));
  if (!reply.ok()) {
    return reply.status();
  }
  ByteReader r{span<const uint8_t>(*reply)};
  const uint64_t slot = r.ReadVarU64();
  if (!r.ok() || r.remaining() != 0) {
    broken_ = true;
    return DataLossError("cell transport: bad attach-driver reply");
  }
  return static_cast<int>(slot);
}

Status FrameTransport::Control(const CellControl& op, CellOutput* out) {
  auto reply = Call(op.type, EncodeCellControl(op));
  if (!reply.ok()) {
    return reply.status();
  }
  return DecodeOutput(*reply, out);
}

Status FrameTransport::PostStep(SimTime barrier, SimTime end, std::vector<FedMail> mail) {
  ByteWriter payload;
  CkptWrite(payload, barrier);
  CkptWrite(payload, end);
  CkptWrite(payload, mail);
  return Send(FedFrameType::kStep, payload.TakeBuffer());
}

Status FrameTransport::FinishStep(CellOutput* out) {
  auto reply = Reply();
  if (!reply.ok()) {
    return reply.status();
  }
  return DecodeOutput(*reply, out);
}

Status FrameTransport::Snapshot(std::vector<FedCellSnapshot>* out) {
  auto reply = Call(FedFrameType::kSnapshot, {});
  if (!reply.ok()) {
    return reply.status();
  }
  ByteReader r{span<const uint8_t>(*reply)};
  CkptRead(r, *out);
  if (!r.ok()) {
    return r.status();
  }
  if (r.remaining() != 0) {
    return DataLossError("cell transport: snapshot trailing bytes");
  }
  return OkStatus();
}

Status FrameTransport::SaveCheckpoint(Checkpoint* out) {
  auto reply = Call(FedFrameType::kCkptSave, {});
  if (!reply.ok()) {
    return reply.status();  // e.g. a probe query in flight on the worker
  }
  auto sub = Checkpoint::Decode(span<const uint8_t>(*reply));
  if (!sub.ok()) {
    return sub.status();
  }
  *out = std::move(*sub);
  return OkStatus();
}

Status FrameTransport::LoadCheckpoint(const Checkpoint& ckpt,
                                      const std::vector<uint8_t>& cell_down) {
  // Only this worker's cells cross. Send owns the request and frees it once it is
  // out, so one restore holds at most one worker's request at a time.
  return Send(FedFrameType::kCkptLoad,
              EncodeCkptLoad(
                  ckpt,
                  [this](const std::string& name) {
                    const int cell = CheckpointSectionCell(name);
                    return cell >= 0 && cell < cell_count_ &&
                           cell % num_workers_ == worker_index_;
                  },
                  cell_down));
}

Status FrameTransport::FinishLoad() {
  auto reply = Reply();
  return reply.ok() ? OkStatus() : reply.status();
}

void FrameTransport::Close(bool graceful) {
  bool clean = false;
  if (graceful && !broken_) {
    FedFrame bye;
    bye.type = FedFrameType::kShutdown;
    auto reply = channel_->Call(bye);
    clean = reply.ok() && reply->type == FedFrameType::kAck;
  }
  broken_ = true;
  channel_->Close();
  if (pid_ > 0) {
    if (!clean) {
      ::kill(static_cast<pid_t>(pid_), SIGKILL);
    }
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
    pid_ = -1;
  }
}

Result<std::unique_ptr<FrameTransport>> SpawnCellWorker(const FederationConfig& config,
                                                        int worker_index,
                                                        int num_workers) {
  const std::string bin = ResolveCellWorkerBinary();
  auto ring = FrameRing::Create();
  if (!ring.ok()) {
    return ring.status();
  }
  int fds[2];
  PRESTO_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  // The orchestrator's end must not leak into *any* worker (each fork inherits
  // every fd open at that moment): close-on-exec before forking. The ring's memfd
  // is close-on-exec from birth; only this worker's child clears the flag.
  PRESTO_CHECK(::fcntl(fds[0], F_SETFD, FD_CLOEXEC) == 0);
  const int ring_fd = (*ring)->fd();
  const pid_t pid = ::fork();
  PRESTO_CHECK(pid >= 0);
  if (pid == 0) {
    char fd_arg[16];
    char ring_arg[16];
    std::snprintf(fd_arg, sizeof(fd_arg), "%d", fds[1]);
    std::snprintf(ring_arg, sizeof(ring_arg), "%d", ring_fd);
    if (::fcntl(ring_fd, F_SETFD, 0) == 0) {
      ::execl(bin.c_str(), "presto_cell", fd_arg, ring_arg, static_cast<char*>(nullptr));
    }
    _exit(127);  // exec failed; the bootstrap call reports the actionable error
  }
  ::close(fds[1]);
  (*ring)->CloseFd();  // the mapping stays; the child holds its own fd
  auto channel = std::make_unique<FrameChannel>(fds[0], std::move(*ring),
                                                FrameRing::End::kOrchestrator);
  Result<std::unique_ptr<FrameTransport>> transport =
      std::make_unique<FrameTransport>(std::move(channel), pid);
  PRESTO_RETURN_IF_ERROR((*transport)->Bootstrap(config, worker_index, num_workers));
  return transport;
}

Result<std::unique_ptr<FrameTransport>> ConnectCellWorker(const FedEndpoint& endpoint,
                                                          Duration deadline,
                                                          const FederationConfig& config,
                                                          int worker_index,
                                                          int num_workers) {
  if (endpoint.host.empty() || endpoint.port == 0) {
    return InvalidArgumentError("federation: empty cell endpoint");
  }
  auto fd = TcpConnect(endpoint.host.c_str(), endpoint.port, deadline);
  if (!fd.ok()) {
    return fd.status();
  }
  auto channel = std::make_unique<FrameChannel>(*fd);
  channel->SetDeadline(deadline);
  PRESTO_RETURN_IF_ERROR(FedHelloClient(*channel, worker_index, num_workers));
  Result<std::unique_ptr<FrameTransport>> transport =
      std::make_unique<FrameTransport>(std::move(channel), /*pid=*/-1);
  PRESTO_RETURN_IF_ERROR((*transport)->Bootstrap(config, worker_index, num_workers));
  return transport;
}

// ---------------------------------------------------------------------------
// CellWorker: the frame server.
// ---------------------------------------------------------------------------

int CellWorker::Serve() {
  while (true) {
    auto request = channel_->Recv();
    if (!request.ok()) {
      // The orchestrator exited or closed the channel: a clean worker exit, so a
      // normal shutdown never trips process-death detection (or LeakSanitizer).
      return 0;
    }
    const FedFrameType type = request->type;
    FedFrame reply;
    reply.type = FedFrameType::kAck;
    const Status s = Dispatch(*request, &reply);
    if (!s.ok()) {
      ByteWriter w;
      CkptWrite(w, s);
      reply.type = FedFrameType::kError;
      reply.payload = w.TakeBuffer();
    }
    if (type == FedFrameType::kShutdown) {
      // Requested even if the kAck below fails to send — the orchestrator is
      // leaving either way, and the --listen loop must not re-accept after it.
      shutdown_requested_ = true;
    }
    if (!channel_->Send(reply).ok()) {
      return 0;
    }
    if (type == FedFrameType::kShutdown) {
      return 0;
    }
  }
}

Status CellWorker::Dispatch(FedFrame& request, FedFrame* reply) {
  const span<const uint8_t> payload(request.payload);
  if (request.type == FedFrameType::kBootstrap) {
    return Bootstrap(payload);
  }
  if (request.type == FedFrameType::kShutdown) {
    return OkStatus();  // reply kAck, then Serve leaves its loop
  }
  if (host_ == nullptr) {
    return FailedPreconditionError("cell_worker: not bootstrapped");
  }
  ByteReader r{payload};
  CellOutput out;
  switch (request.type) {
    case FedFrameType::kAttachDriver: {
      int origin = 0;
      QueryDriverParams params;
      PRESTO_RETURN_IF_ERROR(DecodeAttachDriver(payload, &origin, &params));
      auto slot = host_->AttachDriver(origin, params);
      if (!slot.ok()) {
        return slot.status();
      }
      ByteWriter w;
      w.WriteVarU64(static_cast<uint64_t>(*slot));
      reply->payload = w.TakeBuffer();
      return OkStatus();
    }
    case FedFrameType::kStep: {
      SimTime barrier = 0, end = 0;
      std::vector<FedMail> mail;
      CkptRead(r, barrier);
      CkptRead(r, end);
      CkptRead(r, mail);
      if (!r.ok()) {
        return r.status();
      }
      if (r.remaining() != 0) {
        return DataLossError("cell_worker: step trailing bytes");
      }
      PRESTO_RETURN_IF_ERROR(host_->PostStep(barrier, end, std::move(mail)));
      PRESTO_RETURN_IF_ERROR(host_->FinishStep(&out));
      break;
    }
    case FedFrameType::kSnapshot: {
      std::vector<FedCellSnapshot> snaps;
      PRESTO_RETURN_IF_ERROR(host_->Snapshot(&snaps));
      ByteWriter w;
      CkptWrite(w, snaps);
      reply->payload = w.TakeBuffer();
      return OkStatus();
    }
    case FedFrameType::kCkptSave: {
      // One exact-size encoding (the sections are freed before it is sent);
      // Send writes it out without a frame copy.
      Checkpoint sub;
      PRESTO_RETURN_IF_ERROR(host_->SaveCheckpoint(&sub));
      reply->payload = sub.Encode();
      return OkStatus();
    }
    case FedFrameType::kCkptLoad: {
      Checkpoint ckpt;
      std::vector<uint8_t> down;
      PRESTO_RETURN_IF_ERROR(DecodeCkptLoad(
          payload, static_cast<size_t>(host_->num_cells()), &ckpt, &down));
      // The sections own their bytes now: free the request before the cells grow.
      std::vector<uint8_t>().swap(request.payload);
      // Exactly the hosted cells' sections: anything else is an orchestrator
      // routing bug, refused before any state is touched (LoadCheckpoint checks
      // that none is missing).
      for (const Checkpoint::Section& section : ckpt.sections()) {
        if (!host_->hosts(CheckpointSectionCell(section.name))) {
          return InvalidArgumentError("cell_worker: restore carries section '" +
                                      section.name + "' of no hosted cell");
        }
      }
      return host_->LoadCheckpoint(ckpt, down);
    }
    default: {
      CellControl op;
      PRESTO_RETURN_IF_ERROR(DecodeCellControl(request.type, payload, &op));
      PRESTO_RETURN_IF_ERROR(host_->Control(op, &out));
      break;
    }
  }
  reply->payload = EncodeFedControlReply(out.mail, out.host_done);
  return OkStatus();
}

Status CellWorker::Bootstrap(span<const uint8_t> payload) {
  if (host_ != nullptr) {
    return FailedPreconditionError("cell_worker: already bootstrapped");
  }
  FederationConfig config;
  int worker_index = 0, num_workers = 1;
  PRESTO_RETURN_IF_ERROR(
      DecodeBootstrap(payload, &config, &worker_index, &num_workers));
  host_ = std::make_unique<CellHost>(config, worker_index, num_workers);
  return OkStatus();
}

std::string ResolveCellWorkerBinary() {
  // PRESTO_CELL_BIN wins, else next to this executable, else whatever PATH
  // resolves.
  if (const char* env = std::getenv("PRESTO_CELL_BIN")) {
    if (env[0] != '\0') {
      return env;
    }
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    const size_t slash = dir.rfind('/');
    if (slash != std::string::npos) {
      return dir.substr(0, slash + 1) + "presto_cell";
    }
  }
  return "presto_cell";
}

int RunCellWorkerListenLoop(uint16_t port, Duration handshake_deadline,
                            bool once) {
  uint16_t bound_port = 0;
  auto listen_fd = TcpListen("0.0.0.0", port, &bound_port);
  if (!listen_fd.ok()) {
    std::fprintf(stderr, "presto_cell: %s\n", listen_fd.status().message().c_str());
    return 1;
  }
  // The spawn helpers (and human operators) read this line to learn the
  // kernel-chosen port; keep the format in lockstep with SpawnCellWorkerListening.
  std::printf("PRESTO_CELL_LISTENING %u\n", static_cast<unsigned>(bound_port));
  std::fflush(stdout);
  while (true) {
    auto conn = TcpAccept(*listen_fd, /*deadline=*/0);
    if (!conn.ok()) {
      std::fprintf(stderr, "presto_cell: %s\n", conn.status().message().c_str());
      ::close(*listen_fd);
      return 1;
    }
    bool shutdown = false;
    {
      FrameChannel channel(*conn);
      // Only the hello is deadlined: a connector that never completes the
      // handshake (half-open, slow-loris) must not wedge the accept loop. After
      // adoption the orchestrator paces the frames, and its death arrives as
      // EOF/RST — so Serve runs fully blocking, same as a fork-mode worker.
      channel.SetDeadline(handshake_deadline);
      auto hello = FedHelloServer(channel);
      if (!hello.ok()) {
        std::fprintf(stderr, "presto_cell: %s\n",
                     hello.status().message().c_str());
        continue;  // channel destructor closes the fd; keep listening
      }
      channel.SetDeadline(0);
      CellWorker worker(&channel);
      worker.Serve();
      shutdown = worker.shutdown_requested();
    }
    if (shutdown || once) {
      ::close(*listen_fd);
      return 0;
    }
    // EOF without shutdown: the orchestrator died or migrated away. Re-accept —
    // the next connection re-bootstraps this worker from scratch.
  }
}

Result<SpawnedCellWorker> SpawnCellWorkerListening() {
  int announce[2];
  if (::pipe(announce) != 0) {
    return InternalError("cell_worker spawn: pipe failed");
  }
  const std::string bin = ResolveCellWorkerBinary();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(announce[0]);
    ::close(announce[1]);
    return InternalError("cell_worker spawn: fork failed");
  }
  if (pid == 0) {
    ::close(announce[0]);
    ::dup2(announce[1], STDOUT_FILENO);
    ::close(announce[1]);
    ::execl(bin.c_str(), bin.c_str(), "--listen", "0", (char*)nullptr);
    _exit(127);
  }
  ::close(announce[1]);
  // Read the announcement line byte by byte; the worker writes it immediately
  // after binding, so a missing line means exec failed or the bind did.
  char line[256];
  size_t len = 0;
  while (len + 1 < sizeof(line)) {
    char c = 0;
    const ssize_t n = ::read(announce[0], &c, 1);
    if (n <= 0 || c == '\n') {
      break;
    }
    line[len++] = c;
  }
  line[len] = '\0';
  ::close(announce[0]);
  unsigned port = 0;
  if (std::sscanf(line, "PRESTO_CELL_LISTENING %u", &port) != 1 || port == 0 ||
      port > 65535) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return UnavailableError(
        "cell_worker spawn: no listen announcement (is the presto_cell binary "
        "next to this executable? set PRESTO_CELL_BIN otherwise)");
  }
  SpawnedCellWorker out;
  out.pid = pid;
  out.port = static_cast<uint16_t>(port);
  return out;
}

void StopCellWorker(SpawnedCellWorker& worker) {
  if (worker.pid <= 0) {
    return;
  }
  ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
  ::waitpid(static_cast<pid_t>(worker.pid), nullptr, 0);
  worker.pid = -1;
}

}  // namespace presto
