// The cell side of the federation seam: where cells live, and how the one
// orchestrator reaches them.
//
// A Federation orchestrates a fixed set of workers; cell c lives in worker
// c % num_workers. Every worker sits behind the same CellTransport interface — the
// typed ops below — so the orchestrator has exactly one mail drain, one step loop,
// one death path, one snapshot fold and one checkpoint composer, whatever carries
// the calls:
//
//  - Direct transport (the default, in-process): each worker is a CellHost living
//    in the orchestrator's own process, one per cell, called directly with no
//    serialization. FederationConfig::cell_threads > 1 runs the hosts' steps
//    concurrently.
//  - Wire transport (cell_processes > 1 forks, cell_endpoints dials TCP): each
//    worker is a presto_cell process whose CellWorker frame server wraps its own
//    CellHost; the orchestrator's FrameTransport turns every op into one fed_wire
//    request frame and decodes the single reply.
//
// CellHost owns full Deployment + FedCell pairs — same seeds, same sink
// registration order in every mode (the cross-mode fingerprint and checkpoint
// contract) — and its ops are the only implementation of what a worker does. The
// frame server only decodes, validates and encodes.
//
// Error discipline mirrors fed_wire's: ops report bad input as a Status, never a
// PRESTO_CHECK abort — the orchestrator treats an aborted worker as a crashed
// cell, so clean refusals must stay clean.

#ifndef SRC_CORE_CELL_WORKER_H_
#define SRC_CORE_CELL_WORKER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/net/fed_wire.h"
#include "src/util/ckpt.h"

namespace presto {

// One control op addressed to a worker: every frame type from kStart through
// kMigrateSensor. Which fields count depends on `type`.
struct CellControl {
  FedFrameType type = FedFrameType::kStart;
  // The addressed cell (kInject: the origin gateway).
  int cell = 0;
  // kStartDriver: driver slot; proxy ops: proxy; kMigrateSensor: global sensor.
  int index = 0;
  int owner = 0;               // kMigrateSensor: the new owning proxy
  Duration duration = 0;       // kStartDriver
  uint64_t token = 0;          // kInject: the orchestrator's correlation token
  FederationQuerySpec spec{};  // kInject
};

// The op's wire payload (the frame type travels in the frame header).
std::vector<uint8_t> EncodeCellControl(const CellControl& op);
Status DecodeCellControl(FedFrameType type, span<const uint8_t> payload,
                         CellControl* op);

// The kBootstrap payload: the config fields a worker builds its cells from
// (FederationConfig's field list), then the worker's slot.
std::vector<uint8_t> EncodeBootstrap(const FederationConfig& config, int worker_index,
                                     int num_workers);
// Its inverse: every field range-checked by the generic codecs (bools 0/1, enums
// naming an enumerator), trailing bytes refused, and the slot and
// Validate(FederationConfig) checked — a config a worker would abort on is
// InvalidArgument here.
Status DecodeBootstrap(span<const uint8_t> payload, FederationConfig* config,
                       int* worker_index, int* num_workers);

// The kAttachDriver payload: origin cell, then QueryDriverParams' field list. The
// decoder checks Validate(QueryDriverParams) the same way.
std::vector<uint8_t> EncodeAttachDriver(int origin_cell, const QueryDriverParams& params);
Status DecodeAttachDriver(span<const uint8_t> payload, int* origin_cell,
                          QueryDriverParams* params);

// The cell a checkpoint section belongs to: i for "cell<i>/...", else -1 (the
// orchestrator's "fed" section, or any other name).
int CheckpointSectionCell(const std::string& name);

// The kCkptLoad payload: the sections of `ckpt` that `keep` accepts, as a
// length-prefixed Checkpoint encoding written in place (one allocation, no
// intermediate copy), then the cell-down bitmap.
std::vector<uint8_t> EncodeCkptLoad(const Checkpoint& ckpt,
                                    const Checkpoint::SectionFilter& keep,
                                    const std::vector<uint8_t>& cell_down);
// Its inverse: reads the blob as a view into `payload` (verifying every section
// checksum), the bitmap, and rejects trailing bytes. `ckpt` owns its sections, so
// `payload` may be freed afterwards.
Status DecodeCkptLoad(span<const uint8_t> payload, size_t num_cells, Checkpoint* ckpt,
                      std::vector<uint8_t>* cell_down);

class CellHost;

// The orchestrator's view of one worker.
class CellTransport {
 public:
  CellTransport() = default;
  CellTransport(const CellTransport&) = delete;
  CellTransport& operator=(const CellTransport&) = delete;
  virtual ~CellTransport() = default;

  // Attaches a driver at `origin_cell` and returns its per-cell slot.
  virtual Result<int> AttachDriver(int origin_cell, const QueryDriverParams& params) = 0;
  virtual Status Control(const CellControl& op, CellOutput* out) = 0;
  // One federation epoch in two halves, so every worker steps at once: PostStep
  // hands over the barrier's mail (the orchestrator posts worker by worker);
  // FinishStep completes the epoch through `end` and collects what it generated.
  // Different workers' FinishStep calls may run on different threads.
  virtual Status PostStep(SimTime barrier, SimTime end, std::vector<FedMail> mail) = 0;
  virtual Status FinishStep(CellOutput* out) = 0;
  // One snapshot per hosted cell, ascending.
  virtual Status Snapshot(std::vector<FedCellSnapshot>* out) = 0;
  // Writes the hosted cells' "cell<i>/" sections into a fresh `out`.
  virtual Status SaveCheckpoint(Checkpoint* out) = 0;
  // Restores the hosted cells from a checkpoint holding (at least) their
  // sections, in two halves like a step so every worker loads at once:
  // LoadCheckpoint hands the restore over, FinishLoad reports how it went. The
  // direct host restores from `ckpt` in place; a wire transport sends the worker
  // only its own cells' sections, encoded straight into the request frame, and
  // frees that frame once sent. Missing sections fail before any state changes.
  virtual Status LoadCheckpoint(const Checkpoint& ckpt,
                                const std::vector<uint8_t>& cell_down) = 0;
  virtual Status FinishLoad() = 0;

  // The link itself failed (peer gone, deadline, malformed reply) — as opposed
  // to the worker refusing an op.
  virtual bool broken() const { return false; }
  // Ends the link, saying goodbye first when `graceful`, and reaps a forked
  // worker either way. Idempotent.
  virtual void Close(bool graceful) { (void)graceful; }
  // The forked worker's pid, or -1 (in-process host, TCP peer, reaped child).
  virtual long pid() const { return -1; }
  // The host behind a direct transport; nullptr across a wire.
  virtual CellHost* local_host() { return nullptr; }
};

// The cells of one worker, and the direct transport to them.
class CellHost final : public CellTransport {
 public:
  // Builds every cell c with c % num_workers == worker_index, ascending, from a
  // resolved config (epoch derived, parallelism fields neutralized). The frame
  // server validates wire-supplied parameters before constructing.
  CellHost(const FederationConfig& config, int worker_index, int num_workers);

  int num_cells() const { return config_.num_cells; }
  // Whether cell `cell_index` lives in this worker.
  bool hosts(int cell_index) const {
    return cell_index >= 0 && cell_index < config_.num_cells &&
           cell_index % num_workers_ == worker_index_;
  }
  Deployment& cell(int cell_index);

  Result<int> AttachDriver(int origin_cell, const QueryDriverParams& params) override;
  Status Control(const CellControl& op, CellOutput* out) override;
  Status PostStep(SimTime barrier, SimTime end, std::vector<FedMail> mail) override;
  Status FinishStep(CellOutput* out) override;
  Status Snapshot(std::vector<FedCellSnapshot>* out) override;
  Status SaveCheckpoint(Checkpoint* out) override;
  Status LoadCheckpoint(const Checkpoint& ckpt,
                        const std::vector<uint8_t>& cell_down) override;
  Status FinishLoad() override { return OkStatus(); }
  CellHost* local_host() override { return this; }

 private:
  struct Hosted {
    // Declared deployment first, so the router (and the drivers holding events
    // in the deployment's simulator) is destroyed before it.
    std::unique_ptr<Deployment> deployment;
    std::unique_ptr<FedCell> router;
  };

  // The hosted cell, or nullptr if it lives in another worker.
  Hosted* Find(int cell_index);
  Status Apply(const CellControl& op);
  Status SetCellState(int cell_index, bool down);
  void TakeOutput(CellOutput* out);

  FederationConfig config_;  // the FedCells hold a pointer: declared first
  int worker_index_;
  int num_workers_;
  std::vector<Hosted> hosted_;  // ascending cell index
  SimTime step_end_ = 0;        // the posted epoch's end
};

// The wire transport: every op is one request frame and one reply on a
// FrameChannel (fork: shared rings beside a socketpair; or TCP).
class FrameTransport final : public CellTransport {
 public:
  // Owns `channel` and, when pid > 0, the forked worker process behind it.
  FrameTransport(std::unique_ptr<FrameChannel> channel, long pid)
      : channel_(std::move(channel)), pid_(pid) {}
  ~FrameTransport() override { Close(/*graceful=*/false); }

  // kBootstrap: ships the resolved config and the worker's slot; the worker
  // builds its CellHost from them. The factories below call it.
  Status Bootstrap(const FederationConfig& config, int worker_index, int num_workers);

  Result<int> AttachDriver(int origin_cell, const QueryDriverParams& params) override;
  Status Control(const CellControl& op, CellOutput* out) override;
  Status PostStep(SimTime barrier, SimTime end, std::vector<FedMail> mail) override;
  Status FinishStep(CellOutput* out) override;
  Status Snapshot(std::vector<FedCellSnapshot>* out) override;
  Status SaveCheckpoint(Checkpoint* out) override;
  Status LoadCheckpoint(const Checkpoint& ckpt,
                        const std::vector<uint8_t>& cell_down) override;
  Status FinishLoad() override;
  bool broken() const override { return broken_; }
  void Close(bool graceful) override;
  long pid() const override { return pid_; }

 private:
  // One strict round trip (Send, then Reply); returns the kAck payload. A
  // send/recv failure or an unexpected reply latches broken_; a kError reply
  // decodes into the returned Status.
  Result<std::vector<uint8_t>> Call(FedFrameType type, std::vector<uint8_t> payload);
  Status Send(FedFrameType type, std::vector<uint8_t> payload);
  Result<std::vector<uint8_t>> Reply();
  // Decodes a control reply, checking every mail entry against the namespace.
  Status DecodeOutput(const std::vector<uint8_t>& payload, CellOutput* out) const;

  std::unique_ptr<FrameChannel> channel_;
  long pid_;
  // The worker's slot, set by Bootstrap.
  int cell_count_ = 0;
  int worker_index_ = 0;
  int num_workers_ = 1;
  bool broken_ = false;
};

// The bootstrapped wire worker `worker_index` of `num_workers`, built from the
// resolved `config`. Fork mode execs a presto_cell over a fresh FrameRing
// mapping and socketpair; socket mode (non-empty config.cell_endpoints on the
// orchestrator) dials a `presto_cell --listen` endpoint, runs the hello
// handshake, and bounds every frame by `deadline`.
Result<std::unique_ptr<FrameTransport>> SpawnCellWorker(const FederationConfig& config,
                                                        int worker_index,
                                                        int num_workers);
Result<std::unique_ptr<FrameTransport>> ConnectCellWorker(const FedEndpoint& endpoint,
                                                          Duration deadline,
                                                          const FederationConfig& config,
                                                          int worker_index,
                                                          int num_workers);

// The frame server inside a presto_cell process: decodes each request, runs it on
// the worker's CellHost, and encodes the one reply.
class CellWorker {
 public:
  // `channel` must outlive the worker (it is the process's one link to the
  // orchestrator).
  explicit CellWorker(FrameChannel* channel) : channel_(channel) {}

  CellWorker(const CellWorker&) = delete;
  CellWorker& operator=(const CellWorker&) = delete;

  // Serves frames until kShutdown or the orchestrator closes the channel; either
  // is a clean exit (returns the process exit code). Every request gets exactly
  // one reply: kAck with the op's payload, or kError carrying a Status.
  int Serve();

  // Whether Serve ended because the orchestrator sent kShutdown (vs. channel
  // EOF). The --listen accept loop re-accepts after an EOF — a reconnecting
  // orchestrator re-bootstraps the worker — but exits on a real shutdown.
  bool shutdown_requested() const { return shutdown_requested_; }

 private:
  // Routes one request; a non-OK return becomes the kError reply. May free the
  // request's payload once it is decoded (kCkptLoad).
  Status Dispatch(FedFrame& request, FedFrame* reply);
  Status Bootstrap(span<const uint8_t> payload);

  FrameChannel* channel_;
  bool shutdown_requested_ = false;
  std::unique_ptr<CellHost> host_;
};

// Path to the presto_cell binary: $PRESTO_CELL_BIN wins, else the file next to
// this executable, else whatever PATH resolves.
std::string ResolveCellWorkerBinary();

// The `presto_cell --listen <port>` accept loop: binds 0.0.0.0:<port> (0 picks
// an ephemeral port), prints `PRESTO_CELL_LISTENING <bound_port>` on stdout,
// then serves orchestrator connections one at a time. Each connection gets a
// handshake-deadlined FedHelloServer, then an undeadlined CellWorker::Serve()
// (a dead orchestrator arrives as EOF/RST, so the worker re-accepts — that is
// exactly how a resumed/migrated orchestrator re-adopts the worker). Returns
// the process exit code; exits the loop on kShutdown or, with `once`, after
// the first connection ends either way.
int RunCellWorkerListenLoop(uint16_t port, Duration handshake_deadline, bool once);

// Fork-exec helper for tests and benches: spawns `presto_cell --listen 0` and
// parses the announcement line for the kernel-chosen port.
struct SpawnedCellWorker {
  long pid = -1;
  uint16_t port = 0;
};
Result<SpawnedCellWorker> SpawnCellWorkerListening();
// SIGKILL + reap; safe to call twice (pid resets to -1).
void StopCellWorker(SpawnedCellWorker& worker);

}  // namespace presto

#endif  // SRC_CORE_CELL_WORKER_H_
