// Versioned wire protocol for the federation <-> cell process seam.
//
// When a federation runs its cells as separate processes (FederationConfig::
// cell_processes > 1, or cell_endpoints over TCP), every typed op the orchestrator
// would otherwise call directly on a cell host becomes a length-prefixed frame:
// epoch-barrier stepping, trunk mail (query requests and responses), control
// messages (kill / revive / migrate / query-inject), and the fingerprint + stats
// fold. This header defines that boundary and nothing above it: frames carry
// opaque payload bytes encoded with the util/bytes codecs, so the net layer stays
// agnostic of core types — both ends of each frame type's payload layout live in
// src/core/cell_worker.cc (FrameTransport encodes, CellWorker decodes).
//
// Frame layout (all little-endian):
//
//   magic   "PFW1"              4 bytes
//   version u8                  kFedWireVersion
//   type    u8                  FedFrameType
//   length  u32                 payload byte count (<= kMaxFedFramePayload)
//   payload length bytes
//
// Decoding is defensive end to end: a truncated header, bad magic, unsupported
// version, unknown type, oversized length prefix, or mid-stream EOF all return a
// clean Status — never a PRESTO_CHECK abort. The parent treats a failed channel as
// a crashed worker (a deployment-visible cell failure), so the decode path must
// stay total on arbitrary bytes.

#ifndef SRC_NET_FED_WIRE_H_
#define SRC_NET_FED_WIRE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"
#include "src/util/span.h"

struct iovec;

namespace presto {

// Version 2 added the kHello handshake frame (the TCP listen/connect bootstrap);
// peers on either side of a skew reject each other with a typed error. Version 3:
// the bootstrap's raw FederationConfig bytes dropped the lookahead, lane
// re-binding and lane epoch-cap knobs. Version 4: kBootstrap and kAttachDriver
// carry their configs field by field (FederationConfig's and QueryDriverParams'
// field lists, every bool and enum range-checked) instead of raw struct bytes,
// and the bootstrap no longer carries the orchestrator-only parallelism,
// endpoint and deadline fields.
inline constexpr uint8_t kFedWireVersion = 4;

// Hard cap on a single frame payload: far above any real checkpoint, far below
// anything a corrupt length prefix could use to drive an allocation attack.
inline constexpr uint32_t kMaxFedFramePayload = 1u << 30;

// One request or reply crossing the process seam. Requests flow parent -> worker;
// every request gets exactly one reply (kAck / kError / the op's typed reply) —
// the strict RPC discipline that makes the seam deadlock-free.
enum class FedFrameType : uint8_t {
  kError = 0,         // reply: Status (code + message)
  kAck = 1,           // reply: op-specific payload (possibly empty)
  kBootstrap = 2,     // config fields + worker index/count: construct hosted cells
  kStart = 3,         // Start() every hosted cell
  kAttachDriver = 4,  // origin cell + driver params: attach, reply with slot
  kStartDriver = 5,   // cell + slot + duration: begin the arrival process
  kStep = 6,          // barrier + end + mail deliveries: run one federation epoch
  kInject = 7,        // host query probe at an origin cell (QueryAndWait)
  kKillCell = 8,      // mark a cell down everywhere + kill its proxies if hosted
  kReviveCell = 9,    // inverse of kKillCell
  kKillProxy = 10,    // cell + proxy index
  kReviveProxy = 11,  // cell + proxy index
  kMigrateSensor = 12,  // cell + global sensor index + new owner proxy
  kSnapshot = 13,     // fold request: counters, fingerprints, trunks, drivers
  kCkptSave = 14,     // reply: encoded Checkpoint of the hosted cells
  // Encoded Checkpoint holding exactly the worker's hosted cells' sections (each
  // worker receives only its own; any other cell's section is refused) + the
  // cell-down bitmap: restore the hosted cells.
  kCkptLoad = 15,
  kShutdown = 16,     // clean exit; worker replies kAck then leaves its loop
  kHello = 17,        // handshake: advertised version + cell assignment echo
};
inline constexpr uint8_t kFedFrameTypeCount = 18;

struct FedFrame {
  FedFrameType type = FedFrameType::kAck;
  std::vector<uint8_t> payload;
};

// Serializes header + payload. The only failure mode is an oversized payload.
Result<std::vector<uint8_t>> EncodeFedFrame(const FedFrame& frame);

// Parses one complete frame from `data` (which must contain exactly one frame —
// trailing bytes are an error). All malformed inputs return a Status.
Result<FedFrame> DecodeFedFrame(span<const uint8_t> data);

// An inter-cell trunk message awaiting a federation barrier, in seam form: the
// source cell, target cell, trunk delivery time, op (execute / complete), query
// id, and the byte-encoded body (a QuerySpec or UnifiedQueryResult — opaque
// here). The same struct rides in-process outboxes, kStep frames, and the
// federation checkpoint, so the three paths cannot drift.
struct FedMail {
  int source_cell = 0;
  int target_cell = 0;
  SimTime time = 0;  // trunk delivery time (clamped to the draining barrier)
  uint64_t op = 0;
  uint64_t qid = 0;
  std::vector<uint8_t> body;
};

template <class S, class F, CkptSelf<S, FedMail> = 0>
void CkptFields(S& v, F&& f) {
  f(v.source_cell);
  f(v.target_cell);
  f(v.time);
  f(v.op);
  f(v.qid);
  f(v.body);
}

// Cell-down flags as a bit-packed map (BitWriter, one bit per cell), length
// prefixed. Broadcast in kCkptLoad and folded into bootstrap-time restores.
void WriteCellBitmap(ByteWriter& w, const std::vector<uint8_t>& flags);
void ReadCellBitmap(ByteReader& r, size_t num_cells, std::vector<uint8_t>* flags);

// --- TCP transport (multi-machine federation) ---------------------------------
//
// The socket bootstrap replaces fork: `presto_cell --listen <port>` workers sit
// on a TCP accept loop and the orchestrator connects. Hosts are numeric IPv4
// ("127.0.0.1", "10.0.0.7"); name resolution is the deployment's job, not the
// wire layer's. All three helpers return an fd the caller owns.

// Opens a listening socket bound to host:port. port 0 picks an ephemeral port;
// `*bound_port` (may be null) reports the kernel's choice either way.
Result<int> TcpListen(const char* host, uint16_t port, uint16_t* bound_port);

// Accepts one connection (TCP_NODELAY set). deadline <= 0 blocks forever;
// otherwise a quiet listen socket returns kDeadlineExceeded. `deadline` is wall
// time in the same microsecond unit as Duration.
Result<int> TcpAccept(int listen_fd, Duration deadline);

// Nonblocking connect with a wall-clock deadline (then back to blocking mode,
// TCP_NODELAY set). A dead endpoint fails fast; a black-holed one returns
// kDeadlineExceeded instead of hanging the orchestrator.
Result<int> TcpConnect(const char* host, uint16_t port, Duration deadline);

// Handshake payload: both sides advertise their protocol version redundantly
// with the frame header (so skew is rejected as a *typed* refusal, not a frame
// parse error), and the orchestrator names the worker's cell assignment, which
// the worker must echo back — a worker wired to the wrong endpoint in a
// placement map fails loudly at connect time, not at the first barrier.
struct FedHello {
  uint8_t version = kFedWireVersion;
  int worker_index = 0;
  int num_workers = 1;
};

// The version is one raw byte, readable whatever a later version appends.
template <class S, class F, CkptSelf<S, FedHello> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.version));
  f(v.worker_index);
  f(v.num_workers);
}

std::vector<uint8_t> EncodeFedHello(const FedHello& hello);
Status DecodeFedHello(span<const uint8_t> payload, FedHello* hello);

class FrameChannel;

// Orchestrator side: sends kHello{assignment}, expects a kAck echoing the
// assignment with the worker's advertised version. Version skew and assignment
// mismatches are kFailedPrecondition; garbage is kDataLoss; a silent or
// half-open peer is bounded by the channel deadline.
Status FedHelloClient(FrameChannel& channel, int worker_index, int num_workers);

// Worker side: expects exactly one kHello within the channel deadline, replies
// kAck (echo) on success or kError + a typed Status on refusal.
Result<FedHello> FedHelloServer(FrameChannel& channel);

// How long a receive polls for a frame's first bytes before it waits: on a socket,
// blocking (or poll()ing, on a deadlined channel); on a ring, every wait, for data
// or for space, polls this long before it parks. Traced perfbench fed_procs (4
// cells in 2 forked workers, 4-core Xeon) measured an 86-105 us barrier wall with
// a blocking receive, 36-54 us of it in the wire: most frames land within a few
// tens of us, so polling that long skips a block/wake-up pair per frame, and a
// later frame costs at most this window of extra CPU. Windows of 20, 100 and
// 200 us were no faster end to end.
inline constexpr Duration kFrameRecvSpin = 50;  // us

// Bytes in each direction's ring of a forked worker's shared link. A frame of any
// size streams through it in ring-sized pieces (the 13 MB fed_procs checkpoint
// handoff included); with two workers, the rings touch 0.5 MiB summed over the
// three processes.
inline constexpr size_t kFrameRingBytes = size_t{64} << 10;

// The shared-memory link between the orchestrator and one forked presto_cell
// worker: two single-producer/single-consumer byte rings (orchestrator -> worker
// first, then worker -> orchestrator) in one memfd mapping that the exec'd worker
// maps too. Each direction is a 256-byte control block followed by
// kFrameRingBytes of data; the control block holds, each on its own 64-byte line,
//
//   +0    u64  head           bytes ever written (producer)
//   +64   u64  tail           bytes ever read (consumer)
//   +128  u32  reader_parked  the consumer sleeps in poll() on the socketpair
//   +192  u32  writer_parked  the producer sleeps there, waiting for space
//
// all lock-free atomics (address-free, so valid across processes). Each side
// keeps its own index privately and only publishes it; the peer's index is read
// once per look and bound-checked, so a corrupt or hostile peer yields a typed
// DataLoss, never an out-of-range copy.
class FrameRing {
 public:
  enum class End : uint8_t { kOrchestrator, kWorker };

  // A zeroed memfd of the link's size, mapped. fd() stays open (close-on-exec) so
  // the spawner can hand it to the worker; CloseFd() once it has.
  static Result<std::shared_ptr<FrameRing>> Create();
  // Maps an inherited link memfd, checking its size, and closes `fd`.
  static Result<std::shared_ptr<FrameRing>> Map(int fd);

  FrameRing(void* base, int fd) : base_(base), fd_(fd) {}
  ~FrameRing();
  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  int fd() const { return fd_; }
  void CloseFd();

  // The direction `end` writes into (tx) and reads from (rx).
  struct Half;
  Half* tx(End end) const;
  Half* rx(End end) const;

 private:
  void* base_;
  int fd_;
};

// Blocking frame transport over one end of a socketpair or a connected TCP fd,
// optionally with a FrameRing carrying the bytes. Send/Recv run full write/read
// loops (short transfers and EINTR handled); a peer that closed or crashed
// surfaces as a non-OK Status from either side, never a signal (MSG_NOSIGNAL) or
// an abort. Only WriteAll/ReadAll choose between the fd and the ring, so header
// parsing, the payload cap, the EOF flavours and the deadlines are shared.
//
// Socket (TCP workers): Send writes header and payload with one sendmsg from the
// frame itself — no encoded copy of the frame is built, so a checkpoint-sized
// payload crosses with one copy per hop. Recv first polls for the frame's first
// bytes with nonblocking recv and sched_yield() for at most kFrameRecvSpin (cut
// at the deadline), then waits as described above. The yield keeps the poll from
// starving its own peer when both share one CPU.
//
// Ring (fork workers): the frame's bytes go through the shared rings and the
// socketpair carries only doorbell bytes and death. A wait for data (or space)
// polls the ring, yielding, for at most kFrameRecvSpin, then raises its parked
// flag, looks once more and poll()s the socket; the peer rings the doorbell only
// when it sees that flag, after publishing its index. Peer death is the socket's
// EOF: between frames it is kUnavailable, mid-frame kDataLoss, and bytes the peer
// published before dying are still delivered.
//
// Not thread-safe: each channel has one owner.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}
  FrameChannel(int fd, std::shared_ptr<FrameRing> ring, FrameRing::End end);
  ~FrameChannel() { Close(); }

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  Status Send(const FedFrame& frame);
  Result<FedFrame> Recv();

  // Convenience round trip: Send, then Recv exactly one reply.
  Result<FedFrame> Call(const FedFrame& frame);

  // Per-frame wall-clock deadline. 0 (the default) keeps the original fully
  // blocking behaviour — fork-mode links rely on it, since worker death there
  // always arrives as EOF. With a positive deadline the fd flips to nonblocking
  // and every Send/Recv must complete its *whole frame* within the budget, else
  // kDeadlineExceeded — how a SIGSTOPped or black-holed TCP peer degrades into a
  // contained cell failure instead of wedging the barrier loop.
  void SetDeadline(Duration deadline);
  Duration deadline() const { return deadline_; }

  int fd() const { return fd_; }
  void Close();

 private:
  // Writes the `count` buffers of `iov` whole, advancing it past short writes.
  Status WriteAll(struct iovec* iov, int count,
                  std::chrono::steady_clock::time_point deadline);
  // Reads exactly `size` bytes. EOF before any byte of a read that starts a
  // frame (`frame_start`) is a clean kUnavailable (the peer left between
  // frames); any other EOF is a mid-frame kDataLoss. On a socket, a read that
  // starts a frame polls without blocking, yielding between attempts, until the
  // first byte arrives or the spin window ends.
  Status ReadAll(uint8_t* data, size_t size, bool frame_start,
                 std::chrono::steady_clock::time_point deadline);
  // The ring halves of WriteAll/ReadAll.
  Status RingWrite(const struct iovec* iov, int count,
                   std::chrono::steady_clock::time_point deadline);
  Status RingRead(uint8_t* data, size_t size, bool frame_start,
                  std::chrono::steady_clock::time_point deadline);
  // Waits until `probe` (one bound-checked look at a peer index) reports bytes
  // (or space); `*parked` is this side's flag in the half being waited on. Sets
  // `*n` to 0 when the peer closed the socket and the probe still reports none.
  template <typename Probe>
  Status RingWait(std::atomic<uint32_t>* parked, Probe probe, size_t* n,
                  std::chrono::steady_clock::time_point deadline);
  // One doorbell byte to the parked peer; failures show at the next wait.
  void RingDoorbell();
  // The end of a wait's poll window: kFrameRecvSpin from now, cut at `deadline`
  // on a deadlined channel.
  std::chrono::steady_clock::time_point SpinCutoff(
      std::chrono::steady_clock::time_point deadline) const;
  // Absolute cutoff for the frame starting now (ignored when deadline_ == 0).
  std::chrono::steady_clock::time_point FrameCutoff() const;

  int fd_ = -1;
  Duration deadline_ = 0;
  std::shared_ptr<FrameRing> ring_;  // null: the bytes go through fd_
  FrameRing::Half* tx_ = nullptr;
  FrameRing::Half* rx_ = nullptr;
  uint64_t tx_pos_ = 0;  // bytes this end has written into tx_ (its head)
  uint64_t rx_pos_ = 0;  // bytes this end has read from rx_ (its tail)
};

}  // namespace presto

#endif  // SRC_NET_FED_WIRE_H_
