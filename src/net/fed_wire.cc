#include "src/net/fed_wire.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/util/bitpack.h"
#include "src/util/ckpt.h"

namespace presto {
namespace {

constexpr uint8_t kMagic[4] = {'P', 'F', 'W', '1'};
constexpr size_t kHeaderBytes = 4 + 1 + 1 + 4;  // magic, version, type, length

using WireClock = std::chrono::steady_clock;

// Waits until fd is ready for `events` (or has an error/hangup to report — the
// subsequent send/recv surfaces it). `has_deadline` false polls indefinitely.
Status WaitReady(int fd, short events, WireClock::time_point deadline,
                 bool has_deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (has_deadline) {
      const auto now = WireClock::now();
      if (now >= deadline) {
        return DeadlineExceededError("fed_wire: frame deadline expired");
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      timeout_ms = static_cast<int>(std::min<long long>(left + 1, 60000));
    }
    struct pollfd entry;
    entry.fd = fd;
    entry.events = events;
    entry.revents = 0;
    const int n = ::poll(&entry, 1, timeout_ms);
    if (n > 0) {
      return OkStatus();
    }
    if (n < 0 && errno != EINTR) {
      return UnavailableError("fed_wire: poll failed");
    }
    // Timed out or EINTR: loop re-checks the absolute deadline.
  }
}

Status SetNonBlocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return UnavailableError("fed_wire: fcntl(F_GETFL) failed");
  }
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return UnavailableError("fed_wire: fcntl(F_SETFL) failed");
  }
  return OkStatus();
}

Status ResolveIpv4(const char* host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host, &addr->sin_addr) != 1) {
    return InvalidArgumentError("fed_wire: endpoint host must be numeric IPv4");
  }
  return OkStatus();
}

void SetNoDelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void PutHeader(uint8_t* out, FedFrameType type, uint32_t length) {
  std::memcpy(out, kMagic, 4);
  out[4] = kFedWireVersion;
  out[5] = static_cast<uint8_t>(type);
  out[6] = static_cast<uint8_t>(length & 0xff);
  out[7] = static_cast<uint8_t>((length >> 8) & 0xff);
  out[8] = static_cast<uint8_t>((length >> 16) & 0xff);
  out[9] = static_cast<uint8_t>((length >> 24) & 0xff);
}

// Validates everything but the payload bytes; fills type + length on success.
Status ParseHeader(const uint8_t* header, FedFrameType* type, uint32_t* length) {
  if (std::memcmp(header, kMagic, 4) != 0) {
    return DataLossError("fed_wire: bad frame magic");
  }
  if (header[4] != kFedWireVersion) {
    return FailedPreconditionError("fed_wire: unsupported protocol version");
  }
  if (header[5] >= kFedFrameTypeCount) {
    return DataLossError("fed_wire: unknown frame type");
  }
  const uint32_t len = static_cast<uint32_t>(header[6]) |
                       (static_cast<uint32_t>(header[7]) << 8) |
                       (static_cast<uint32_t>(header[8]) << 16) |
                       (static_cast<uint32_t>(header[9]) << 24);
  if (len > kMaxFedFramePayload) {
    return DataLossError("fed_wire: oversized frame length prefix");
  }
  *type = static_cast<FedFrameType>(header[5]);
  *length = len;
  return OkStatus();
}

// The EOF flavours: a peer that leaves between frames closed the channel; one
// that leaves inside a frame tore it.
Status EofStatus(bool between_frames) {
  return between_frames ? UnavailableError("fed_wire: peer closed the channel")
                        : DataLossError("fed_wire: mid-frame EOF");
}

// Copies `n` <= kFrameRingBytes bytes into / out of a ring's data at stream
// position `pos`, wrapping at the end.
void RingCopyIn(uint8_t* ring, uint64_t pos, const uint8_t* src, size_t n) {
  const size_t at = static_cast<size_t>(pos & (kFrameRingBytes - 1));
  const size_t first = std::min(n, kFrameRingBytes - at);
  std::memcpy(ring + at, src, first);
  std::memcpy(ring, src + first, n - first);
}

void RingCopyOut(uint8_t* dst, const uint8_t* ring, uint64_t pos, size_t n) {
  const size_t at = static_cast<size_t>(pos & (kFrameRingBytes - 1));
  const size_t first = std::min(n, kFrameRingBytes - at);
  std::memcpy(dst, ring + at, first);
  std::memcpy(dst + first, ring, n - first);
}

}  // namespace

// One direction of a FrameRing; the layout is documented in fed_wire.h.
struct FrameRing::Half {
  alignas(64) std::atomic<uint64_t> head;
  alignas(64) std::atomic<uint64_t> tail;
  alignas(64) std::atomic<uint32_t> reader_parked;
  alignas(64) std::atomic<uint32_t> writer_parked;
  alignas(64) uint8_t data[kFrameRingBytes];
};

namespace {

static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "ring indices must be lock-free (address-free) across processes");
static_assert(std::is_standard_layout<FrameRing::Half>::value &&
                  offsetof(FrameRing::Half, tail) == 64 &&
                  offsetof(FrameRing::Half, reader_parked) == 128 &&
                  offsetof(FrameRing::Half, writer_parked) == 192 &&
                  offsetof(FrameRing::Half, data) == 256,
              "the ring layout is shared with the peer process");
static_assert((kFrameRingBytes & (kFrameRingBytes - 1)) == 0,
              "ring positions wrap by masking");

constexpr size_t kRingLinkBytes = 2 * sizeof(FrameRing::Half);

}  // namespace

Result<std::vector<uint8_t>> EncodeFedFrame(const FedFrame& frame) {
  if (frame.payload.size() > kMaxFedFramePayload) {
    return ResourceExhaustedError("fed_wire: frame payload exceeds the cap");
  }
  std::vector<uint8_t> out(kHeaderBytes + frame.payload.size());
  PutHeader(out.data(), frame.type, static_cast<uint32_t>(frame.payload.size()));
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

Result<FedFrame> DecodeFedFrame(span<const uint8_t> data) {
  if (data.size() < kHeaderBytes) {
    return DataLossError("fed_wire: truncated frame header");
  }
  FedFrameType type;
  uint32_t length = 0;
  PRESTO_RETURN_IF_ERROR(ParseHeader(data.data(), &type, &length));
  if (data.size() < kHeaderBytes + length) {
    return DataLossError("fed_wire: truncated frame payload");
  }
  if (data.size() > kHeaderBytes + length) {
    return DataLossError("fed_wire: trailing bytes after frame");
  }
  FedFrame frame;
  frame.type = type;
  frame.payload.assign(data.data() + kHeaderBytes, data.data() + data.size());
  return frame;
}

void WriteCellBitmap(ByteWriter& w, const std::vector<uint8_t>& flags) {
  w.WriteVarU64(flags.size());
  BitWriter bits;
  for (const uint8_t flag : flags) {
    bits.WriteBits(flag != 0 ? 1 : 0, 1);
  }
  w.WriteBytes(span<const uint8_t>(bits.bytes()));
}

void ReadCellBitmap(ByteReader& r, size_t num_cells, std::vector<uint8_t>* flags) {
  // A failed read's 0 or empty blob fails these checks, or sizes nothing.
  const uint64_t count = r.ReadVarU64();
  if (count != num_cells) {
    return r.Fail(DataLossError("fed_wire: cell bitmap count mismatch"));
  }
  const std::vector<uint8_t> packed = r.ReadBytes();
  if (packed.size() != (num_cells + 7) / 8) {
    return r.Fail(DataLossError("fed_wire: cell bitmap byte count mismatch"));
  }
  BitReader bits(packed);
  flags->assign(num_cells, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    (*flags)[c] = static_cast<uint8_t>(bits.ReadBits(1));
  }
}

Result<int> TcpListen(const char* host, uint16_t port, uint16_t* bound_port) {
  sockaddr_in addr;
  PRESTO_RETURN_IF_ERROR(ResolveIpv4(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError("fed_wire: socket() failed");
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return UnavailableError("fed_wire: bind failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return UnavailableError("fed_wire: listen failed");
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    std::memset(&bound, 0, sizeof(bound));
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return UnavailableError("fed_wire: getsockname failed");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<int> TcpAccept(int listen_fd, Duration deadline) {
  const auto cutoff = WireClock::now() + std::chrono::microseconds(deadline);
  for (;;) {
    PRESTO_RETURN_IF_ERROR(WaitReady(listen_fd, POLLIN, cutoff, deadline > 0));
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      SetNoDelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      continue;  // the connection evaporated between poll and accept
    }
    return UnavailableError("fed_wire: accept failed");
  }
}

Result<int> TcpConnect(const char* host, uint16_t port, Duration deadline) {
  sockaddr_in addr;
  PRESTO_RETURN_IF_ERROR(ResolveIpv4(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError("fed_wire: socket() failed");
  }
  Status mode = SetNonBlocking(fd, true);
  if (!mode.ok()) {
    ::close(fd);
    return mode;
  }
  const auto cutoff = WireClock::now() + std::chrono::microseconds(deadline);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return UnavailableError("fed_wire: connect failed");
  }
  if (rc != 0) {
    const Status ready = WaitReady(fd, POLLOUT, cutoff, deadline > 0);
    if (!ready.ok()) {
      ::close(fd);
      return ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return UnavailableError("fed_wire: connect failed");
    }
  }
  mode = SetNonBlocking(fd, false);
  if (!mode.ok()) {
    ::close(fd);
    return mode;
  }
  SetNoDelay(fd);
  return fd;
}

std::vector<uint8_t> EncodeFedHello(const FedHello& hello) {
  ByteWriter w;
  CkptWrite(w, hello);
  return w.TakeBuffer();
}

Status DecodeFedHello(span<const uint8_t> payload, FedHello* hello) {
  ByteReader r(payload);
  CkptRead(r, *hello);
  if (!r.ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return DataLossError("fed_wire: trailing bytes after hello");
  }
  if (hello->num_workers < 1 || hello->worker_index < 0 ||
      hello->worker_index >= hello->num_workers) {
    return DataLossError("fed_wire: hello cell assignment out of range");
  }
  return OkStatus();
}

Status FedHelloClient(FrameChannel& channel, int worker_index, int num_workers) {
  FedHello hello;
  hello.version = kFedWireVersion;
  hello.worker_index = worker_index;
  hello.num_workers = num_workers;
  FedFrame frame;
  frame.type = FedFrameType::kHello;
  frame.payload = EncodeFedHello(hello);
  auto reply = channel.Call(frame);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type == FedFrameType::kError) {
    ByteReader r(span<const uint8_t>(reply->payload));
    Status refused = OkStatus();
    CkptRead(r, refused);
    if (!r.ok() || refused.ok()) {
      return DataLossError("fed_wire: malformed hello refusal");
    }
    return refused;
  }
  if (reply->type != FedFrameType::kAck) {
    return DataLossError("fed_wire: unexpected hello reply type");
  }
  FedHello theirs;
  PRESTO_RETURN_IF_ERROR(DecodeFedHello(span<const uint8_t>(reply->payload),
                                        &theirs));
  if (theirs.version != kFedWireVersion) {
    return FailedPreconditionError(
        "fed_wire: worker advertises an unsupported protocol version");
  }
  if (theirs.worker_index != worker_index || theirs.num_workers != num_workers) {
    return FailedPreconditionError(
        "fed_wire: worker acknowledged a different cell assignment");
  }
  return OkStatus();
}

Result<FedHello> FedHelloServer(FrameChannel& channel) {
  auto request = channel.Recv();
  if (!request.ok()) {
    return request.status();
  }
  const auto refuse = [&channel](Status why) -> Status {
    FedFrame reply;
    reply.type = FedFrameType::kError;
    ByteWriter w;
    CkptWrite(w, why);
    reply.payload = w.TakeBuffer();
    (void)channel.Send(reply);
    return why;
  };
  if (request->type != FedFrameType::kHello) {
    return refuse(
        FailedPreconditionError("fed_wire: expected a hello handshake frame"));
  }
  FedHello hello;
  const Status decoded =
      DecodeFedHello(span<const uint8_t>(request->payload), &hello);
  if (!decoded.ok()) {
    return refuse(decoded);
  }
  if (hello.version != kFedWireVersion) {
    return refuse(FailedPreconditionError(
        "fed_wire: unsupported protocol version"));
  }
  FedFrame ack;
  ack.type = FedFrameType::kAck;
  FedHello mine = hello;
  mine.version = kFedWireVersion;
  ack.payload = EncodeFedHello(mine);
  PRESTO_RETURN_IF_ERROR(channel.Send(ack));
  return hello;
}

Result<std::shared_ptr<FrameRing>> FrameRing::Create() {
  const int fd = ::memfd_create("presto_fed_ring", MFD_CLOEXEC);
  if (fd < 0) {
    return UnavailableError("fed_wire: memfd_create failed");
  }
  if (::ftruncate(fd, static_cast<off_t>(kRingLinkBytes)) != 0) {
    ::close(fd);
    return UnavailableError("fed_wire: sizing the ring mapping failed");
  }
  void* base =
      ::mmap(nullptr, kRingLinkBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    ::close(fd);
    return UnavailableError("fed_wire: mapping the ring failed");
  }
  // A fresh memfd reads as zeros: both indices and both flags start at 0.
  return std::make_shared<FrameRing>(base, fd);
}

Result<std::shared_ptr<FrameRing>> FrameRing::Map(int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size != static_cast<off_t>(kRingLinkBytes)) {
    ::close(fd);
    return FailedPreconditionError("fed_wire: ring mapping has the wrong size");
  }
  void* base =
      ::mmap(nullptr, kRingLinkBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return UnavailableError("fed_wire: mapping the ring failed");
  }
  return std::make_shared<FrameRing>(base, -1);
}

FrameRing::~FrameRing() {
  ::munmap(base_, kRingLinkBytes);
  CloseFd();
}

void FrameRing::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameRing::Half* FrameRing::tx(End end) const {
  return static_cast<Half*>(base_) + (end == End::kOrchestrator ? 0 : 1);
}

FrameRing::Half* FrameRing::rx(End end) const {
  return static_cast<Half*>(base_) + (end == End::kOrchestrator ? 1 : 0);
}

FrameChannel::FrameChannel(int fd, std::shared_ptr<FrameRing> ring, FrameRing::End end)
    : fd_(fd), ring_(std::move(ring)), tx_(ring_->tx(end)), rx_(ring_->rx(end)) {}

void FrameChannel::SetDeadline(Duration deadline) {
  deadline_ = deadline > 0 ? deadline : 0;
  if (fd_ >= 0) {
    (void)SetNonBlocking(fd_, deadline_ > 0);
  }
}

std::chrono::steady_clock::time_point FrameChannel::FrameCutoff() const {
  return WireClock::now() + std::chrono::microseconds(deadline_);
}

Status FrameChannel::WriteAll(struct iovec* iov, int count,
                              std::chrono::steady_clock::time_point deadline) {
  if (fd_ < 0) {
    return UnavailableError("fed_wire: channel closed");
  }
  if (ring_ != nullptr) {
    return RingWrite(iov, count, deadline);
  }
  while (count > 0) {
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(count);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (deadline_ > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        PRESTO_RETURN_IF_ERROR(WaitReady(fd_, POLLOUT, deadline, true));
        continue;
      }
      return UnavailableError("fed_wire: send failed (peer gone?)");
    }
    // Drop what went out; a short write may end inside either buffer.
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return OkStatus();
}

Status FrameChannel::ReadAll(uint8_t* data, size_t size, bool frame_start,
                             std::chrono::steady_clock::time_point deadline) {
  if (fd_ < 0) {
    return UnavailableError("fed_wire: channel closed");
  }
  if (ring_ != nullptr) {
    return RingRead(data, size, frame_start, deadline);
  }
  // Only a frame's first bytes are polled for; the rest follow them closely.
  const auto spin_until = SpinCutoff(deadline);
  size_t done = 0;
  bool spinning = frame_start;
  while (done < size) {
    const ssize_t n = ::recv(fd_, data + done, size - done, spinning ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (spinning && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        spinning = WireClock::now() < spin_until;
        if (spinning) {
          ::sched_yield();
        }
        continue;
      }
      if (deadline_ > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        PRESTO_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, deadline, true));
        continue;
      }
      return UnavailableError("fed_wire: recv failed");
    }
    if (n == 0) {
      return EofStatus(frame_start && done == 0);
    }
    done += static_cast<size_t>(n);
    spinning = false;
  }
  return OkStatus();
}

std::chrono::steady_clock::time_point FrameChannel::SpinCutoff(
    std::chrono::steady_clock::time_point deadline) const {
  const auto spin_until =
      WireClock::now() + std::chrono::microseconds(kFrameRecvSpin);
  return deadline_ > 0 ? std::min(spin_until, deadline) : spin_until;
}

template <typename Probe>
Status FrameChannel::RingWait(std::atomic<uint32_t>* parked, Probe probe, size_t* n,
                              std::chrono::steady_clock::time_point deadline) {
  PRESTO_RETURN_IF_ERROR(probe(n));
  if (*n > 0) {
    return OkStatus();
  }
  // Poll the ring, yielding the CPU between looks (the peer may share it).
  const auto spin_until = SpinCutoff(deadline);
  while (WireClock::now() < spin_until) {
    ::sched_yield();
    PRESTO_RETURN_IF_ERROR(probe(n));
    if (*n > 0) {
      return OkStatus();
    }
  }
  // Park: raise the flag, then look once more. The peer publishes its index and
  // then reads the flag (both sequentially consistent), so either this look sees
  // the bytes or the peer sees the flag and rings the doorbell.
  for (;;) {
    parked->store(1, std::memory_order_seq_cst);
    const Status looked = probe(n);
    if (!looked.ok() || *n > 0) {
      parked->store(0, std::memory_order_seq_cst);
      return looked;
    }
    const Status woke = WaitReady(fd_, POLLIN, deadline, deadline_ > 0);
    if (!woke.ok()) {
      parked->store(0, std::memory_order_seq_cst);
      return woke;
    }
    // Drain the doorbells (stale ones included: a wake-up only means "look").
    uint8_t bells[64];
    const ssize_t got = ::recv(fd_, bells, sizeof(bells), MSG_DONTWAIT);
    parked->store(0, std::memory_order_seq_cst);
    if (got == 0) {
      // The peer is gone; what it published before it left still counts.
      return probe(n);
    }
    if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return UnavailableError("fed_wire: recv failed");
    }
  }
}

void FrameChannel::RingDoorbell() {
  const uint8_t bell = 1;
  (void)::send(fd_, &bell, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
}

Status FrameChannel::RingWrite(const struct iovec* iov, int count,
                               std::chrono::steady_clock::time_point deadline) {
  FrameRing::Half& ring = *tx_;
  // The peer's tail, read once: at most a ring's worth behind this end's head.
  const auto space = [this, &ring](size_t* n) -> Status {
    const uint64_t used = tx_pos_ - ring.tail.load(std::memory_order_seq_cst);
    if (used > kFrameRingBytes) {
      return DataLossError("fed_wire: ring index out of range");
    }
    *n = kFrameRingBytes - used;
    return OkStatus();
  };
  const auto publish = [this, &ring] {
    ring.head.store(tx_pos_, std::memory_order_seq_cst);
    if (ring.reader_parked.load(std::memory_order_seq_cst) != 0 &&
        ring.reader_parked.exchange(0, std::memory_order_seq_cst) != 0) {
      RingDoorbell();
    }
  };
  for (int i = 0; i < count; ++i) {
    const uint8_t* src = static_cast<const uint8_t*>(iov[i].iov_base);
    size_t left = iov[i].iov_len;
    while (left > 0) {
      size_t room = 0;
      PRESTO_RETURN_IF_ERROR(space(&room));
      if (room == 0) {
        publish();  // the reader must see what fills the ring before it can drain it
        PRESTO_RETURN_IF_ERROR(RingWait(&ring.writer_parked, space, &room, deadline));
        if (room == 0) {
          return UnavailableError("fed_wire: send failed (peer gone?)");
        }
      }
      const size_t n = std::min(room, left);
      RingCopyIn(ring.data, tx_pos_, src, n);
      tx_pos_ += n;
      src += n;
      left -= n;
    }
  }
  publish();
  return OkStatus();
}

Status FrameChannel::RingRead(uint8_t* data, size_t size, bool frame_start,
                              std::chrono::steady_clock::time_point deadline) {
  FrameRing::Half& ring = *rx_;
  // The peer's head, read once: at most a ring's worth ahead of this end's tail.
  const auto ready = [this, &ring](size_t* n) -> Status {
    const uint64_t avail = ring.head.load(std::memory_order_seq_cst) - rx_pos_;
    if (avail > kFrameRingBytes) {
      return DataLossError("fed_wire: ring index out of range");
    }
    *n = static_cast<size_t>(avail);
    return OkStatus();
  };
  size_t done = 0;
  while (done < size) {
    size_t avail = 0;
    PRESTO_RETURN_IF_ERROR(RingWait(&ring.reader_parked, ready, &avail, deadline));
    if (avail == 0) {
      return EofStatus(frame_start && done == 0);
    }
    const size_t n = std::min(avail, size - done);
    RingCopyOut(data + done, ring.data, rx_pos_, n);
    rx_pos_ += n;
    done += n;
    ring.tail.store(rx_pos_, std::memory_order_seq_cst);
    if (ring.writer_parked.load(std::memory_order_seq_cst) != 0 &&
        ring.writer_parked.exchange(0, std::memory_order_seq_cst) != 0) {
      RingDoorbell();
    }
  }
  return OkStatus();
}

Status FrameChannel::Send(const FedFrame& frame) {
  if (frame.payload.size() > kMaxFedFramePayload) {
    return ResourceExhaustedError("fed_wire: frame payload exceeds the cap");
  }
  // Header and payload leave in one write, straight from the caller's buffer:
  // the bytes of EncodeFedFrame(frame), without building them.
  uint8_t header[kHeaderBytes];
  PutHeader(header, frame.type, static_cast<uint32_t>(frame.payload.size()));
  struct iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<uint8_t*>(frame.payload.data());
  iov[1].iov_len = frame.payload.size();
  return WriteAll(iov, frame.payload.empty() ? 1 : 2, FrameCutoff());
}

Result<FedFrame> FrameChannel::Recv() {
  const auto cutoff = FrameCutoff();
  uint8_t header[kHeaderBytes];
  PRESTO_RETURN_IF_ERROR(ReadAll(header, sizeof(header), /*frame_start=*/true, cutoff));
  FedFrameType type;
  uint32_t length = 0;
  PRESTO_RETURN_IF_ERROR(ParseHeader(header, &type, &length));
  FedFrame frame;
  frame.type = type;
  frame.payload.resize(length);
  if (length > 0) {
    PRESTO_RETURN_IF_ERROR(
        ReadAll(frame.payload.data(), length, /*frame_start=*/false, cutoff));
  }
  return frame;
}

Result<FedFrame> FrameChannel::Call(const FedFrame& frame) {
  PRESTO_RETURN_IF_ERROR(Send(frame));
  return Recv();
}

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ring_.reset();
  tx_ = nullptr;
  rx_ = nullptr;
}

}  // namespace presto
