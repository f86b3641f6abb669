#include "src/net/fed_wire.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
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

void CkptWrite(ByteWriter& w, const FedMail& v) {
  CkptWrite(w, v.source_cell);
  CkptWrite(w, v.target_cell);
  CkptWrite(w, v.time);
  CkptWrite(w, v.op);
  CkptWrite(w, v.qid);
  w.WriteBytes(span<const uint8_t>(v.body));
}

Status CkptRead(ByteReader& r, FedMail& v) {
  CKPT_READ(r, v.source_cell);
  CKPT_READ(r, v.target_cell);
  CKPT_READ(r, v.time);
  CKPT_READ(r, v.op);
  CKPT_READ(r, v.qid);
  auto body = r.ReadBytes();
  if (!body.ok()) {
    return body.status();
  }
  v.body = std::move(*body);
  return OkStatus();
}

void WriteCellBitmap(ByteWriter& w, const std::vector<uint8_t>& flags) {
  w.WriteVarU64(flags.size());
  BitWriter bits;
  for (const uint8_t flag : flags) {
    bits.WriteBits(flag != 0 ? 1 : 0, 1);
  }
  w.WriteBytes(span<const uint8_t>(bits.bytes()));
}

Status ReadCellBitmap(ByteReader& r, size_t num_cells, std::vector<uint8_t>* flags) {
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count != num_cells) {
    return DataLossError("fed_wire: cell bitmap count mismatch");
  }
  auto packed = r.ReadBytes();
  if (!packed.ok()) {
    return packed.status();
  }
  if (packed->size() != (num_cells + 7) / 8) {
    return DataLossError("fed_wire: cell bitmap byte count mismatch");
  }
  BitReader bits(*packed);
  flags->assign(num_cells, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    (*flags)[c] = static_cast<uint8_t>(bits.ReadBits(1));
  }
  return OkStatus();
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
  w.WriteU8(hello.version);
  CkptWrite(w, hello.worker_index);
  CkptWrite(w, hello.num_workers);
  return w.TakeBuffer();
}

Status DecodeFedHello(span<const uint8_t> payload, FedHello* hello) {
  ByteReader r(payload);
  auto version = r.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  hello->version = *version;
  CKPT_READ(r, hello->worker_index);
  CKPT_READ(r, hello->num_workers);
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
    if (!CkptRead(r, refused).ok() || refused.ok()) {
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

Status FrameChannel::ReadAll(uint8_t* data, size_t size, bool* eof_at_start,
                             std::chrono::steady_clock::time_point deadline,
                             Duration spin) {
  if (fd_ < 0) {
    return UnavailableError("fed_wire: channel closed");
  }
  const auto spin_until = WireClock::now() + std::chrono::microseconds(spin);
  size_t done = 0;
  bool spinning = spin > 0;
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
      if (eof_at_start != nullptr) {
        *eof_at_start = (done == 0);
      }
      return done == 0 ? UnavailableError("fed_wire: peer closed the channel")
                       : DataLossError("fed_wire: mid-frame EOF");
    }
    done += static_cast<size_t>(n);
    spinning = false;
  }
  return OkStatus();
}

Status FrameChannel::Send(const FedFrame& frame) {
  if (frame.payload.size() > kMaxFedFramePayload) {
    return ResourceExhaustedError("fed_wire: frame payload exceeds the cap");
  }
  // Header and payload leave in one sendmsg, straight from the caller's buffer:
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
  Duration spin = kFrameRecvSpin;
  if (deadline_ > 0) {
    spin = std::min(spin, deadline_);  // the poll window ends at the deadline
  }
  uint8_t header[kHeaderBytes];
  bool eof_at_start = false;
  PRESTO_RETURN_IF_ERROR(ReadAll(header, sizeof(header), &eof_at_start, cutoff, spin));
  FedFrameType type;
  uint32_t length = 0;
  PRESTO_RETURN_IF_ERROR(ParseHeader(header, &type, &length));
  FedFrame frame;
  frame.type = type;
  frame.payload.resize(length);
  if (length > 0) {
    PRESTO_RETURN_IF_ERROR(ReadAll(frame.payload.data(), length, nullptr, cutoff, 0));
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
}

}  // namespace presto
