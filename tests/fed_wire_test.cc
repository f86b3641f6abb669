// fed_wire tests: frame round-trips, the malformed-input suite (every corrupt
// header shape must come back as a clean Status — the parent orchestrator treats
// a PRESTO_CHECK in the decode path as a crashed worker, so decode must stay
// total on arbitrary bytes), the FedMail / cell-bitmap codecs, and the blocking
// FrameChannel over a real socketpair including both EOF flavors and its receive
// policy (poll briefly, then wait), and over a shared ring (fork workers): a
// two-thread stress, forked peers that die or send late, and hostile ring words.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/fed_wire.h"
#include "src/util/ckpt.h"
#include "tests/read_status.h"

namespace presto {
namespace {

std::vector<uint8_t> MustEncode(const FedFrame& frame) {
  auto encoded = EncodeFedFrame(frame);
  EXPECT_TRUE(encoded.ok()) << encoded.status().message();
  return *encoded;
}

// ---------- frame codec ----------

TEST(FedWireFrameTest, RoundTripsEveryFrameType) {
  for (uint8_t t = 0; t < kFedFrameTypeCount; ++t) {
    FedFrame frame;
    frame.type = static_cast<FedFrameType>(t);
    frame.payload = {t, 0xaa, 0x55};
    const std::vector<uint8_t> bytes = MustEncode(frame);
    auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->type, frame.type);
    EXPECT_EQ(decoded->payload, frame.payload);
  }
}

TEST(FedWireFrameTest, RoundTripsEmptyAndLargePayloads) {
  FedFrame empty;
  empty.type = FedFrameType::kStart;
  auto decoded = DecodeFedFrame(span<const uint8_t>(MustEncode(empty)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());

  FedFrame big;
  big.type = FedFrameType::kCkptSave;
  big.payload.resize(1 << 20);
  for (size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<uint8_t>(i * 2654435761u);
  }
  auto round = DecodeFedFrame(span<const uint8_t>(MustEncode(big)));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->payload, big.payload);
}

TEST(FedWireMalformedTest, TruncatedHeader) {
  const std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  for (size_t cut = 0; cut < 10; ++cut) {
    auto decoded =
        DecodeFedFrame(span<const uint8_t>(bytes.data(), std::min(cut, bytes.size())));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(decoded.status().message(), "fed_wire: truncated frame header");
  }
}

TEST(FedWireMalformedTest, BadMagic) {
  std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  bytes[0] = 'X';
  auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "fed_wire: bad frame magic");
}

TEST(FedWireMalformedTest, UnsupportedVersion) {
  std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  bytes[4] = kFedWireVersion + 1;
  auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded.status().message(), "fed_wire: unsupported protocol version");
}

TEST(FedWireMalformedTest, UnknownFrameType) {
  std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  bytes[5] = kFedFrameTypeCount;
  auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "fed_wire: unknown frame type");
  bytes[5] = 0xff;
  EXPECT_FALSE(DecodeFedFrame(span<const uint8_t>(bytes)).ok());
}

TEST(FedWireMalformedTest, OversizedLengthPrefix) {
  // A corrupt length prefix far above the cap must be rejected *before* any
  // allocation sized from it.
  std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  bytes[6] = 0xff;
  bytes[7] = 0xff;
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "fed_wire: oversized frame length prefix");
}

TEST(FedWireMalformedTest, TruncatedAndTrailingPayload) {
  FedFrame frame;
  frame.type = FedFrameType::kStep;
  frame.payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> bytes = MustEncode(frame);
  auto truncated = DecodeFedFrame(span<const uint8_t>(bytes.data(), bytes.size() - 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().message(), "fed_wire: truncated frame payload");
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  auto extra = DecodeFedFrame(span<const uint8_t>(trailing));
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().message(), "fed_wire: trailing bytes after frame");
}

// ---------- FedMail + cell bitmap codecs ----------

TEST(FedWireCodecTest, FedMailRoundTrips) {
  FedMail mail;
  mail.source_cell = 3;
  mail.target_cell = 11;
  mail.time = Minutes(90) + Millis(250);
  mail.op = 2;
  mail.qid = (1ull << 40) + 17;
  mail.body = {0xde, 0xad, 0xbe, 0xef};
  ByteWriter w;
  CkptWrite(w, mail);
  ByteReader r{span<const uint8_t>(w.buffer())};
  FedMail back;
  ASSERT_TRUE(ReadStatus(r, back).ok());
  EXPECT_EQ(back.source_cell, mail.source_cell);
  EXPECT_EQ(back.target_cell, mail.target_cell);
  EXPECT_EQ(back.time, mail.time);
  EXPECT_EQ(back.op, mail.op);
  EXPECT_EQ(back.qid, mail.qid);
  EXPECT_EQ(back.body, mail.body);
  EXPECT_EQ(r.remaining(), 0u);

  // Truncation anywhere inside the record is a clean error.
  for (size_t cut = 0; cut < w.buffer().size(); ++cut) {
    ByteReader short_reader{span<const uint8_t>(w.buffer().data(), cut)};
    FedMail scratch;
    EXPECT_FALSE(ReadStatus(short_reader, scratch).ok()) << "cut=" << cut;
  }
}

TEST(FedWireCodecTest, CellBitmapRoundTripsAcrossWidths) {
  for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{64},
                         size_t{65}}) {
    std::vector<uint8_t> flags(n, 0);
    for (size_t c = 0; c < n; c += 3) {
      flags[c] = 1;
    }
    ByteWriter w;
    WriteCellBitmap(w, flags);
    ByteReader r{span<const uint8_t>(w.buffer())};
    std::vector<uint8_t> back;
    ReadCellBitmap(r, n, &back);
    ASSERT_TRUE(r.ok()) << "n=" << n;
    EXPECT_EQ(back, flags) << "n=" << n;
  }
}

TEST(FedWireCodecTest, CellBitmapRejectsCountMismatch) {
  std::vector<uint8_t> flags(8, 1);
  ByteWriter w;
  WriteCellBitmap(w, flags);
  ByteReader r{span<const uint8_t>(w.buffer())};
  std::vector<uint8_t> back;
  ReadCellBitmap(r, 9, &back);
  const Status& st = r.status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "fed_wire: cell bitmap count mismatch");
}

// ---------- FrameChannel over a socketpair ----------

struct ChannelPair {
  ChannelPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<FrameChannel>(fds[0]);
    b = std::make_unique<FrameChannel>(fds[1]);
  }
  std::unique_ptr<FrameChannel> a;
  std::unique_ptr<FrameChannel> b;
};

TEST(FrameChannelTest, SendRecvRoundTripsLargeFrames) {
  ChannelPair pair;
  FedFrame frame;
  frame.type = FedFrameType::kCkptLoad;
  frame.payload.resize(3 << 20);  // > socket buffer: exercises the write/read loops
  for (size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<uint8_t>(i ^ (i >> 11));
  }
  // Sender on a second thread — a 3 MiB frame does not fit in the kernel buffer,
  // so a single-threaded send would deadlock against our own pending read.
  std::thread sender([&] {
    EXPECT_TRUE(pair.a->Send(frame).ok());
  });
  auto received = pair.b->Recv();
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->type, frame.type);
  EXPECT_EQ(received->payload, frame.payload);
}

TEST(FrameChannelTest, CallRoundTrips) {
  ChannelPair pair;
  std::thread echo([&] {
    auto request = pair.b->Recv();
    ASSERT_TRUE(request.ok());
    FedFrame reply;
    reply.type = FedFrameType::kAck;
    reply.payload = request->payload;
    EXPECT_TRUE(pair.b->Send(reply).ok());
  });
  FedFrame request;
  request.type = FedFrameType::kSnapshot;
  request.payload = {9, 8, 7};
  auto reply = pair.a->Call(request);
  echo.join();
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_EQ(reply->type, FedFrameType::kAck);
  EXPECT_EQ(reply->payload, request.payload);
}

TEST(FrameChannelTest, CleanEofBetweenFramesIsUnavailable) {
  // Peer exits between frames: the reader sees EOF before any header byte — the
  // "worker left cleanly" signal, distinct from a torn frame.
  ChannelPair pair;
  pair.a->Close();
  auto received = pair.b->Recv();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(received.status().message(), "fed_wire: peer closed the channel");
}

TEST(FrameChannelTest, MidFrameEofIsDataLoss) {
  // Peer dies mid-header: a torn frame must be reported as data loss, not as a
  // clean shutdown — the parent marks the worker crashed either way, but the
  // distinction matters for diagnostics.
  ChannelPair pair;
  const std::vector<uint8_t> whole = MustEncode(FedFrame{});
  ASSERT_EQ(::write(pair.a->fd(), whole.data(), 4), 4);
  pair.a->Close();
  auto received = pair.b->Recv();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(received.status().message(), "fed_wire: mid-frame EOF");
}

TEST(FrameChannelTest, CorruptHeaderOnTheWireIsRejected) {
  ChannelPair pair;
  std::vector<uint8_t> bytes = MustEncode(FedFrame{});
  bytes[0] = '?';  // break the magic
  ASSERT_EQ(::write(pair.a->fd(), bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  auto received = pair.b->Recv();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().message(), "fed_wire: bad frame magic");
}

TEST(FrameChannelTest, ClosedChannelFailsBothDirections) {
  ChannelPair pair;
  pair.a->Close();
  EXPECT_EQ(pair.a->fd(), -1);
  EXPECT_FALSE(pair.a->Send(FedFrame{}).ok());
  EXPECT_FALSE(pair.a->Recv().ok());
}

// Reads exactly `n` raw bytes from `fd`, slowly: 1, 3, 7, ... byte reads (the
// first ones land inside the frame header) with a pause before each, capped at
// 64 KiB. Stops early on EOF or error.
std::vector<uint8_t> ReadRawSlowly(int fd, size_t n) {
  std::vector<uint8_t> out(n);
  size_t done = 0;
  size_t chunk = 1;
  while (done < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const ssize_t got = ::recv(fd, out.data() + done, std::min(chunk, n - done), 0);
    if (got <= 0) {
      break;
    }
    done += static_cast<size_t>(got);
    chunk = std::min<size_t>(chunk * 2 + 1, 64 << 10);
  }
  out.resize(done);
  return out;
}

TEST(FrameChannelTest, SendPutsExactlyTheEncodedFrameOnTheWire) {
  // Send writes header + payload with one sendmsg from the frame itself; the
  // bytes on the wire must be EncodeFedFrame's. A deadlined (nonblocking) sender
  // with small socket buffers against a slow reader makes sendmsg return short,
  // so the loop resumes mid-iovec — wherever the kernel cut.
  for (const size_t size : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                            size_t{8} << 20}) {
    SCOPED_TRACE(size);
    ChannelPair pair;
    const int small = 4096;
    ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
              0);
    ASSERT_EQ(::setsockopt(pair.b->fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)),
              0);
    pair.a->SetDeadline(Seconds(60));
    FedFrame frame;
    frame.type = FedFrameType::kCkptLoad;
    frame.payload.resize(size);
    for (size_t i = 0; i < size; ++i) {
      frame.payload[i] = static_cast<uint8_t>((i * 131) ^ (i >> 13));
    }
    const std::vector<uint8_t> expected = MustEncode(frame);
    std::thread sender([&] { EXPECT_TRUE(pair.a->Send(frame).ok()); });
    const std::vector<uint8_t> raw = ReadRawSlowly(pair.b->fd(), expected.size());
    sender.join();
    EXPECT_TRUE(raw == expected) << "wire bytes differ from EncodeFedFrame";
    // Nothing follows the frame.
    pair.a->Close();
    uint8_t extra = 0;
    EXPECT_EQ(::recv(pair.b->fd(), &extra, 1, 0), 0);
  }
}

TEST(FrameChannelTest, SendToAClosedPeerIsUnavailable) {
  for (const Duration deadline : {Duration{0}, Seconds(5)}) {
    ChannelPair pair;
    pair.a->SetDeadline(deadline);
    pair.b->Close();
    FedFrame frame;
    frame.type = FedFrameType::kCkptLoad;
    frame.payload.assign(1 << 20, 0x5a);
    const Status sent = pair.a->Send(frame);
    EXPECT_EQ(sent.code(), StatusCode::kUnavailable) << sent.message();
  }
}

// ---------- receive policy: poll for kFrameRecvSpin, then wait ----------

Duration ElapsedSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Far longer than the poll window, so the reader has fallen back to its wait.
constexpr Duration kPastTheSpin = Millis(20);
static_assert(kPastTheSpin > 100 * kFrameRecvSpin);

FedFrame PatternFrame(size_t size) {
  FedFrame frame;
  frame.type = FedFrameType::kStep;
  frame.payload.resize(size);
  for (size_t i = 0; i < size; ++i) {
    frame.payload[i] = static_cast<uint8_t>(i * 7 + (i >> 8));
  }
  return frame;
}

TEST(FrameChannelTest, LateFrameArrivesThroughTheWait) {
  // Blocking (fork socketpair, TCP after the hello) and deadlined (orchestrator TCP)
  // channels both stop polling and wait for a frame sent long after the window.
  for (const Duration deadline : {Duration{0}, Seconds(30)}) {
    SCOPED_TRACE(deadline);
    ChannelPair pair;
    pair.b->SetDeadline(deadline);
    const FedFrame frame = PatternFrame(64 << 10);
    std::thread peer([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(kPastTheSpin));
      EXPECT_TRUE(pair.a->Send(frame).ok());
    });
    const auto start = std::chrono::steady_clock::now();
    auto received = pair.b->Recv();
    const Duration waited = ElapsedSince(start);
    peer.join();
    ASSERT_TRUE(received.ok()) << received.status().message();
    EXPECT_EQ(received->type, frame.type);
    EXPECT_EQ(received->payload, frame.payload);
    EXPECT_GE(waited, kPastTheSpin / 2);
  }
}

TEST(FrameChannelTest, PayloadPausedPastTheWindowArrivesWhole) {
  // Only a frame's first bytes are polled for: a header that arrives alone, its payload
  // a pause later, is finished by the plain wait.
  for (const Duration deadline : {Duration{0}, Seconds(30)}) {
    SCOPED_TRACE(deadline);
    ChannelPair pair;
    pair.b->SetDeadline(deadline);
    const FedFrame frame = PatternFrame(4096);
    const std::vector<uint8_t> bytes = MustEncode(frame);
    const size_t header = bytes.size() - frame.payload.size();
    std::thread peer([&] {
      ASSERT_EQ(::write(pair.a->fd(), bytes.data(), header),
                static_cast<ssize_t>(header));
      std::this_thread::sleep_for(std::chrono::microseconds(kPastTheSpin));
      ASSERT_EQ(::write(pair.a->fd(), bytes.data() + header, bytes.size() - header),
                static_cast<ssize_t>(bytes.size() - header));
    });
    auto received = pair.b->Recv();
    peer.join();
    ASSERT_TRUE(received.ok()) << received.status().message();
    EXPECT_EQ(received->type, frame.type);
    EXPECT_EQ(received->payload, frame.payload);
  }
}

TEST(FrameChannelTest, DeadlineInsideTheWindowStillExpires) {
  // The poll window ends at the frame's deadline: a deadline shorter than the window
  // expires on time instead of waiting out the window or blocking.
  ChannelPair pair;
  const Duration deadline = kFrameRecvSpin / 5;
  ASSERT_GT(deadline, 0);
  pair.b->SetDeadline(deadline);
  const auto start = std::chrono::steady_clock::now();
  auto received = pair.b->Recv();
  const Duration waited = ElapsedSince(start);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(received.status().message(), "fed_wire: frame deadline expired");
  EXPECT_LT(waited, deadline + Millis(100));
  // The channel stays usable for the next frame.
  ASSERT_TRUE(pair.a->Send(PatternFrame(16)).ok());
  pair.b->SetDeadline(Seconds(30));
  auto next = pair.b->Recv();
  ASSERT_TRUE(next.ok()) << next.status().message();
  EXPECT_EQ(next->payload, PatternFrame(16).payload);
}

// ---------- FrameChannel over a shared ring (fork workers) ----------

// Both ends of one ring link in this process, sharing one mapping (so the thread
// sanitizer sees every ring access of both ends).
struct RingLink {
  RingLink() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    auto made = FrameRing::Create();
    EXPECT_TRUE(made.ok()) << made.status().message();
    ring = *made;
    orchestrator =
        std::make_unique<FrameChannel>(fds[0], ring, FrameRing::End::kOrchestrator);
    worker = std::make_unique<FrameChannel>(fds[1], ring, FrameRing::End::kWorker);
  }
  std::shared_ptr<FrameRing> ring;
  std::unique_ptr<FrameChannel> orchestrator;
  std::unique_ptr<FrameChannel> worker;
};

TEST(FrameRingTest, TwoThreadStressStreamsWrapsAndParks) {
  // An echo server on a second thread. Frame sizes cover the empty frame, a frame
  // that ends exactly at the ring's end, frames several rings long and odd sizes
  // whose bytes straddle the wrap; pauses far past the poll window make both
  // ends park — the reader for data, the writer for space — and wake on a
  // doorbell.
  RingLink link;
  const size_t header = MustEncode(FedFrame{}).size();
  std::vector<size_t> sizes = {0, 1, kFrameRingBytes - header, kFrameRingBytes,
                               3 * kFrameRingBytes + 17};
  uint64_t mix = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 60; ++i) {
    mix = mix * 6364136223846793005ull + 1442695040888963407ull;
    sizes.push_back(static_cast<size_t>(mix >> 33) % (2 * kFrameRingBytes));
  }
  const auto pause_before = [](size_t i) { return i % 7 == 3; };
  std::thread echo([&] {
    for (size_t i = 0; i < sizes.size(); ++i) {
      if (pause_before(i)) {
        // The orchestrator's send fills the ring and parks for space.
        std::this_thread::sleep_for(std::chrono::microseconds(kPastTheSpin / 4));
      }
      auto request = link.worker->Recv();
      ASSERT_TRUE(request.ok()) << request.status().message();
      FedFrame reply;
      reply.type = FedFrameType::kAck;
      reply.payload = std::move(request->payload);
      if (i % 5 == 1) {
        // The orchestrator parks for the reply.
        std::this_thread::sleep_for(std::chrono::microseconds(kPastTheSpin / 4));
      }
      ASSERT_TRUE(link.worker->Send(reply).ok());
    }
  });
  for (size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE(i);
    FedFrame frame = PatternFrame(sizes[i]);
    for (size_t k = 0; k < frame.payload.size(); k += 97) {
      frame.payload[k] ^= static_cast<uint8_t>(i);
    }
    auto reply = link.orchestrator->Call(frame);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->type, FedFrameType::kAck);
    EXPECT_TRUE(reply->payload == frame.payload);
  }
  echo.join();
}

// Forks a peer that runs `body` on the worker end of a fresh ring link and exits
// with its result; the parent keeps the orchestrator end. Everything the child
// touches is built before the fork.
struct ForkedPeer {
  pid_t pid = -1;
  std::unique_ptr<FrameChannel> channel;

  // The child's exit code, or -1 if it did not exit normally.
  int Wait() {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
      return -1;
    }
    return WEXITSTATUS(status);
  }
};

template <typename Body>
ForkedPeer ForkPeer(Body body) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto ring = FrameRing::Create();
  EXPECT_TRUE(ring.ok());
  ForkedPeer peer;
  peer.pid = ::fork();
  if (peer.pid == 0) {
    ::close(fds[0]);
    FrameChannel channel(fds[1], *ring, FrameRing::End::kWorker);
    ::_exit(body(channel));
  }
  ::close(fds[1]);
  peer.channel = std::make_unique<FrameChannel>(fds[0], std::move(*ring),
                                                FrameRing::End::kOrchestrator);
  return peer;
}

TEST(FrameRingTest, ForkedPeerDeathBetweenFramesIsUnavailable) {
  // The peer's last frame, published before it exits, still arrives; then the
  // socket's EOF is a clean close.
  const FedFrame frame = PatternFrame(1000);
  ForkedPeer peer = ForkPeer([&frame](FrameChannel& channel) {
    return channel.Send(frame).ok() ? 0 : 1;
  });
  EXPECT_EQ(peer.Wait(), 0);
  auto received = peer.channel->Recv();
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->payload, frame.payload);
  auto after = peer.channel->Recv();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(after.status().message(), "fed_wire: peer closed the channel");
}

TEST(FrameRingTest, ForkedPeerDeathMidFrameIsDataLoss) {
  // The peer fills the ring with the start of a frame twice its size, then gives
  // up (its send deadline expires, nobody reads) and exits: the reader gets the
  // published part, then EOF inside the frame.
  const FedFrame frame = PatternFrame(2 * kFrameRingBytes);
  ForkedPeer peer = ForkPeer([&frame](FrameChannel& channel) {
    channel.SetDeadline(Millis(20));
    const Status sent = channel.Send(frame);
    return sent.code() == StatusCode::kDeadlineExceeded ? 0 : 1;
  });
  EXPECT_EQ(peer.Wait(), 0);
  auto received = peer.channel->Recv();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(received.status().message(), "fed_wire: mid-frame EOF");
}

TEST(FrameRingTest, ForkedPeerLateFrameArrivesThroughThePark) {
  const FedFrame frame = PatternFrame(4096);
  ForkedPeer peer = ForkPeer([&frame](FrameChannel& channel) {
    std::this_thread::sleep_for(std::chrono::microseconds(kPastTheSpin));
    return channel.Send(frame).ok() ? 0 : 1;
  });
  const auto start = std::chrono::steady_clock::now();
  auto received = peer.channel->Recv();
  const Duration waited = ElapsedSince(start);
  EXPECT_EQ(peer.Wait(), 0);
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->payload, frame.payload);
  EXPECT_GE(waited, kPastTheSpin / 2);
}

// The peer-written words of a ring link, through a second mapping of its memfd:
// what a corrupt or hostile peer process could write.
class RingTamper {
 public:
  explicit RingTamper(const FrameRing& ring) {
    struct stat st;
    EXPECT_EQ(::fstat(ring.fd(), &st), 0);
    bytes_ = static_cast<size_t>(st.st_size);
    void* base =
        ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, ring.fd(), 0);
    EXPECT_NE(base, MAP_FAILED);
    base_ = static_cast<uint8_t*>(base);
  }
  ~RingTamper() { ::munmap(base_, bytes_); }
  RingTamper(const RingTamper&) = delete;
  RingTamper& operator=(const RingTamper&) = delete;

  // Direction 0 is orchestrator -> worker, 1 the reverse (layout in fed_wire.h).
  uint8_t* half(int direction) const { return base_ + direction * (bytes_ / 2); }
  void SetHead(int direction, uint64_t v) { std::memcpy(half(direction), &v, 8); }
  void SetTail(int direction, uint64_t v) { std::memcpy(half(direction) + 64, &v, 8); }
  uint8_t* data(int direction) const { return half(direction) + 256; }

 private:
  uint8_t* base_ = nullptr;
  size_t bytes_ = 0;
};

TEST(FrameRingTest, OutOfRangePeerIndicesAndLengthsAreTypedErrors) {
  const FedFrame frame = PatternFrame(100);
  const uint64_t frame_bytes = MustEncode(frame).size();
  // A head more than a ring ahead of the reader's tail.
  {
    RingLink link;
    RingTamper tamper(*link.ring);
    ASSERT_TRUE(link.orchestrator->Send(frame).ok());
    tamper.SetHead(0, kFrameRingBytes + 1);
    auto received = link.worker->Recv();
    ASSERT_FALSE(received.ok());
    EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(received.status().message(), "fed_wire: ring index out of range");
  }
  // A head moved behind what the reader already consumed.
  {
    RingLink link;
    RingTamper tamper(*link.ring);
    ASSERT_TRUE(link.orchestrator->Send(frame).ok());
    ASSERT_TRUE(link.worker->Recv().ok());
    tamper.SetHead(0, frame_bytes - 1);
    auto received = link.worker->Recv();
    ASSERT_FALSE(received.ok());
    EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(received.status().message(), "fed_wire: ring index out of range");
  }
  // A tail ahead of what the writer ever wrote.
  {
    RingLink link;
    RingTamper tamper(*link.ring);
    ASSERT_TRUE(link.worker->Send(frame).ok());
    tamper.SetTail(1, frame_bytes + 1);
    const Status sent = link.worker->Send(frame);
    EXPECT_EQ(sent.code(), StatusCode::kDataLoss);
    EXPECT_EQ(sent.message(), "fed_wire: ring index out of range");
  }
  // A frame whose length prefix is past the payload cap.
  {
    RingLink link;
    RingTamper tamper(*link.ring);
    std::vector<uint8_t> bytes = MustEncode(PatternFrame(0));
    const uint32_t huge = kMaxFedFramePayload + 1;
    std::memcpy(bytes.data() + bytes.size() - 4, &huge, 4);  // little-endian host
    std::memcpy(tamper.data(0), bytes.data(), bytes.size());
    tamper.SetHead(0, bytes.size());
    auto received = link.worker->Recv();
    ASSERT_FALSE(received.ok());
    EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(received.status().message(), "fed_wire: oversized frame length prefix");
  }
}

TEST(FrameRingTest, MapRefusesAMemfdOfTheWrongSize) {
  const int fd = ::memfd_create("presto_fed_ring_test", MFD_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  auto mapped = FrameRing::Map(fd);  // takes the fd either way
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
}

// ---------- hello handshake ----------

TEST(FedHelloTest, CodecRoundTripsAndValidates) {
  FedHello hello;
  hello.worker_index = 3;
  hello.num_workers = 7;
  const std::vector<uint8_t> bytes = EncodeFedHello(hello);
  FedHello back;
  ASSERT_TRUE(DecodeFedHello(span<const uint8_t>(bytes), &back).ok());
  EXPECT_EQ(back.version, kFedWireVersion);
  EXPECT_EQ(back.worker_index, 3);
  EXPECT_EQ(back.num_workers, 7);
  // The version is one raw byte; the slot rides zigzag varints.
  FedHello wide;
  wide.worker_index = 3;
  wide.num_workers = 70;
  EXPECT_EQ(EncodeFedHello(wide),
            (std::vector<uint8_t>{kFedWireVersion, 0x06, 0x8c, 0x01}));

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  FedHello scratch;
  Status st = DecodeFedHello(span<const uint8_t>(trailing), &scratch);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "fed_wire: trailing bytes after hello");

  FedHello bogus;
  bogus.worker_index = 4;
  bogus.num_workers = 4;  // index must be < count
  st = DecodeFedHello(span<const uint8_t>(EncodeFedHello(bogus)), &scratch);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "fed_wire: hello cell assignment out of range");

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodeFedHello(span<const uint8_t>(bytes.data(), cut), &scratch).ok())
        << "cut=" << cut;
  }
}

TEST(FedHelloTest, ClientAndServerAgree) {
  ChannelPair pair;
  std::thread server([&] {
    auto hello = FedHelloServer(*pair.b);
    ASSERT_TRUE(hello.ok()) << hello.status().message();
    EXPECT_EQ(hello->version, kFedWireVersion);
    EXPECT_EQ(hello->worker_index, 2);
    EXPECT_EQ(hello->num_workers, 5);
  });
  EXPECT_TRUE(FedHelloClient(*pair.a, 2, 5).ok());
  server.join();
}

TEST(FedHelloTest, SkewedWorkerVersionIsATypedRefusal) {
  // A worker whose *frames* are current but whose hello advertises another
  // protocol revision — a v3 worker that still expects raw-struct bootstrap
  // bytes, or a future one: the orchestrator must reject with
  // kFailedPrecondition — a typed skew refusal, not a parse error and not a hang.
  for (const uint8_t version : {uint8_t{3}, static_cast<uint8_t>(kFedWireVersion + 1)}) {
    ChannelPair pair;
    std::thread fake_worker([&] {
      auto request = pair.b->Recv();
      ASSERT_TRUE(request.ok());
      FedHello reply;
      reply.version = version;
      reply.worker_index = 0;
      reply.num_workers = 1;
      FedFrame ack;
      ack.type = FedFrameType::kAck;
      ack.payload = EncodeFedHello(reply);
      EXPECT_TRUE(pair.b->Send(ack).ok());
    });
    const Status st = FedHelloClient(*pair.a, 0, 1);
    fake_worker.join();
    ASSERT_FALSE(st.ok()) << "version " << int{version};
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(st.message(),
              "fed_wire: worker advertises an unsupported protocol version");
  }
}

TEST(FedHelloTest, WrongAssignmentEchoIsATypedRefusal) {
  // A worker wired to the wrong endpoint in a placement map echoes somebody
  // else's assignment — that must fail at connect time, not at a barrier.
  ChannelPair pair;
  std::thread fake_worker([&] {
    auto request = pair.b->Recv();
    ASSERT_TRUE(request.ok());
    FedHello reply;
    reply.worker_index = 1;  // client asked for 0
    reply.num_workers = 2;
    FedFrame ack;
    ack.type = FedFrameType::kAck;
    ack.payload = EncodeFedHello(reply);
    EXPECT_TRUE(pair.b->Send(ack).ok());
  });
  const Status st = FedHelloClient(*pair.a, 0, 2);
  fake_worker.join();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(), "fed_wire: worker acknowledged a different cell assignment");
}

TEST(FedHelloTest, ServerRefusesANonHelloOpeningAndClientSeesWhy) {
  // A confused client that opens with a control frame gets a typed kError reply
  // carrying the server's refusal Status; both sides agree on the reason.
  ChannelPair pair;
  std::thread server([&] {
    auto hello = FedHelloServer(*pair.b);
    ASSERT_FALSE(hello.ok());
    EXPECT_EQ(hello.status().message(), "fed_wire: expected a hello handshake frame");
  });
  FedFrame wrong;
  wrong.type = FedFrameType::kStart;
  auto reply = pair.a->Call(wrong);
  server.join();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FedFrameType::kError);
  ByteReader r{span<const uint8_t>(reply->payload)};
  Status refused = OkStatus();
  ASSERT_TRUE(ReadStatus(r, refused).ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused.message(), "fed_wire: expected a hello handshake frame");
}

TEST(FedHelloTest, GarbageAckIsDataLoss) {
  ChannelPair pair;
  std::thread fake_worker([&] {
    auto request = pair.b->Recv();
    ASSERT_TRUE(request.ok());
    FedFrame ack;
    ack.type = FedFrameType::kAck;
    ack.payload = {0xff, 0xff, 0xff};  // not a hello
    EXPECT_TRUE(pair.b->Send(ack).ok());
  });
  const Status st = FedHelloClient(*pair.a, 0, 1);
  fake_worker.join();
  EXPECT_FALSE(st.ok());
}

// ---------- TCP transport ----------

TEST(FedWireTcpTest, ListenConnectAcceptRoundTripsFrames) {
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().message();
  ASSERT_GT(port, 0);

  auto client_fd = TcpConnect("127.0.0.1", port, Seconds(5));
  ASSERT_TRUE(client_fd.ok()) << client_fd.status().message();
  auto server_fd = TcpAccept(*listen_fd, Seconds(5));
  ASSERT_TRUE(server_fd.ok()) << server_fd.status().message();

  FrameChannel client(*client_fd);
  FrameChannel server(*server_fd);
  FedFrame frame;
  frame.type = FedFrameType::kStep;
  frame.payload.resize(1 << 16);
  for (size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<uint8_t>(i * 31u);
  }
  std::thread sender([&] { EXPECT_TRUE(client.Send(frame).ok()); });
  auto received = server.Recv();
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->payload, frame.payload);
  ::close(*listen_fd);
}

TEST(FedWireTcpTest, HostnameIsRejectedNotResolved) {
  auto fd = TcpConnect("localhost", 1, Millis(100));
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fd.status().message(), "fed_wire: endpoint host must be numeric IPv4");
}

TEST(FedWireTcpTest, DeadEndpointFailsFastAndNeverHangs) {
  // Grab an ephemeral port, then close the listener: connecting to it must fail
  // quickly (RST) — and in any case within the deadline, never hang.
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok());
  ::close(*listen_fd);
  const auto start = std::chrono::steady_clock::now();
  auto fd = TcpConnect("127.0.0.1", port, Seconds(2));
  EXPECT_FALSE(fd.ok());
  EXPECT_LT(ElapsedSince(start), Seconds(10));
}

TEST(FedWireTcpTest, QuietListenerBoundsAccept) {
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok());
  const auto start = std::chrono::steady_clock::now();
  auto fd = TcpAccept(*listen_fd, Millis(200));
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fd.status().message(), "fed_wire: frame deadline expired");
  const Duration waited = ElapsedSince(start);
  EXPECT_GE(waited, Millis(150));
  EXPECT_LT(waited, Seconds(10));
  ::close(*listen_fd);
}

TEST(FedWireTcpTest, HalfOpenPeerIsBoundedByTheChannelDeadline) {
  // The peer completes the TCP handshake (kernel backlog) but never speaks: a
  // deadlined hello must give up with kDeadlineExceeded in bounded time instead
  // of wedging the orchestrator in recv().
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok());
  auto client_fd = TcpConnect("127.0.0.1", port, Seconds(5));
  ASSERT_TRUE(client_fd.ok());
  FrameChannel channel(*client_fd);
  channel.SetDeadline(Millis(200));
  const auto start = std::chrono::steady_clock::now();
  const Status st = FedHelloClient(channel, 0, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(st.message(), "fed_wire: frame deadline expired");
  const Duration waited = ElapsedSince(start);
  EXPECT_GE(waited, Millis(150));
  EXPECT_LT(waited, Seconds(10));
  ::close(*listen_fd);
}

TEST(FedWireTcpTest, SlowLorisPartialHelloIsBoundedByTheDeadline) {
  // An attacker (or a wedged peer) trickles half a hello frame and stalls. The
  // worker-side handshake deadline must cut the connection loose in bounded
  // time — the accept loop depends on this to keep serving honest peers.
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok());
  auto attacker_fd = TcpConnect("127.0.0.1", port, Seconds(5));
  ASSERT_TRUE(attacker_fd.ok());
  auto victim_fd = TcpAccept(*listen_fd, Seconds(5));
  ASSERT_TRUE(victim_fd.ok());

  FedFrame hello;
  hello.type = FedFrameType::kHello;
  hello.payload = EncodeFedHello(FedHello{});
  const std::vector<uint8_t> whole = MustEncode(hello);
  ASSERT_EQ(::write(*attacker_fd, whole.data(), 6), 6);  // header cut mid-way

  FrameChannel victim(*victim_fd);
  victim.SetDeadline(Millis(200));
  const auto start = std::chrono::steady_clock::now();
  auto result = FedHelloServer(victim);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(), "fed_wire: frame deadline expired");
  const Duration waited = ElapsedSince(start);
  EXPECT_GE(waited, Millis(150));
  EXPECT_LT(waited, Seconds(10));
  ::close(*attacker_fd);
  ::close(*listen_fd);
}

TEST(FedWireTcpTest, DeadlinedChannelStillRoundTripsLargeFrames) {
  // The deadline path flips the fd nonblocking and threads poll() through every
  // partial read/write — a frame larger than the socket buffers must still
  // round-trip intact when both sides keep up.
  uint16_t port = 0;
  auto listen_fd = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok());
  auto client_fd = TcpConnect("127.0.0.1", port, Seconds(5));
  ASSERT_TRUE(client_fd.ok());
  auto server_fd = TcpAccept(*listen_fd, Seconds(5));
  ASSERT_TRUE(server_fd.ok());
  FrameChannel client(*client_fd);
  FrameChannel server(*server_fd);
  client.SetDeadline(Seconds(30));
  server.SetDeadline(Seconds(30));
  FedFrame frame;
  frame.type = FedFrameType::kCkptLoad;
  frame.payload.resize(3 << 20);
  for (size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<uint8_t>(i ^ (i >> 9));
  }
  std::thread sender([&] { EXPECT_TRUE(client.Send(frame).ok()); });
  auto received = server.Recv();
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->payload, frame.payload);
  ::close(*listen_fd);
}

}  // namespace
}  // namespace presto
