// Deterministic mutation fuzzing over the fed_wire decode surface.
//
// The process seam's security contract is totality: any byte stream arriving on
// a FrameChannel — bit flips, truncations, length-field lies, type confusion,
// spliced frames, pure garbage — must come back as a typed Status or a valid
// frame, never a crash, abort, hang, or sanitizer finding. These tests drive a
// seeded Pcg32 mutation engine over corpora of *valid* captured encodings and
// assert that invariant across every decoder on the seam: DecodeFedFrame,
// FrameChannel::Recv (over a real socketpair), DecodeFedHello, the FedMail and
// cell-bitmap codecs, DecodeFedControlReply, DecodeCellControl (the control
// ops' payloads), DecodeBootstrap and DecodeAttachDriver (the field-wise config
// payloads), and DecodeCkptLoad (the restore handoff: blob span +
// Checkpoint::Decode + bitmap + trailing bytes). Seeds are fixed, so a failure
// reproduces exactly; CI runs this under ASan/UBSan where "never crash" has
// teeth.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/core/federation.h"
#include "src/net/fed_wire.h"
#include "src/util/ckpt.h"
#include "tests/read_status.h"

namespace presto {
namespace {

// Deterministic PCG-XSH-RR: fixed seeds must replay bit-for-bit forever, so the
// fuzzer carries its own generator instead of trusting <random> distributions.
struct Pcg32 {
  uint64_t state;
  explicit Pcg32(uint64_t seed)
      : state(seed * 0x9e3779b97f4a7c15ull + 1442695040888963407ull) {}
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t xorshifted =
        static_cast<uint32_t>(((state >> 18u) ^ state) >> 27u);
    const uint32_t rot = static_cast<uint32_t>(state >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }
  size_t Below(size_t bound) { return bound == 0 ? 0 : Next() % bound; }
};

std::vector<uint8_t> MustEncode(const FedFrame& frame) {
  auto encoded = EncodeFedFrame(frame);
  EXPECT_TRUE(encoded.ok()) << encoded.status().message();
  return *encoded;
}

// A small federation-shaped checkpoint: per-cell sections plus the orchestrator's.
Checkpoint SmallFederationCheckpoint() {
  Checkpoint ckpt;
  for (int c = 0; c < 3; ++c) {
    const std::string prefix = "cell" + std::to_string(c) + "/";
    ckpt.Add(prefix + "sim", std::vector<uint8_t>(40 + 17 * c, static_cast<uint8_t>(c)));
    ckpt.Add(prefix + "fed", std::vector<uint8_t>{1, 2, static_cast<uint8_t>(c)});
  }
  ckpt.Add("fed", std::vector<uint8_t>(9, 0xee));
  return ckpt;
}

// A corpus of valid frames covering every type and the payload shapes the real
// orchestrator/worker pair exchanges — mutations of *almost-valid* inputs probe
// far deeper into the decoders than random bytes ever reach.
std::vector<std::vector<uint8_t>> FrameCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  for (uint8_t t = 0; t < kFedFrameTypeCount; ++t) {
    FedFrame frame;
    frame.type = static_cast<FedFrameType>(t);
    corpus.push_back(MustEncode(frame));
  }
  {
    FedFrame hello;
    hello.type = FedFrameType::kHello;
    FedHello h;
    h.worker_index = 2;
    h.num_workers = 5;
    hello.payload = EncodeFedHello(h);
    corpus.push_back(MustEncode(hello));
  }
  {
    FedFrame step;
    step.type = FedFrameType::kStep;
    ByteWriter w;
    CkptWrite(w, SimTime{Minutes(90)});
    CkptWrite(w, SimTime{Minutes(90) + Seconds(1)});
    std::vector<FedMail> mail;
    FedMail m;
    m.source_cell = 1;
    m.target_cell = 3;
    m.time = Minutes(90) + Millis(250);
    m.op = kFedOpExecute;
    m.qid = (1ull << 33) + 7;
    m.body = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11};
    mail.push_back(m);
    m.op = kFedOpComplete;
    m.body.assign(64, 0x5a);
    mail.push_back(m);
    CkptWrite(w, mail);
    step.payload = w.TakeBuffer();
    corpus.push_back(MustEncode(step));
  }
  {
    FedFrame err;
    err.type = FedFrameType::kError;
    ByteWriter w;
    CkptWrite(w, UnavailableError("fed_wire fuzz: synthetic failure"));
    err.payload = w.TakeBuffer();
    corpus.push_back(MustEncode(err));
  }
  {
    FedFrame load;
    load.type = FedFrameType::kCkptLoad;
    load.payload = EncodeCkptLoad(SmallFederationCheckpoint(), nullptr, {1, 0, 0});
    corpus.push_back(MustEncode(load));
  }
  return corpus;
}

// One seeded mutation of a corpus entry. `max_length_lie_bytes` bounds how many
// length-prefix bytes a lie may scribble: the span decoder rejects any lie
// before allocating, but FrameChannel::Recv legitimately allocates up to the
// claimed (cap-checked) size, so the socket path keeps lies under 16 MiB.
std::vector<uint8_t> Mutate(Pcg32& rng, const std::vector<uint8_t>& seed_bytes,
                            int max_length_lie_bytes) {
  std::vector<uint8_t> bytes = seed_bytes;
  switch (rng.Below(7)) {
    case 0:  // bit flips
      for (size_t n = 1 + rng.Below(8); n > 0 && !bytes.empty(); --n) {
        bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
      }
      break;
    case 1:  // truncation
      bytes.resize(rng.Below(bytes.size() + 1));
      break;
    case 2: {  // length-field lie (bytes 6..9 little-endian)
      for (size_t i = 0; i < static_cast<size_t>(max_length_lie_bytes) &&
                         bytes.size() > 6 + i;
           ++i) {
        bytes[6 + i] = static_cast<uint8_t>(rng.Next());
      }
      break;
    }
    case 3:  // type confusion
      if (bytes.size() > 5) {
        bytes[5] = static_cast<uint8_t>(rng.Next());
      }
      break;
    case 4:  // magic / version scribble
      if (!bytes.empty()) {
        bytes[rng.Below(std::min<size_t>(5, bytes.size()))] =
            static_cast<uint8_t>(rng.Next());
      }
      break;
    case 5: {  // splice: random trailing junk (a second, torn frame)
      const size_t extra = 1 + rng.Below(32);
      for (size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<uint8_t>(rng.Next()));
      }
      break;
    }
    default: {  // replace with pure garbage
      bytes.assign(rng.Below(64), 0);
      for (auto& b : bytes) {
        b = static_cast<uint8_t>(rng.Next());
      }
      break;
    }
  }
  return bytes;
}

TEST(FedWireFuzzTest, DecodeFedFrameIsTotalAndRoundTripExact) {
  const auto corpus = FrameCorpus();
  Pcg32 rng(0xfed51de5ull);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::vector<uint8_t> bytes =
        Mutate(rng, corpus[rng.Below(corpus.size())], /*max_length_lie_bytes=*/4);
    auto decoded = DecodeFedFrame(span<const uint8_t>(bytes));
    if (!decoded.ok()) {
      ++rejected;
      EXPECT_FALSE(decoded.status().message().empty());
      continue;
    }
    ++accepted;
    // Exactness oracle: decode enforces exactly-one-frame, so re-encoding an
    // accepted input must reproduce it byte for byte — any tolerated ambiguity
    // here would let two different byte streams alias the same frame.
    EXPECT_EQ(MustEncode(*decoded), bytes) << "iter=" << iter;
  }
  // The mutation engine must exercise both sides of the accept/reject boundary.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

TEST(FedWireFuzzTest, FrameChannelRecvSurvivesMutatedStreams) {
  const auto corpus = FrameCorpus();
  Pcg32 rng(0x50c4e7ull);
  int frames_ok = 0, errors = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    // 1-3 mutated frames back to back: Recv must resynchronize or fail cleanly,
    // and the closed writer guarantees termination (EOF) — never a hang.
    std::vector<uint8_t> stream;
    const size_t burst = 1 + rng.Below(3);
    for (size_t i = 0; i < burst; ++i) {
      const std::vector<uint8_t> part =
          Mutate(rng, corpus[rng.Below(corpus.size())], /*max_length_lie_bytes=*/3);
      stream.insert(stream.end(), part.begin(), part.end());
    }
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameChannel reader(fds[0]);
    // Write on the raw fd, then close: streams here fit comfortably inside the
    // kernel socket buffer, so a single-threaded write cannot deadlock.
    size_t written = 0;
    while (written < stream.size()) {
      const ssize_t n =
          ::write(fds[1], stream.data() + written, stream.size() - written);
      ASSERT_GT(n, 0);
      written += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    while (true) {
      auto received = reader.Recv();
      if (!received.ok()) {
        ++errors;
        EXPECT_FALSE(received.status().message().empty());
        break;  // any error tears the channel, same as the orchestrator does
      }
      ++frames_ok;
    }
  }
  EXPECT_GT(frames_ok, 50);
  EXPECT_GT(errors, 500);
}

// Payload-level decoders: the bytes inside an accepted frame are attacker
// surface too (a compromised worker can put anything in a kAck payload).
TEST(FedWireFuzzTest, PayloadCodecsAreTotal) {
  Pcg32 rng(0xbadc0ffeull);

  ByteWriter hello_writer;
  FedHello h;
  h.worker_index = 1;
  h.num_workers = 4;
  const std::vector<uint8_t> hello_seed = EncodeFedHello(h);

  ByteWriter mail_writer;
  FedMail m;
  m.source_cell = 2;
  m.target_cell = 7;
  m.time = Hours(2);
  m.op = kFedOpComplete;
  m.qid = 99;
  m.body.assign(48, 0xa5);
  CkptWrite(mail_writer, m);
  const std::vector<uint8_t> mail_seed = mail_writer.buffer();

  ByteWriter bitmap_writer;
  WriteCellBitmap(bitmap_writer, {0, 1, 1, 0, 1, 0, 0, 1, 1});
  const std::vector<uint8_t> bitmap_seed = bitmap_writer.buffer();

  const std::vector<uint8_t> control_seed =
      EncodeFedControlReply({m, m}, {});

  for (int iter = 0; iter < 20000; ++iter) {
    switch (rng.Below(4)) {
      case 0: {
        const auto bytes = Mutate(rng, hello_seed, 0);
        FedHello out;
        (void)DecodeFedHello(span<const uint8_t>(bytes), &out);
        break;
      }
      case 1: {
        const auto bytes = Mutate(rng, mail_seed, 0);
        ByteReader r{span<const uint8_t>(bytes)};
        FedMail out;
        CkptRead(r, out);
        break;
      }
      case 2: {
        const auto bytes = Mutate(rng, bitmap_seed, 0);
        ByteReader r{span<const uint8_t>(bytes)};
        std::vector<uint8_t> out;
        ReadCellBitmap(r, 9, &out);
        break;
      }
      default: {
        const auto bytes = Mutate(rng, control_seed, 0);
        std::vector<FedMail> mail;
        std::vector<FedCell::HostDone> done;
        (void)DecodeFedControlReply(span<const uint8_t>(bytes), &mail, &done);
        break;
      }
    }
  }
  // Reaching here without a crash, hang, or sanitizer report IS the assertion.
  SUCCEED();
}

TEST(FedWireFuzzTest, ControlOpCodecRoundTripsAndSurvivesMutations) {
  // Every control op's payload, encoded by the orchestrator's FrameTransport and
  // decoded by the worker's frame server: exact round trips for valid ops, and a
  // typed Status (never a crash) for mutated bytes under any frame type.
  const FedFrameType types[] = {
      FedFrameType::kStart,       FedFrameType::kStartDriver, FedFrameType::kInject,
      FedFrameType::kKillCell,    FedFrameType::kReviveCell,  FedFrameType::kKillProxy,
      FedFrameType::kReviveProxy, FedFrameType::kMigrateSensor};
  std::vector<std::vector<uint8_t>> seeds;
  for (const FedFrameType type : types) {
    CellControl op;
    op.type = type;
    op.cell = 3;
    op.index = 517;
    op.owner = 2;
    op.duration = Minutes(12);
    op.token = 0x1234567890ull;
    op.spec.type = QueryType::kPast;
    op.spec.fed_sensor = 41;
    op.spec.range = TimeInterval{Hours(1), Hours(2)};
    const std::vector<uint8_t> bytes = EncodeCellControl(op);
    CellControl decoded;
    ASSERT_TRUE(DecodeCellControl(type, span<const uint8_t>(bytes), &decoded).ok());
    EXPECT_EQ(EncodeCellControl(decoded), bytes);
    seeds.push_back(bytes);
  }
  CellControl out;
  EXPECT_FALSE(DecodeCellControl(FedFrameType::kStep, {}, &out).ok())
      << "a non-control frame type must be refused";

  Pcg32 rng(4077);
  for (int iter = 0; iter < 20000; ++iter) {
    const auto bytes = Mutate(rng, seeds[rng.Below(seeds.size())], 0);
    const auto type = types[rng.Below(sizeof(types) / sizeof(types[0]))];
    (void)DecodeCellControl(type, span<const uint8_t>(bytes), &out);
  }
}

TEST(FedWireFuzzTest, CkptLoadCodecRoundTripsAndSurvivesMutations) {
  // The restore handoff payload: round trips exactly for every section subset
  // the orchestrator sends, and a mutated payload decodes to a well-formed
  // checkpoint + bitmap or a typed Status — never a crash or a partial result.
  const Checkpoint full = SmallFederationCheckpoint();
  const std::vector<uint8_t> flags = {0, 1, 0};
  const std::vector<Checkpoint::SectionFilter> filters = {
      [](const std::string&) { return false; },
      [](const std::string& name) { return CheckpointSectionCell(name) == 1; },
      [](const std::string& name) { return CheckpointSectionCell(name) % 2 == 0; },
      nullptr,
  };
  std::vector<std::vector<uint8_t>> seeds;
  for (const Checkpoint::SectionFilter& keep : filters) {
    const std::vector<uint8_t> payload = EncodeCkptLoad(full, keep, flags);
    Checkpoint ckpt;
    std::vector<uint8_t> down;
    ASSERT_TRUE(DecodeCkptLoad(span<const uint8_t>(payload), flags.size(), &ckpt,
                               &down)
                    .ok());
    EXPECT_EQ(down, flags);
    EXPECT_EQ(ckpt.Encode(), full.Encode(keep));
    EXPECT_EQ(EncodeCkptLoad(ckpt, nullptr, down), payload);
    seeds.push_back(payload);
  }
  {
    Checkpoint ckpt;
    std::vector<uint8_t> down;
    std::vector<uint8_t> trailing = seeds.back();
    trailing.push_back(0);
    EXPECT_EQ(DecodeCkptLoad(span<const uint8_t>(trailing), flags.size(), &ckpt, &down)
                  .code(),
              StatusCode::kDataLoss);
    EXPECT_FALSE(DecodeCkptLoad(span<const uint8_t>(seeds.back()), flags.size() + 1,
                                &ckpt, &down)
                     .ok())
        << "a bitmap for the wrong cell count is refused";
  }

  Pcg32 rng(9173);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const auto bytes = Mutate(rng, seeds[rng.Below(seeds.size())], 0);
    const size_t num_cells = rng.Below(8) == 0 ? rng.Below(5) : flags.size();
    Checkpoint ckpt;
    std::vector<uint8_t> down;
    const Status s = DecodeCkptLoad(span<const uint8_t>(bytes), num_cells, &ckpt, &down);
    if (!s.ok()) {
      EXPECT_NE(s.message(), "");
      continue;
    }
    ++accepted;
    ASSERT_EQ(down.size(), num_cells);
    for (const uint8_t flag : down) {
      ASSERT_LE(flag, 1);
    }
    // Whatever was accepted re-encodes to a payload that decodes the same way.
    const std::vector<uint8_t> again = EncodeCkptLoad(ckpt, nullptr, down);
    Checkpoint ckpt2;
    std::vector<uint8_t> down2;
    ASSERT_TRUE(
        DecodeCkptLoad(span<const uint8_t>(again), num_cells, &ckpt2, &down2).ok());
    EXPECT_EQ(ckpt2.Digest(), ckpt.Digest());
    EXPECT_EQ(down2, down);
  }
  EXPECT_GT(accepted, 0) << "some mutations (e.g. name bit flips) stay valid";
}

// Moves every leaf of a field list off its default: bools flip, numbers grow by a
// distinct step, enums take another enumerator. Drives the same lists the codec
// does, so a config built with it sets every field the wire carries.
struct PerturbFields {
  int step = 0;
  void operator()(bool& v) { v = !v; }
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  void operator()(T& v) {
    v = static_cast<T>(v + static_cast<T>(++step));
  }
  template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
  void operator()(E& v) {
    for (unsigned raw = 0; raw < 256; ++raw) {
      const E e = static_cast<E>(raw);
      if (e != v && CkptEnumValid(e)) {
        v = e;
        return;
      }
    }
  }
  template <typename T>
  auto operator()(T& v) -> decltype(CkptFields(v, *this)) {
    CkptFields(v, *this);
  }
};

TEST(FedWireFuzzTest, BootstrapAndAttachCodecsRoundTripAndSurviveMutations) {
  // The kBootstrap and kAttachDriver payloads: every carried field set off its
  // default round-trips to the same bytes; bool and enum bytes out of range,
  // trailing bytes, and arbitrary mutations decode to a typed Status, never a
  // crash.
  FederationConfig config;
  PerturbFields perturb;
  CkptFields(config, perturb);
  // The flip made the one field with a single valid value invalid; a worker
  // refuses that bootstrap (BootstrapRefusesConfigsAWorkerWouldAbortOn).
  config.cell.lane_engine = true;
  const std::vector<uint8_t> boot = EncodeBootstrap(config, 2, 3);
  ASSERT_NE(boot, EncodeBootstrap(FederationConfig{}, 2, 3));
  FederationConfig decoded;
  int worker_index = 0;
  int num_workers = 0;
  ASSERT_TRUE(
      DecodeBootstrap(span<const uint8_t>(boot), &decoded, &worker_index, &num_workers)
          .ok());
  EXPECT_EQ(worker_index, 2);
  EXPECT_EQ(num_workers, 3);
  EXPECT_EQ(decoded.cell.rebalance_min_load, config.cell.rebalance_min_load);
  EXPECT_EQ(decoded.cell.net.radio.short_preamble_bytes,
            config.cell.net.radio.short_preamble_bytes);
  EXPECT_EQ(EncodeBootstrap(decoded, worker_index, num_workers), boot);

  QueryDriverParams params;
  CkptFields(params, perturb);
  const std::vector<uint8_t> attach = EncodeAttachDriver(5, params);
  int origin = 0;
  QueryDriverParams params_back;
  ASSERT_TRUE(
      DecodeAttachDriver(span<const uint8_t>(attach), &origin, &params_back).ok());
  EXPECT_EQ(origin, 5);
  EXPECT_EQ(params_back.arrivals, params.arrivals);
  EXPECT_EQ(EncodeAttachDriver(origin, params_back), attach);

  // A bool byte of 2: the cell template's `compress`, after the fields before it.
  {
    ByteReader r{span<const uint8_t>(boot)};
    int ints[3] = {};
    ShardPolicy shard = ShardPolicy::kGeographic;
    Duration period = 0;
    PushPolicy policy = PushPolicy::kNone;
    double tolerance = 0.0;
    double delta = 0.0;
    Duration batch = 0;
    for (int& v : ints) {
      ASSERT_TRUE(ReadStatus(r, v).ok());
    }
    ASSERT_TRUE(ReadStatus(r, shard).ok());
    ASSERT_TRUE(ReadStatus(r, period).ok());
    ASSERT_TRUE(ReadStatus(r, policy).ok());
    ASSERT_TRUE(ReadStatus(r, tolerance).ok());
    ASSERT_TRUE(ReadStatus(r, delta).ok());
    ASSERT_TRUE(ReadStatus(r, batch).ok());
    const size_t compress_at = boot.size() - r.remaining();
    ASSERT_EQ(boot[compress_at], config.cell.compress ? 1 : 0);
    std::vector<uint8_t> planted = boot;
    planted[compress_at] = 2;
    EXPECT_EQ(DecodeBootstrap(span<const uint8_t>(planted), &decoded, &worker_index,
                              &num_workers)
                  .code(),
              StatusCode::kDataLoss);
  }
  // An enumerator out of range: the driver's arrival process is the last byte.
  {
    std::vector<uint8_t> planted = attach;
    planted.back() = 9;
    EXPECT_EQ(
        DecodeAttachDriver(span<const uint8_t>(planted), &origin, &params_back).code(),
        StatusCode::kDataLoss);
  }
  // Trailing bytes.
  {
    std::vector<uint8_t> trailing = boot;
    trailing.push_back(0);
    EXPECT_EQ(DecodeBootstrap(span<const uint8_t>(trailing), &decoded, &worker_index,
                              &num_workers)
                  .code(),
              StatusCode::kDataLoss);
    trailing = attach;
    trailing.push_back(0);
    EXPECT_EQ(
        DecodeAttachDriver(span<const uint8_t>(trailing), &origin, &params_back).code(),
        StatusCode::kDataLoss);
  }

  const std::vector<std::vector<uint8_t>> boots = {
      boot, EncodeBootstrap(FederationConfig{}, 0, 1)};
  const std::vector<std::vector<uint8_t>> attaches = {attach, EncodeAttachDriver(0, {})};
  Pcg32 rng(6151);
  int boot_accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const auto bytes = Mutate(rng, boots[rng.Below(boots.size())], 0);
    if (!DecodeBootstrap(span<const uint8_t>(bytes), &decoded, &worker_index,
                         &num_workers)
             .ok()) {
      continue;
    }
    ++boot_accepted;
    // Whatever was accepted re-encodes to a payload that decodes the same way.
    const std::vector<uint8_t> again =
        EncodeBootstrap(decoded, worker_index, num_workers);
    FederationConfig twice;
    ASSERT_TRUE(DecodeBootstrap(span<const uint8_t>(again), &twice, &worker_index,
                                &num_workers)
                    .ok());
    EXPECT_EQ(EncodeBootstrap(twice, worker_index, num_workers), again);
  }
  EXPECT_GT(boot_accepted, 0) << "some mutations (e.g. double bit flips) stay valid";
  for (int iter = 0; iter < 20000; ++iter) {
    const auto bytes = Mutate(rng, attaches[rng.Below(attaches.size())], 0);
    (void)DecodeAttachDriver(span<const uint8_t>(bytes), &origin, &params_back);
  }
}

TEST(FedWireFuzzTest, BootstrapRefusesConfigsAWorkerWouldAbortOn) {
  // One broken construction rule per config struct: well-typed bytes that would
  // abort a worker's constructor are refused as InvalidArgument at decode.
  const auto decode = [](const FederationConfig& config) {
    const std::vector<uint8_t> boot = EncodeBootstrap(config, 0, 1);
    FederationConfig decoded;
    int worker_index = 0;
    int num_workers = 0;
    return DecodeBootstrap(span<const uint8_t>(boot), &decoded, &worker_index,
                           &num_workers);
  };
  ASSERT_TRUE(decode(FederationConfig{}).ok());
  FederationConfig config;
  config.cell.flash.pages_per_block = 0;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "FlashParams";
  config = FederationConfig{};
  config.cell.archive.aging_factor = 1;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "ArchiveParams";
  config = FederationConfig{};
  config.cell.codec.quant_step = 0.0;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "CodecParams";
  config = FederationConfig{};
  config.cell.engine.min_training_samples = 15;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "engine params";
  config = FederationConfig{};
  config.cell.net.max_retries = -1;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "NetworkParams";
  config = FederationConfig{};
  config.link.bandwidth_bps = 0.0;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "CellLinkParams";
  config = FederationConfig{};
  config.cell.lane_engine = false;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "DeploymentConfig";
  config = FederationConfig{};
  config.cell.flash.page_size_bytes = 32;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "page size";
  config = FederationConfig{};
  config.epoch = 0;
  EXPECT_EQ(decode(config).code(), StatusCode::kInvalidArgument) << "FederationConfig";

  QueryDriverParams params;
  params.mix.queries_per_hour = 0.0;
  const std::vector<uint8_t> attach = EncodeAttachDriver(0, params);
  int origin = 0;
  EXPECT_EQ(DecodeAttachDriver(span<const uint8_t>(attach), &origin, &params).code(),
            StatusCode::kInvalidArgument)
      << "QueryWorkloadParams";
  params = QueryDriverParams{};
  params.mix.num_sensors = 0;  // the whole population, filled in at attach
  EXPECT_TRUE(
      DecodeAttachDriver(span<const uint8_t>(EncodeAttachDriver(0, params)), &origin,
                         &params)
          .ok());
}

}  // namespace
}  // namespace presto
