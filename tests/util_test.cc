// Unit and property tests for the util foundation: Result, byte/bit serialization,
// RNG, statistics, containers, time formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/bitpack.h"
#include "src/util/bytes.h"
#include "src/util/id_map.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/sample.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace presto {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such range");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "kNotFound: no such range");
}

TEST(StatusTest, CopyMoveAndToStringWithAndWithoutMessage) {
  const Status with = DataLossError("bad section");
  Status copy = with;
  EXPECT_EQ(copy.code(), StatusCode::kDataLoss);
  EXPECT_EQ(copy.message(), "bad section");
  EXPECT_NE(&copy.message(), &with.message()) << "a copy owns its own message";
  EXPECT_EQ(copy.ToString(), "kDataLoss: bad section");
  Status moved = std::move(copy);
  EXPECT_EQ(moved.ToString(), "kDataLoss: bad section");
  EXPECT_TRUE(moved == with);

  const Status bare = OutOfRangeError("");
  EXPECT_EQ(bare.message(), "");
  EXPECT_EQ(bare.ToString(), "kOutOfRange");
  Status assigned;
  assigned = bare;
  EXPECT_EQ(assigned.ToString(), "kOutOfRange");
  assigned = with;
  const Status& self = assigned;
  assigned = self;  // self-assignment keeps the message
  EXPECT_EQ(assigned.ToString(), "kDataLoss: bad section");
  assigned = OkStatus();
  EXPECT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.message(), "");

  // An OK status carries no text, whatever it was built from.
  const Status ok_with_text(StatusCode::kOk, "ignored");
  EXPECT_TRUE(ok_with_text.ok());
  EXPECT_EQ(ok_with_text.message(), "");
  EXPECT_EQ(ok_with_text.ToString(), "OK");
  EXPECT_EQ(&OkStatus().message(), &bare.message()) << "one shared empty string";
  EXPECT_EQ(sizeof(Status), sizeof(void*) + sizeof(void*)) << "a code and a pointer";
}

TEST(ResultTest, ValueAccess) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, ErrorAccess) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------- ByteWriter / ByteReader ----------

TEST(BytesTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteF32(3.5f);
  w.WriteF64(-2.25);
  w.WriteString("presto");

  ByteReader r(w.buffer());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0xBEEF);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadF32(), 3.5f);
  EXPECT_EQ(r.ReadF64(), -2.25);
  EXPECT_EQ(r.ReadString(), "presto");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintBoundaries) {
  const uint64_t cases[] = {0, 1, 127, 128, 16383, 16384, UINT64_MAX};
  ByteWriter w;
  for (uint64_t c : cases) {
    w.WriteVarU64(c);
  }
  ByteReader r(w.buffer());
  for (uint64_t c : cases) {
    EXPECT_EQ(r.ReadVarU64(), c);
  }
}

TEST(BytesTest, VarintSizes) {
  ByteWriter w;
  w.WriteVarU64(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.WriteVarU64(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(BytesTest, ZigzagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  ByteWriter w;
  for (int64_t c : cases) {
    w.WriteVarI64(c);
  }
  ByteReader r(w.buffer());
  for (int64_t c : cases) {
    EXPECT_EQ(r.ReadVarI64(), c);
  }
}

TEST(BytesTest, TruncationIsAnErrorNotUb) {
  ByteWriter w;
  w.WriteU32(1234);
  std::vector<uint8_t> short_buf(w.buffer().begin(), w.buffer().begin() + 2);
  ByteReader r(short_buf);
  r.ReadU32();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, TruncatedVarintFails) {
  std::vector<uint8_t> bad = {0x80, 0x80};  // continuation bits never end
  ByteReader r(bad);
  r.ReadVarU64();
  EXPECT_FALSE(r.ok());
}

// The tenth byte of a varint holds bit 63 alone: 1 completes UINT64_MAX, and any
// larger byte would carry bits a uint64_t cannot hold.
TEST(BytesTest, TenthVarintByteCarriesOneBit) {
  std::vector<uint8_t> bytes(9, 0xFF);
  bytes.push_back(0x01);
  ByteReader max(bytes);
  EXPECT_EQ(max.ReadVarU64(), UINT64_MAX);
  EXPECT_TRUE(max.ok());
  EXPECT_TRUE(max.AtEnd());
  for (const uint8_t tenth : {0x02, 0x7F, 0x80, 0x81, 0xFF}) {
    bytes.back() = tenth;
    ByteReader r(bytes);
    EXPECT_EQ(r.ReadVarU64(), 0u) << int{tenth};
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << int{tenth};
    EXPECT_EQ(r.status().message(), "ByteReader: varint too long") << int{tenth};
  }
}

// The failure rule: the first failure sticks. Every later read returns zero or empty
// and consumes nothing, and a later Fail() keeps the first failure.
TEST(BytesTest, FirstFailureSticks) {
  const std::vector<uint8_t> bytes = {7, 5, 'a', 'b'};  // a string claiming 5 bytes
  ByteReader r(bytes);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_TRUE(r.ReadString().empty());
  const Status first = r.status();
  EXPECT_EQ(first.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(first.message(), "ByteReader: truncated byte array");
  EXPECT_TRUE(r.AtEnd()) << "the failure consumed the rest";
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.ReadU8(), 0);
  EXPECT_EQ(r.ReadU16(), 0);
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_EQ(r.ReadI64(), 0);
  EXPECT_EQ(r.ReadF32(), 0.0f);
  EXPECT_EQ(r.ReadF64(), 0.0);
  EXPECT_EQ(r.ReadVarU64(), 0u);
  EXPECT_EQ(r.ReadVarI64(), 0);
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_TRUE(r.ReadByteSpan().empty());
  EXPECT_TRUE(r.ReadString().empty());
  r.Fail(DataLossError("a later refusal"));
  EXPECT_EQ(r.status().code(), first.code());
  EXPECT_EQ(r.status().message(), first.message());

  // A refusal is a failure like any other: it ends the reading, and it sticks.
  ByteReader refused(bytes);
  EXPECT_EQ(refused.ReadU8(), 7);
  refused.Fail(DataLossError("refused"));
  EXPECT_TRUE(refused.AtEnd());
  EXPECT_TRUE(refused.ReadString().empty());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(refused.status().message(), "refused");
}

TEST(BytesTest, ByteSpanIsAViewAndBoundsChecked) {
  ByteWriter w;
  w.Reserve(16);
  const size_t capacity = w.buffer().capacity();
  w.WriteBytes(span<const uint8_t>(std::vector<uint8_t>{7, 8, 9}));
  w.WriteU8(42);
  EXPECT_EQ(w.buffer().capacity(), capacity) << "reserved room is used in place";
  const std::vector<uint8_t> bytes = w.TakeBuffer();
  ByteReader r(bytes);
  const span<const uint8_t> view = r.ReadByteSpan();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(view.data(), bytes.data() + 1) << "no copy";
  EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()),
            (std::vector<uint8_t>{7, 8, 9}));
  EXPECT_EQ(r.ReadU8(), 42);
  const std::vector<uint8_t> lying = {5, 1, 2};  // claims 5 bytes, has 2
  ByteReader short_reader(lying);
  short_reader.ReadByteSpan();
  EXPECT_EQ(short_reader.status().code(), StatusCode::kOutOfRange);
}

std::string HexOf(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

template <typename Write>
std::string HexWritten(Write write) {
  ByteWriter w;
  write(w);
  return HexOf(w.TakeBuffer());
}

// Every writer primitive's bytes at its boundary values: little-endian fixed widths,
// LEB128 varints, zigzag signed varints, varint-length-prefixed blobs, and float bits
// passed through untouched (a NaN keeps its payload).
TEST(BytesTest, WriterGoldenBytesAtBoundaries) {
  float nan32;
  const uint32_t nan32_bits = 0x7fc00001;
  std::memcpy(&nan32, &nan32_bits, sizeof(nan32));
  double nan64;
  const uint64_t nan64_bits = 0x7ff8000000000123ULL;
  std::memcpy(&nan64, &nan64_bits, sizeof(nan64));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {HexWritten([](ByteWriter& w) { w.WriteU8(0xab); }), "ab"},
      {HexWritten([](ByteWriter& w) { w.WriteU16(0xbeef); }), "efbe"},
      {HexWritten([](ByteWriter& w) { w.WriteU32(0xdeadbeef); }), "efbeadde"},
      {HexWritten([](ByteWriter& w) { w.WriteU64(0x0123456789abcdefULL); }),
       "efcdab8967452301"},
      {HexWritten([](ByteWriter& w) { w.WriteI64(-2); }), "feffffffffffffff"},
      {HexWritten([](ByteWriter& w) { w.WriteVarU64(0); }), "00"},
      {HexWritten([](ByteWriter& w) { w.WriteVarU64(127); }), "7f"},
      {HexWritten([](ByteWriter& w) { w.WriteVarU64(128); }), "8001"},
      {HexWritten([](ByteWriter& w) { w.WriteVarU64(1ULL << 63); }),
       "80808080808080808001"},
      {HexWritten([](ByteWriter& w) { w.WriteVarU64(UINT64_MAX); }),
       "ffffffffffffffffff01"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(0); }), "00"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(-1); }), "01"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(-64); }), "7f"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(64); }), "8001"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(INT64_MIN); }),
       "ffffffffffffffffff01"},
      {HexWritten([](ByteWriter& w) { w.WriteVarI64(INT64_MAX); }),
       "feffffffffffffffff01"},
      {HexWritten([nan32](ByteWriter& w) { w.WriteF32(nan32); }), "0100c07f"},
      {HexWritten([nan64](ByteWriter& w) { w.WriteF64(nan64); }), "230100000000f87f"},
      {HexWritten([](ByteWriter& w) { w.WriteF64(-2.25); }), "00000000000002c0"},
      {HexWritten([](ByteWriter& w) { w.WriteBytes({}); }), "00"},
      {HexWritten([](ByteWriter& w) { w.WriteString("ab"); }), "026162"},
      {HexWritten([](ByteWriter& w) { w.WriteString(std::string(128, 'x')); }),
       "8001" + HexOf(std::vector<uint8_t>(128, 'x'))},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].first, cases[i].second) << "case " << i;
  }
  // And the float bits read back as written.
  ByteWriter w;
  w.WriteF32(nan32);
  w.WriteF64(nan64);
  const std::vector<uint8_t> bytes = w.TakeBuffer();
  ByteReader r(bytes);
  const float f = r.ReadF32();
  const double d = r.ReadF64();
  uint32_t f_bits;
  uint64_t d_bits;
  std::memcpy(&f_bits, &f, sizeof(f_bits));
  std::memcpy(&d_bits, &d, sizeof(d_bits));
  EXPECT_EQ(f_bits, nan32_bits);
  EXPECT_EQ(d_bits, nan64_bits);
}

// Each reader primitive, handed every strict prefix of a complete encoding, fails with
// kOutOfRange, and reads the whole encoding back.
TEST(BytesTest, EveryReaderPrimitiveTruncatedAtEachLengthIsOutOfRange) {
  struct Case {
    const char* name;
    std::function<void(ByteWriter&)> write;
    std::function<bool(ByteReader&)> read;  // the reader's ok() after the read
  };
  const std::vector<Case> cases = {
      {"U8", [](ByteWriter& w) { w.WriteU8(0xff); },
       [](ByteReader& r) { r.ReadU8(); return r.ok(); }},
      {"U16", [](ByteWriter& w) { w.WriteU16(0xffff); },
       [](ByteReader& r) { r.ReadU16(); return r.ok(); }},
      {"U32", [](ByteWriter& w) { w.WriteU32(0xffffffff); },
       [](ByteReader& r) { r.ReadU32(); return r.ok(); }},
      {"U64", [](ByteWriter& w) { w.WriteU64(UINT64_MAX); },
       [](ByteReader& r) { r.ReadU64(); return r.ok(); }},
      {"I64", [](ByteWriter& w) { w.WriteI64(INT64_MIN); },
       [](ByteReader& r) { r.ReadI64(); return r.ok(); }},
      {"F32", [](ByteWriter& w) { w.WriteF32(1.5f); },
       [](ByteReader& r) { r.ReadF32(); return r.ok(); }},
      {"F64", [](ByteWriter& w) { w.WriteF64(1.5); },
       [](ByteReader& r) { r.ReadF64(); return r.ok(); }},
      {"VarU64", [](ByteWriter& w) { w.WriteVarU64(UINT64_MAX); },
       [](ByteReader& r) { r.ReadVarU64(); return r.ok(); }},
      {"VarI64", [](ByteWriter& w) { w.WriteVarI64(INT64_MIN); },
       [](ByteReader& r) { r.ReadVarI64(); return r.ok(); }},
      {"Bytes", [](ByteWriter& w) { w.WriteBytes(std::vector<uint8_t>(130, 7)); },
       [](ByteReader& r) { r.ReadBytes(); return r.ok(); }},
      {"ByteSpan", [](ByteWriter& w) { w.WriteBytes(std::vector<uint8_t>(130, 7)); },
       [](ByteReader& r) { r.ReadByteSpan(); return r.ok(); }},
      {"String", [](ByteWriter& w) { w.WriteString(std::string(130, 's')); },
       [](ByteReader& r) { r.ReadString(); return r.ok(); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ByteWriter w;
    c.write(w);
    const std::vector<uint8_t> bytes = w.TakeBuffer();
    ByteReader whole(bytes);
    EXPECT_TRUE(c.read(whole));
    EXPECT_TRUE(whole.AtEnd());
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      ByteReader r(prefix);
      EXPECT_FALSE(c.read(r)) << "prefix " << len;
    }
  }
  // The code, not just the failure: one status per primitive family.
  const auto status_after = [](span<const uint8_t> bytes,
                               const std::function<void(ByteReader&)>& read) {
    ByteReader r(bytes);
    read(r);
    return r.status();
  };
  const std::vector<uint8_t> one = {0x80};
  EXPECT_EQ(status_after({}, [](ByteReader& r) { r.ReadU8(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(one, [](ByteReader& r) { r.ReadU16(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(one, [](ByteReader& r) { r.ReadF64(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(one, [](ByteReader& r) { r.ReadVarU64(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(one, [](ByteReader& r) { r.ReadVarI64(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(one, [](ByteReader& r) { r.ReadString(); }).code(),
            StatusCode::kOutOfRange);
  const std::vector<uint8_t> lying = {3, 'a'};
  EXPECT_EQ(status_after(lying, [](ByteReader& r) { r.ReadBytes(); }).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(status_after(lying, [](ByteReader& r) { r.ReadString(); }).message(),
            "ByteReader: truncated byte array");
}

// The writer against a byte-at-a-time reference: random sequences of every
// primitive, with Reserve and buffer() calls mixed in, give the same bytes, and the
// writer starts over empty after TakeBuffer.
struct ReferenceWriter {
  std::vector<uint8_t> bytes;
  void Fixed(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Var(uint64_t v) {
    do {
      bytes.push_back(static_cast<uint8_t>((v & 0x7f) | (v >= 0x80 ? 0x80 : 0)));
      v >>= 7;
    } while (v != 0);
  }
};

class BytesDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesDifferentialTest, RandomWritesMatchAByteAtATimeWriter) {
  Pcg32 rng(GetParam());
  ByteWriter w;
  for (int round = 0; round < 3; ++round) {
    ReferenceWriter ref;
    const int ops = 1 + static_cast<int>(rng.NextU32() % 400);
    for (int op = 0; op < ops; ++op) {
      const uint64_t v = rng.NextU64() >> (rng.NextU32() % 64);
      switch (rng.NextU32() % 13) {
        case 0:
          w.WriteU8(static_cast<uint8_t>(v));
          ref.Fixed(v, 1);
          break;
        case 1:
          w.WriteU16(static_cast<uint16_t>(v));
          ref.Fixed(v, 2);
          break;
        case 2:
          w.WriteU32(static_cast<uint32_t>(v));
          ref.Fixed(v, 4);
          break;
        case 3:
          w.WriteU64(v);
          ref.Fixed(v, 8);
          break;
        case 4:
          w.WriteI64(static_cast<int64_t>(v));
          ref.Fixed(v, 8);
          break;
        case 5: {
          const float f = static_cast<float>(rng.Gaussian(0, 1e3));
          uint32_t bits;
          std::memcpy(&bits, &f, sizeof(bits));
          w.WriteF32(f);
          ref.Fixed(bits, 4);
          break;
        }
        case 6: {
          const double d = rng.Gaussian(0, 1e9);
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          w.WriteF64(d);
          ref.Fixed(bits, 8);
          break;
        }
        case 7:
          w.WriteVarU64(v);
          ref.Var(v);
          break;
        case 8: {
          const int64_t s = rng.NextU32() % 2 ? static_cast<int64_t>(v)
                                              : -static_cast<int64_t>(v >> 1) - 1;
          w.WriteVarI64(s);
          ref.Var((static_cast<uint64_t>(s) << 1) ^ static_cast<uint64_t>(s >> 63));
          break;
        }
        case 9:
        case 10: {
          std::string blob(rng.NextU32() % 300, '\0');
          for (char& c : blob) {
            c = static_cast<char>(rng.NextU32());
          }
          if (rng.NextU32() % 2) {
            w.WriteString(blob);
          } else {
            w.WriteBytes(span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(blob.data()), blob.size()));
          }
          ref.Var(blob.size());
          ref.bytes.insert(ref.bytes.end(), blob.begin(), blob.end());
          break;
        }
        case 11:
          w.Reserve(rng.NextU32() % 64);
          break;
        case 12:
          ASSERT_EQ(w.buffer(), ref.bytes) << "op " << op;
          break;
      }
      ASSERT_EQ(w.size(), ref.bytes.size()) << "op " << op;
    }
    const std::vector<uint8_t> taken = w.TakeBuffer();
    ASSERT_EQ(taken, ref.bytes) << "round " << round;
    EXPECT_EQ(w.size(), 0u);
    EXPECT_TRUE(w.buffer().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The writer grows geometrically: a byte at a time to 64 KiB takes a handful of
// allocations, each handed over with exactly size() bytes.
TEST(BytesTest, WriterGrowsGeometricallyAndHandsOverExactlyItsBytes) {
  ByteWriter w;
  int allocations = 0;
  size_t capacity = 0;
  for (int i = 0; i < 65536; ++i) {
    w.WriteU8(static_cast<uint8_t>(i));
    if (w.size() > capacity) {
      ++allocations;
      capacity = w.buffer().capacity();
    }
  }
  EXPECT_LE(allocations, 14);
  const std::vector<uint8_t> bytes = w.TakeBuffer();
  EXPECT_EQ(bytes.size(), 65536u);
  EXPECT_EQ(bytes[300], static_cast<uint8_t>(300));
}

// Property: random mixed payloads round-trip exactly.
class BytesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesPropertyTest, RandomRoundTrip) {
  Pcg32 rng(GetParam());
  ByteWriter w;
  std::vector<uint64_t> u64s;
  std::vector<int64_t> i64s;
  std::vector<double> doubles;
  for (int i = 0; i < 200; ++i) {
    u64s.push_back(rng.NextU64() >> (rng.NextU32() % 64));
    i64s.push_back(static_cast<int64_t>(rng.NextU64()));
    doubles.push_back(rng.Gaussian(0, 1e6));
  }
  for (int i = 0; i < 200; ++i) {
    w.WriteVarU64(u64s[i]);
    w.WriteVarI64(i64s[i]);
    w.WriteF64(doubles[i]);
  }
  ByteReader r(w.buffer());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.ReadVarU64(), u64s[i]);
    EXPECT_EQ(r.ReadVarI64(), i64s[i]);
    EXPECT_EQ(r.ReadF64(), doubles[i]);
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest, ::testing::Values(1, 2, 3, 17, 99));

// ---------- BitWriter / BitReader ----------

TEST(BitpackTest, SingleBits) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  BitReader r(w.bytes());
  EXPECT_EQ(r.ReadBits(1), 1u);
  EXPECT_EQ(r.ReadBits(1), 1u);
  EXPECT_EQ(r.ReadBits(1), 0u);
  EXPECT_EQ(r.ReadBits(1), 1u);
}

TEST(BitpackTest, UnaryRoundTrip) {
  BitWriter w;
  for (int i = 0; i < 10; ++i) {
    w.WriteUnary(i);
  }
  BitReader r(w.bytes());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.ReadUnary(), i);
  }
}

class BitpackPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitpackPropertyTest, RandomWidthsRoundTrip) {
  Pcg32 rng(GetParam());
  std::vector<std::pair<uint64_t, int>> values;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const int bits = static_cast<int>(rng.UniformInt(1, 64));
    const uint64_t mask = bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
    const uint64_t v = rng.NextU64() & mask;
    values.emplace_back(v, bits);
    w.WriteBits(v, bits);
  }
  BitReader r(w.bytes());
  for (const auto& [v, bits] : values) {
    EXPECT_EQ(r.ReadBits(bits), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitpackPropertyTest, ::testing::Values(4, 5, 6));

// ---------- RNG ----------

TEST(RngTest, Deterministic) {
  Pcg32 a(123, 4);
  Pcg32 b(123, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, StreamsDiffer) {
  Pcg32 a(123, 1);
  Pcg32 b(123, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRangeAndCoversEndpoints) {
  Pcg32 rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Pcg32 rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.Gaussian(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Pcg32 rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.Exponential(0.5));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Pcg32 rng(17);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 80.0, 1.0);
}

TEST(RngTest, BernoulliEdges) {
  Pcg32 rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

// ---------- Stats ----------

TEST(RunningStatsTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : xs) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 5);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  EXPECT_NEAR(stats.variance(), 29.76, 1e-9);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 16.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  Pcg32 rng(23);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3, 7);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet set;
  for (int i = 100; i >= 1; --i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(set.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Quantile(1.0), 100.0);
  EXPECT_NEAR(set.Median(), 50.5, 1e-9);
}

TEST(HistogramTest, ClampsToEdges) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);
  h.Add(100.0);
  h.Add(5.0);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(4), 1);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.count(), 3);
}

TEST(ErrorMetricsTest, RmseAndFriends) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {1, 4, 3};
  EXPECT_NEAR(Rmse(a, b), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(MeanAbsError(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(MaxAbsError(a, b), 2.0);
}

// ---------- time formatting ----------

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(Seconds(2), 2 * kSecond);
  EXPECT_EQ(Minutes(1.5), 90 * kSecond);
  EXPECT_DOUBLE_EQ(ToHours(Hours(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToDays(Days(2)), 2.0);
}

TEST(SimTimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(Days(1) + Hours(2) + Minutes(3) + Seconds(4) + Millis(5)),
            "1d 02:03:04.005");
}

TEST(SimTimeTest, FormatDurationUnits) {
  EXPECT_EQ(FormatDuration(Micros(15)), "15us");
  EXPECT_EQ(FormatDuration(Minutes(16.5)), "16.5min");
  EXPECT_EQ(FormatDuration(Days(3)), "3d");
}

// ---------- TimeInterval / Sample ----------

TEST(TimeIntervalTest, ContainsAndOverlaps) {
  TimeInterval a{10, 20};
  EXPECT_TRUE(a.Contains(10));
  EXPECT_FALSE(a.Contains(20));
  EXPECT_TRUE(a.Overlaps(TimeInterval{19, 30}));
  EXPECT_FALSE(a.Overlaps(TimeInterval{20, 30}));
  EXPECT_EQ(a.Length(), 10);
}

// ---------- TextTable ----------

TEST(TextTableTest, AlignedOutputAndCsv) {
  TextTable t;
  t.SetHeader({"name", "value"});
  t.AddRow({"a", TextTable::Num(1.5, 1)});
  t.AddRow({"long-name", TextTable::Int(42)});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_EQ(t.ToCsv(), "name,value\na,1.5\nlong-name,42\n");
}

// ---------- IdMap / StableIdMap ----------

// Random inserts, overwrites and erases against std::map, over clustered keys (probe
// runs collide and wrap) and keys spread over all 64 bits (the multiply-shift hash
// must not lean on low bits). Every key's presence and value must agree after every
// operation, and SortedKeys must list the map's keys.
TEST(IdMapTest, MatchesStdMapUnderRandomOps) {
  for (const bool spread : {false, true}) {
    SCOPED_TRACE(spread);
    IdMap<int> table;
    std::map<uint64_t, int> oracle;
    Pcg32 rng(spread ? 0x1d : 0x2e);
    std::vector<uint64_t> universe;
    for (int i = 0; i < 300; ++i) {
      universe.push_back(spread ? rng.NextU64()
                                : 1000 + static_cast<uint64_t>(i % 150) * 64);
    }
    for (int op = 0; op < 20000; ++op) {
      const uint64_t key = universe[static_cast<size_t>(rng.UniformInt(0, 299))];
      const int value = static_cast<int>(rng.UniformInt(0, 1 << 20));
      switch (rng.UniformInt(0, 3)) {
        case 0: {
          const auto [stored, inserted] = table.Emplace(key, value);
          const bool want = oracle.emplace(key, value).second;
          ASSERT_EQ(inserted, want);
          EXPECT_EQ(*stored, oracle.at(key));
          break;
        }
        case 1:
          table[key] = value;
          oracle[key] = value;
          break;
        default:
          ASSERT_EQ(table.Erase(key), oracle.erase(key) == 1);
          break;
      }
      ASSERT_EQ(table.size(), oracle.size());
      if (op % 97 == 0) {
        for (const uint64_t probe : universe) {
          const int* got = table.Find(probe);
          const auto want = oracle.find(probe);
          ASSERT_EQ(got != nullptr, want != oracle.end()) << probe;
          if (got != nullptr) {
            EXPECT_EQ(*got, want->second);
          }
        }
        std::vector<uint64_t> keys;
        for (const auto& [k, v] : oracle) {
          keys.push_back(k);
        }
        ASSERT_EQ(table.SortedKeys(), keys);
      }
    }
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.Find(universe[0]), nullptr);
    EXPECT_FALSE(table.Erase(universe[0]));
  }
}

TEST(IdMapTest, ReleasesErasedValues) {
  IdMap<std::shared_ptr<int>> table;
  auto owned = std::make_shared<int>(7);
  table[5] = owned;
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_TRUE(table.Erase(5));
  EXPECT_EQ(owned.use_count(), 1);
}

// Entries keep their address while others come and go, and slots are recycled.
TEST(StableIdMapTest, SlotsNeverMoveAndAreRecycled) {
  StableIdMap<std::vector<int>> table;
  std::vector<int>& first = table.Insert(1, {1});
  for (uint64_t id = 2; id < 2000; ++id) {
    table.Insert(id, {static_cast<int>(id)});
    if (id % 3 == 0) {
      ASSERT_TRUE(table.Erase(id - 1));
    }
  }
  EXPECT_EQ(table.Find(1), &first);
  EXPECT_EQ(first, std::vector<int>{1});
  EXPECT_EQ(table.Find(2), nullptr);
  const std::optional<std::vector<int>> taken = table.Take(1);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, std::vector<int>{1});
  EXPECT_FALSE(table.Take(1).has_value());
  // The freed slot is the next one handed out, and it starts from the new value.
  EXPECT_EQ(&table.Insert(5000, {9}), &first);
  EXPECT_EQ(first, std::vector<int>{9});
  uint64_t previous = 0;
  for (const auto& [id, entry] : table.Sorted()) {
    EXPECT_GT(id, previous);
    EXPECT_EQ(entry, table.Find(id));
    previous = id;
  }
  EXPECT_EQ(table.Sorted().size(), table.size());
}

}  // namespace
}  // namespace presto
