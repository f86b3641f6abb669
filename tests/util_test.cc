// Unit and property tests for the util foundation: Result, byte/bit serialization,
// RNG, statistics, containers, time formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/util/bitpack.h"
#include "src/util/bytes.h"
#include "src/util/id_map.h"
#include "src/util/result.h"
#include "src/util/ring_buffer.h"
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
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0xBEEF);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadF32(), 3.5f);
  EXPECT_EQ(*r.ReadF64(), -2.25);
  EXPECT_EQ(*r.ReadString(), "presto");
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
    EXPECT_EQ(*r.ReadVarU64(), c);
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
    EXPECT_EQ(*r.ReadVarI64(), c);
  }
}

TEST(BytesTest, TruncationIsAnErrorNotUb) {
  ByteWriter w;
  w.WriteU32(1234);
  std::vector<uint8_t> short_buf(w.buffer().begin(), w.buffer().begin() + 2);
  ByteReader r(short_buf);
  EXPECT_FALSE(r.ReadU32().ok());
}

TEST(BytesTest, TruncatedVarintFails) {
  std::vector<uint8_t> bad = {0x80, 0x80};  // continuation bits never end
  ByteReader r(bad);
  EXPECT_FALSE(r.ReadVarU64().ok());
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
  auto view = r.ReadByteSpan();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), bytes.data() + 1) << "no copy";
  EXPECT_EQ(std::vector<uint8_t>(view->begin(), view->end()),
            (std::vector<uint8_t>{7, 8, 9}));
  EXPECT_EQ(*r.ReadU8(), 42);
  const std::vector<uint8_t> lying = {5, 1, 2};  // claims 5 bytes, has 2
  ByteReader short_reader(lying);
  EXPECT_EQ(short_reader.ReadByteSpan().status().code(), StatusCode::kOutOfRange);
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
    EXPECT_EQ(*r.ReadVarU64(), u64s[i]);
    EXPECT_EQ(*r.ReadVarI64(), i64s[i]);
    EXPECT_EQ(*r.ReadF64(), doubles[i]);
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

// ---------- RingBuffer ----------

TEST(RingBufferTest, FillAndOverwrite) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.Empty());
  rb.Push(1);
  rb.Push(2);
  rb.Push(3);
  EXPECT_TRUE(rb.Full());
  rb.Push(4);  // overwrites 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[1], 3);
  EXPECT_EQ(rb[2], 4);
  EXPECT_EQ(rb.Back(), 4);
  EXPECT_EQ(rb.ToVector(), (std::vector<int>{2, 3, 4}));
}

TEST(RingBufferTest, Clear) {
  RingBuffer<int> rb(2);
  rb.Push(1);
  rb.Clear();
  EXPECT_TRUE(rb.Empty());
  rb.Push(9);
  EXPECT_EQ(rb[0], 9);
}

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
