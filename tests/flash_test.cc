// Tests for the flash device model, the on-flash page codec, and the archival store
// (time index, mount/recovery, graceful aging).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/flash/archive_store.h"
#include "src/flash/flash_device.h"
#include "src/flash/page_codec.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace presto {
namespace {

FlashParams SmallFlash() {
  FlashParams p;
  p.page_size_bytes = 256;
  p.pages_per_block = 4;
  p.num_blocks = 16;  // 16 KiB total
  return p;
}

// ---------- FlashDevice ----------

TEST(FlashDeviceTest, WriteThenRead) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 0x5A);
  ASSERT_TRUE(dev.WritePage(3, page).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(dev.ReadPage(3, out).ok());
  EXPECT_EQ(out, page);
}

TEST(FlashDeviceTest, RewriteWithoutEraseFails) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 1);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  EXPECT_EQ(dev.WritePage(0, page).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_TRUE(dev.WritePage(0, page).ok());
}

TEST(FlashDeviceTest, EraseResetsToFf) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 0x00);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(dev.ReadPage(0, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](uint8_t b) { return b == 0xFF; }));
  EXPECT_FALSE(dev.IsPageWritten(0));
}

TEST(FlashDeviceTest, WearTracksErases) {
  FlashDevice dev(SmallFlash(), nullptr);
  EXPECT_EQ(dev.BlockWear(2), 0u);
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  EXPECT_EQ(dev.BlockWear(2), 2u);
}

TEST(FlashDeviceTest, BoundsChecked) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256);
  EXPECT_EQ(dev.ReadPage(-1, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.ReadPage(64, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.EraseBlock(16).code(), StatusCode::kOutOfRange);
  std::vector<uint8_t> wrong(100);
  EXPECT_EQ(dev.WritePage(0, wrong).code(), StatusCode::kInvalidArgument);
}

TEST(FlashDeviceTest, EnergyCharged) {
  EnergyMeter meter;
  FlashDevice dev(SmallFlash(), &meter);
  std::vector<uint8_t> page(256, 7);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  ASSERT_TRUE(dev.ReadPage(0, page).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_GT(meter.Component(EnergyComponent::kFlashWrite), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kFlashRead), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kFlashErase), 0.0);
  EXPECT_EQ(dev.stats().page_writes, 1u);
}

// ---------- page codec ----------

TEST(PageCodecTest, RoundTrip) {
  PageBuilder builder(256);
  std::vector<Sample> in;
  SimTime t = Hours(5);
  for (int i = 0; i < 20; ++i) {
    in.push_back(Sample{t, 20.0 + i});
    ASSERT_TRUE(builder.Fits(t, in.back().value));
    builder.Add(t, in.back().value);
    t += Seconds(31);
  }
  const std::vector<uint8_t> page = builder.Seal(/*seq=*/9, /*resolution=*/Seconds(31));
  ASSERT_EQ(page.size(), 256u);

  auto decoded = DecodePage(page);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.seq, 9u);
  EXPECT_EQ(decoded->header.resolution, Seconds(31));
  ASSERT_EQ(decoded->samples.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded->samples[i].t, in[i].t) << i;
    EXPECT_NEAR(decoded->samples[i].value, in[i].value, 1e-4) << i;
  }
}

TEST(PageCodecTest, BlankPageIsNotFound) {
  std::vector<uint8_t> blank(256, 0xFF);
  EXPECT_EQ(DecodePage(blank).status().code(), StatusCode::kNotFound);
}

TEST(PageCodecTest, CorruptionDetected) {
  PageBuilder builder(256);
  builder.Add(Seconds(1), 1.0);
  std::vector<uint8_t> page = builder.Seal(1, Seconds(31));
  // Flip bits inside the record area. (0x55, not 0xFF: Fletcher-16 works mod 255, so a
  // 0x00 -> 0xFF flip would alias — a known limitation of the checksum family.)
  page[kPageHeaderBytes + 1] ^= 0x55;
  EXPECT_EQ(DecodePage(page).status().code(), StatusCode::kDataLoss);
}

TEST(PageCodecTest, PaddingCorruptionIsHarmless) {
  // Bit rot in the unused tail does not affect the checksummed record area.
  PageBuilder builder(256);
  builder.Add(Seconds(1), 1.0);
  std::vector<uint8_t> page = builder.Seal(1, Seconds(31));
  page[200] ^= 0xFF;
  EXPECT_TRUE(DecodePage(page).ok());
}

// The page image PageBuilder seals must match one written field by field with
// ByteWriter: 1-, 2- and 3-byte varint deltas, float32 values, and a page filled to
// its last byte.
// A record delta past SimTime's range is refused, not added into a signed overflow.
TEST(PageCodecTest, RecordDeltaOverflowIsRefused) {
  ByteWriter records;
  records.WriteVarU64(0);  // the first record sits at first_ts
  records.WriteF32(20.0f);
  records.WriteVarU64(uint64_t{1} << 62);
  records.WriteF32(21.0f);
  const std::vector<uint8_t> body = records.TakeBuffer();
  ByteWriter w;
  CkptWrite(w, PageHeader{kPageMagic, 1, static_cast<uint16_t>(body.size()),
                          Fletcher16(body), Hours(1), kSecond});
  std::vector<uint8_t> page = w.TakeBuffer();
  page.insert(page.end(), body.begin(), body.end());
  page.resize(256, 0xFF);
  auto decoded = DecodePage(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "record time overflows");
}

TEST(PageCodecTest, SealMatchesByteWriterGolden) {
  constexpr int kPageSize = 64;
  constexpr int kCapacity = kPageSize - kPageHeaderBytes;  // 38 record bytes
  const SimTime t0 = Hours(7) + 250 * kMillisecond;
  // Deltas in ms: first record (0, 5 bytes), then 1-, 2-, 3-, 1- and 1-byte varints.
  const std::vector<int64_t> deltas_ms = {0, 100, 1000, 20000, 127, 1};
  const std::vector<double> values = {21.5, -3.25, 1e6, 0.1, 19.875, -0.0};

  PageBuilder builder(kPageSize);
  ByteWriter records;
  SimTime t = t0;
  for (size_t i = 0; i < deltas_ms.size(); ++i) {
    t += deltas_ms[i] * kMillisecond;
    ASSERT_TRUE(builder.Fits(t, values[i])) << i;
    builder.Add(t, values[i]);
    records.WriteVarU64(static_cast<uint64_t>(deltas_ms[i]));
    records.WriteF32(static_cast<float>(values[i]));
  }
  ASSERT_EQ(records.size(), 33u);  // 5 + 5 + 6 + 7 + 5 + 5

  // 5 bytes left: a 1-byte-delta record fills the page exactly; a 2-byte one is one
  // byte past it.
  EXPECT_FALSE(builder.Fits(t + 128 * kMillisecond, 1.0));
  EXPECT_TRUE(builder.Fits(t + 127 * kMillisecond, 1.0));
  t += 127 * kMillisecond;
  builder.Add(t, 1.0);
  records.WriteVarU64(127);
  records.WriteF32(1.0f);
  ASSERT_EQ(static_cast<int>(records.size()), kCapacity);
  EXPECT_FALSE(builder.Fits(t, 1.0));

  ByteWriter golden;
  golden.WriteU16(kPageMagic);
  golden.WriteU32(42);
  golden.WriteU16(static_cast<uint16_t>(records.size()));
  golden.WriteU16(Fletcher16(records.buffer()));
  golden.WriteI64(t0);
  golden.WriteI64(Seconds(31));
  std::vector<uint8_t> expected = golden.TakeBuffer();
  expected.insert(expected.end(), records.buffer().begin(), records.buffer().end());
  ASSERT_EQ(static_cast<int>(expected.size()), kPageSize);

  const std::vector<uint8_t> page = builder.Seal(/*seq=*/42, Seconds(31));
  EXPECT_EQ(page, expected);
  EXPECT_TRUE(builder.Empty());

  auto decoded = DecodePage(page);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.seq, 42u);
  EXPECT_EQ(decoded->header.used, kCapacity);
  ASSERT_EQ(decoded->samples.size(), deltas_ms.size() + 1);
  SimTime expected_t = t0;
  for (size_t i = 0; i < decoded->samples.size(); ++i) {
    expected_t += (i < deltas_ms.size() ? deltas_ms[i] : 127) * kMillisecond;
    const double v = i < values.size() ? values[i] : 1.0;
    EXPECT_EQ(decoded->samples[i].t, expected_t) << i;
    EXPECT_EQ(decoded->samples[i].value, static_cast<double>(static_cast<float>(v))) << i;
  }
}

// The header rides PageHeader's field list; its bytes (checksummed and read back by
// every mount) are pinned to the hex the hand-written encoder produced.
TEST(PageCodecTest, SealedHeaderGoldenBytes) {
  PageBuilder builder(64);
  builder.Add(Seconds(10), 21.5);
  builder.Add(Seconds(41), -3.25);
  const std::vector<uint8_t> page = builder.Seal(/*seq=*/0x0A0B0C0D, Seconds(31));
  ASSERT_EQ(page.size(), 64u);
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (int i = 0; i < kPageHeaderBytes; ++i) {
    hex += kDigits[page[static_cast<size_t>(i)] >> 4];
    hex += kDigits[page[static_cast<size_t>(i)] & 0xF];
  }
  EXPECT_EQ(hex, "41500d0c0b0a0c008b608096980000000000c005d90100000000");

  auto decoded = DecodePage(page);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.magic, kPageMagic);
  EXPECT_EQ(decoded->header.seq, 0x0A0B0C0Du);
  EXPECT_EQ(decoded->header.first_ts, Seconds(10));
  EXPECT_EQ(decoded->header.resolution, Seconds(31));

  std::vector<uint8_t> bad_magic = page;
  bad_magic[1] ^= 0x01;
  EXPECT_EQ(DecodePage(bad_magic).status().code(), StatusCode::kDataLoss);
  const std::vector<uint8_t> short_header(page.begin(), page.begin() + 10);
  EXPECT_EQ(DecodePage(short_header).status().code(), StatusCode::kDataLoss);
}

class PageCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCodecPropertyTest, RandomBatchesRoundTrip) {
  Pcg32 rng(GetParam());
  PageBuilder builder(512);
  std::vector<Sample> in;
  SimTime t = static_cast<SimTime>(rng.UniformInt(0, Days(300)));
  t = (t / kMillisecond) * kMillisecond;
  while (true) {
    const double v = rng.Gaussian(20, 30);
    if (!builder.Fits(t, v)) {
      break;
    }
    builder.Add(t, v);
    in.push_back(Sample{t, v});
    t += (rng.UniformInt(1, 90) * kSecond / 1) + rng.UniformInt(0, 999) * kMillisecond;
  }
  auto decoded = DecodePage(builder.Seal(1, 0));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->samples.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded->samples[i].t, in[i].t);
    EXPECT_NEAR(decoded->samples[i].value, in[i].value,
                std::abs(in[i].value) * 1e-6 + 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCodecPropertyTest, ::testing::Range<uint64_t>(1, 9));

// The textbook Fletcher-16, reduced mod 255 after every byte: the oracle for the
// block-reduced Fletcher16.
uint16_t Fletcher16PerByte(span<const uint8_t> data) {
  uint32_t a = 0;
  uint32_t b = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<uint16_t>((b << 8) | a);
}

TEST(PageCodecTest, Fletcher16MatchesThePerByteReference) {
  // The largest record area a page header can describe (`used` is a u16).
  constexpr size_t kMaxPage = 65535;
  std::vector<std::vector<uint8_t>> inputs;
  inputs.emplace_back();  // empty
  // All-0xFF inputs drive both sums fastest, so they sit at the block bound.
  for (const size_t n : {size_t{1}, size_t{255}, size_t{5801}, size_t{5802}, size_t{5803},
                         size_t{2 * 5802 + 1}, kMaxPage}) {
    inputs.emplace_back(n, 0xFF);
  }
  Pcg32 rng(17);
  for (int i = 0; i < 64; ++i) {
    const size_t n = i == 0 ? kMaxPage : static_cast<size_t>(rng.UniformInt(1, 4096));
    std::vector<uint8_t> page(n);
    for (uint8_t& byte : page) {
      byte = static_cast<uint8_t>(rng.NextU32());
    }
    inputs.push_back(std::move(page));
  }
  for (const std::vector<uint8_t>& input : inputs) {
    SCOPED_TRACE(input.size());
    const span<const uint8_t> bytes(input);
    EXPECT_EQ(Fletcher16(bytes), Fletcher16PerByte(bytes));
  }
}

// ---------- ArchiveStore ----------

ArchiveParams TestArchiveParams() {
  ArchiveParams p;
  p.nominal_sample_period = Seconds(31);
  return p;
}

std::vector<Sample> MakeSeries(int n, SimTime start = 0, Duration step = Seconds(31)) {
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sample{start + i * step, 20.0 + 0.01 * i});
  }
  return out;
}

TEST(ArchiveStoreTest, AppendFlushQuery) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(100);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ((*all)[i].t, series[i].t);
    EXPECT_NEAR((*all)[i].value, series[i].value, 1e-4);
  }
}

TEST(ArchiveStoreTest, RangeQueriesUseTimeIndex) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(200);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  const uint64_t reads_before = dev.stats().page_reads;
  const TimeInterval range{series[50].t, series[60].t + 1};
  auto out = store.Query(range);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 11u);
  // The index should touch only a couple of pages, not the whole archive.
  EXPECT_LE(dev.stats().page_reads - reads_before, 4u);
}

TEST(ArchiveStoreTest, OutOfOrderAppendRejected) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Append(Sample{Seconds(100), 1.0}).ok());
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.Append(Sample{Seconds(50), 2.0}).code(), StatusCode::kInvalidArgument);
}

TEST(ArchiveStoreTest, MountRebuildsState) {
  FlashDevice dev(SmallFlash(), nullptr);
  const std::vector<Sample> series = MakeSeries(150);
  {
    ArchiveStore store(&dev, TestArchiveParams());
    for (const Sample& s : series) {
      ASSERT_TRUE(store.Append(s).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  // "Reboot": a fresh store over the same device.
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Mount().ok());
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), series.size());
  // Appending continues after the last record.
  EXPECT_TRUE(store.Append(Sample{series.back().t + Seconds(31), 9.0}).ok());
}

TEST(ArchiveStoreTest, MountSkipsTornPage) {
  FlashDevice dev(SmallFlash(), nullptr);
  const std::vector<Sample> series = MakeSeries(150);
  {
    ArchiveStore store(&dev, TestArchiveParams());
    for (const Sample& s : series) {
      ASSERT_TRUE(store.Append(s).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  dev.CorruptPageForTest(2);  // torn write in block 0
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Mount().ok());
  EXPECT_GE(store.stats().pages_skipped, 1u);
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  // Some data lost, but the store is consistent and most data survives.
  EXPECT_GT(all->size(), series.size() / 2);
  EXPECT_LT(all->size(), series.size());
}

TEST(ArchiveStoreTest, AgingKeepsOldDataQueryableAtCoarserResolution) {
  FlashDevice dev(SmallFlash(), nullptr);  // 16 KiB: fills quickly
  ArchiveParams params = TestArchiveParams();
  ArchiveStore store(&dev, params);
  // ~28 records/page * 4 pages/block * 16 blocks ~ 1800 records capacity; write 4x.
  const std::vector<Sample> series = MakeSeries(7000);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok()) << "at " << s.t;
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.stats().aging_passes, 0u);

  auto range = store.RetainedRange();
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->start, series.front().t);  // oldest data still represented

  // Old region: present but coarse.
  auto old_res = store.ResolutionAt(series[100].t);
  ASSERT_TRUE(old_res.ok());
  EXPECT_GT(*old_res, params.nominal_sample_period);
  auto old_data = store.Query(TimeInterval{0, series[400].t});
  ASSERT_TRUE(old_data.ok());
  EXPECT_FALSE(old_data->empty());
  EXPECT_LT(old_data->size(), 400u);

  // Recent region: full resolution.
  auto new_res = store.ResolutionAt(series[6900].t);
  ASSERT_TRUE(new_res.ok());
  EXPECT_EQ(*new_res, params.nominal_sample_period);
}

TEST(ArchiveStoreTest, AgedValuesApproximateWindowMeans) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(7000);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  auto old_data = store.Query(TimeInterval{0, series[1000].t});
  ASSERT_TRUE(old_data.ok());
  ASSERT_FALSE(old_data->empty());
  // The series is linear (~20 + 0.01 i), so an aged sample (a window mean, stamped at
  // the window start) sits ~half a window above the line. The window size is the
  // sample's current resolution.
  for (const Sample& s : *old_data) {
    const double i = static_cast<double>(s.t) / Seconds(31);
    auto resolution = store.ResolutionAt(s.t);
    ASSERT_TRUE(resolution.ok());
    const double window = static_cast<double>(*resolution) / Seconds(31);
    EXPECT_NEAR(s.value, 20.0 + 0.01 * (i + (window - 1) / 2.0), 0.02 + 0.005 * window)
        << "t=" << s.t;
  }
}

TEST(ArchiveStoreTest, FullWithoutAgingRejects) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveParams params = TestArchiveParams();
  params.aging_enabled = false;
  ArchiveStore store(&dev, params);
  Status status = OkStatus();
  int appended = 0;
  for (const Sample& s : MakeSeries(7000)) {
    status = store.Append(s);
    if (!status.ok()) {
      break;
    }
    ++appended;
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(appended, 1000);
  EXPECT_GT(store.stats().appends_rejected, 0u);
}

TEST(ArchiveStoreTest, WedgedStoreRefusesAppendsWithoutReadingPages) {
  // A summarizer that keeps every sample makes an aging pass need as many blocks
  // as it frees, so appends eat the reserve and the store wedges: from then on
  // every append is refused. A refusal must not decode the segments it would
  // have merged.
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  store.SetSummarizer([](const std::vector<Sample>& samples, int) { return samples; });
  Status status = OkStatus();
  int next = 0;
  while (status.ok() && next < 20000) {
    status = store.Append(Sample{next * Seconds(31), 20.0});
    ++next;
  }
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted) << status.message();
  for (int k = 0; k < 3; ++k) {
    const uint64_t reads = dev.stats().page_reads;
    const uint64_t rejected = store.stats().appends_rejected;
    const Status again = store.Append(Sample{(next + k) * Seconds(31), 20.0});
    EXPECT_EQ(again.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(again.message(), "no reserve block for aging");
    EXPECT_EQ(dev.stats().page_reads, reads);
    EXPECT_EQ(store.stats().appends_rejected, rejected + 1);
  }
}

TEST(ArchiveStoreTest, EmptyQueriesAndRanges) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  EXPECT_EQ(store.RetainedRange().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Query(TimeInterval{10, 5}).status().code(),
            StatusCode::kInvalidArgument);
  auto empty = store.Query(TimeInterval{0, 100});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(store.ResolutionAt(5).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace presto
