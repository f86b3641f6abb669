// Tests for the DWT, denoising, the batch codec (including compression-ratio-vs-batch
// behaviour that drives Figure 2), and multi-resolution aging.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "src/flash/page_codec.h"
#include "src/util/bitpack.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/wavelet/aging.h"
#include "src/wavelet/codec.h"
#include "src/wavelet/denoise.h"
#include "src/wavelet/transform.h"

namespace presto {
namespace {

std::vector<double> RandomSignal(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> out(n);
  double walk = 0.0;
  for (size_t i = 0; i < n; ++i) {
    walk += rng.Gaussian(0, 0.5);
    out[i] = walk;
  }
  return out;
}

// ---------- transform ----------

class DwtReconstructionTest
    : public ::testing::TestWithParam<std::tuple<WaveletKind, size_t, uint64_t>> {};

TEST_P(DwtReconstructionTest, PerfectReconstruction) {
  const auto [kind, n, seed] = GetParam();
  const std::vector<double> signal = RandomSignal(n, seed);
  auto coeffs = ForwardDwt(signal, kind, /*levels=*/0);
  ASSERT_TRUE(coeffs.ok());
  const std::vector<double> back = InverseDwt(*coeffs);
  ASSERT_EQ(back.size(), signal.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], signal[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLengths, DwtReconstructionTest,
    ::testing::Combine(::testing::Values(WaveletKind::kHaar, WaveletKind::kDaubechies4),
                       ::testing::Values<size_t>(1, 2, 3, 7, 16, 33, 100, 256, 1000),
                       ::testing::Values<uint64_t>(1, 2)));

TEST(DwtTest, HaarOfConstantHasZeroDetails) {
  const std::vector<double> constant(64, 5.0);
  auto coeffs = ForwardDwt(constant, WaveletKind::kHaar, 0);
  ASSERT_TRUE(coeffs.ok());
  for (int level = 1; level <= coeffs->levels; ++level) {
    const auto [begin, end] = coeffs->DetailRange(level);
    for (size_t i = begin; i < end; ++i) {
      EXPECT_NEAR(coeffs->data[i], 0.0, 1e-12);
    }
  }
}

TEST(DwtTest, EnergyPreserved) {
  // Orthonormal transform: sum of squares is invariant (Parseval).
  const std::vector<double> signal = RandomSignal(128, 9);
  auto coeffs = ForwardDwt(signal, WaveletKind::kDaubechies4, 0);
  ASSERT_TRUE(coeffs.ok());
  double in_energy = 0.0;
  for (double v : signal) {
    in_energy += v * v;
  }
  // Padding replicates the last value, so compare on the padded signal.
  std::vector<double> padded = signal;
  padded.resize(coeffs->PaddedLength(), signal.back());
  in_energy = 0.0;
  for (double v : padded) {
    in_energy += v * v;
  }
  double out_energy = 0.0;
  for (double v : coeffs->data) {
    out_energy += v * v;
  }
  EXPECT_NEAR(out_energy, in_energy, in_energy * 1e-9);
}

TEST(DwtTest, EmptySignalRejected) {
  EXPECT_FALSE(ForwardDwt({}, WaveletKind::kHaar, 0).ok());
}

TEST(DwtTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

// ---------- denoise ----------

TEST(DenoiseTest, RemovesWhiteNoiseFromSmoothSignal) {
  Pcg32 rng(17);
  const size_t n = 512;
  std::vector<double> clean(n);
  std::vector<double> noisy(n);
  for (size_t i = 0; i < n; ++i) {
    clean[i] = 10.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 128.0);
    noisy[i] = clean[i] + rng.Gaussian(0, 0.8);
  }
  auto denoised = Denoise(noisy, WaveletKind::kDaubechies4, 0, ThresholdMode::kHard);
  ASSERT_TRUE(denoised.ok());
  EXPECT_LT(Rmse(*denoised, clean), 0.8 * Rmse(noisy, clean));
  // Soft thresholding trades bias for variance: it may not beat the noisy input in
  // RMSE on strong signals, but it must produce a *smoother* series (adjacent-sample
  // differences dominated by signal, not noise).
  auto soft = Denoise(noisy, WaveletKind::kDaubechies4, 0, ThresholdMode::kSoft);
  ASSERT_TRUE(soft.ok());
  auto roughness = [](const std::vector<double>& x) {
    double sum = 0.0;
    for (size_t i = 1; i < x.size(); ++i) {
      sum += (x[i] - x[i - 1]) * (x[i] - x[i - 1]);
    }
    return sum;
  };
  EXPECT_LT(roughness(*soft), 0.5 * roughness(noisy));
}

TEST(DenoiseTest, SigmaEstimateTracksTrueNoise) {
  Pcg32 rng(19);
  std::vector<double> noise(4096);
  for (double& v : noise) {
    v = rng.Gaussian(0, 1.5);
  }
  auto coeffs = ForwardDwt(noise, WaveletKind::kHaar, 0);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_NEAR(EstimateNoiseSigma(*coeffs), 1.5, 0.15);
}

TEST(DenoiseTest, ThresholdZeroKeepsSignal) {
  const std::vector<double> signal = RandomSignal(64, 23);
  auto coeffs = ForwardDwt(signal, WaveletKind::kHaar, 0);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_EQ(ThresholdDetails(&*coeffs, 0.0, ThresholdMode::kHard), 0u);
}

// ---------- codec ----------

TEST(CodecTest, RawRoundTripIsFloat32Exact) {
  const std::vector<double> values = RandomSignal(100, 29);
  const auto bytes = EncodeRawBatch(Hours(1), Seconds(31), values);
  auto decoded = DecodeBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->format, BatchFormat::kRaw);
  ASSERT_EQ(decoded->samples.size(), values.size());
  EXPECT_EQ(decoded->samples[0].t, Hours(1));
  EXPECT_EQ(decoded->samples[1].t, Hours(1) + Seconds(31));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded->samples[i].value, values[i], std::abs(values[i]) * 1e-6 + 1e-5);
  }
}

TEST(CodecTest, WaveletRoundTripBoundedByQuantStep) {
  const std::vector<double> values = RandomSignal(256, 31);
  CodecParams params;
  params.denoise = false;  // isolate quantization error
  params.quant_step = 0.01;
  auto bytes = EncodeWaveletBatch(0, Seconds(31), values, params);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DecodeBatch(*bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->samples.size(), values.size());
  // Each of the ~n coefficients errs by <= step/2; the orthonormal inverse spreads the
  // error, keeping pointwise error within a few steps in practice.
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded->samples[i].value, values[i], 0.15);
  }
}

TEST(CodecTest, CompressionBeatsRawOnSmoothData) {
  std::vector<double> smooth(512);
  for (size_t i = 0; i < smooth.size(); ++i) {
    smooth[i] = 20.0 + 3.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 256.0);
  }
  CodecParams params;
  params.quant_step = 0.02;
  auto compressed = EncodeWaveletBatch(0, Seconds(31), smooth, params);
  ASSERT_TRUE(compressed.ok());
  const auto raw = EncodeRawBatch(0, Seconds(31), smooth);
  EXPECT_LT(compressed->size(), raw.size() / 4);
}

TEST(CodecTest, CompressionRatioImprovesWithBatchSize) {
  // The Figure 2 mechanism: larger batches compress better per sample.
  Pcg32 rng(37);
  auto ratio_for = [&rng](size_t n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = 20.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 2048.0) +
                  rng.Gaussian(0, 0.12);
    }
    CodecParams params;
    params.quant_step = 0.05;
    auto compressed = EncodeWaveletBatch(0, Seconds(31), values, params);
    EXPECT_TRUE(compressed.ok());
    return static_cast<double>(EncodeRawBatch(0, Seconds(31), values).size()) /
           static_cast<double>(compressed->size());
  };
  const double small = ratio_for(32);
  const double large = ratio_for(4096);
  EXPECT_GT(large, small);
}

TEST(CodecTest, DenoisingReducesPayload) {
  Pcg32 rng(41);
  std::vector<double> noisy(1024);
  for (size_t i = 0; i < noisy.size(); ++i) {
    noisy[i] = 20.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 512.0) +
               rng.Gaussian(0, 0.2);
  }
  CodecParams with;
  with.denoise = true;
  with.quant_step = 0.02;
  CodecParams without = with;
  without.denoise = false;
  auto a = EncodeWaveletBatch(0, Seconds(31), noisy, with);
  auto b = EncodeWaveletBatch(0, Seconds(31), noisy, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->size(), b->size());
}

TEST(CodecTest, IrregularRoundTripExactTimestamps) {
  Pcg32 rng(43);
  std::vector<Sample> samples;
  SimTime t = Hours(3);
  for (int i = 0; i < 200; ++i) {
    t += rng.UniformInt(1, 600) * kMillisecond * 100;
    samples.push_back(Sample{t, rng.Gaussian(20, 5)});
  }
  const auto bytes = EncodeIrregularBatch(samples);
  auto decoded = DecodeBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->format, BatchFormat::kIrregular);
  ASSERT_EQ(decoded->samples.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(decoded->samples[i].t, samples[i].t);
    EXPECT_NEAR(decoded->samples[i].value, samples[i].value, 1e-3);
  }
}

TEST(CodecTest, GarbageRejected) {
  EXPECT_FALSE(DecodeBatch(std::vector<uint8_t>{}).ok());
  EXPECT_FALSE(DecodeBatch(std::vector<uint8_t>{99, 1, 2, 3}).ok());
}

// A batch's bytes by hand: the header every format shares, then `body`.
std::vector<uint8_t> BatchBytes(BatchFormat format, uint64_t count, SimTime start,
                                uint64_t period, const std::vector<uint8_t>& body) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(format));
  w.WriteVarU64(count);
  w.WriteI64(start);
  w.WriteVarU64(period);
  std::vector<uint8_t> out = w.TakeBuffer();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// A wavelet batch's bytes by hand: kind, levels, the quant step, then the packed bits.
std::vector<uint8_t> WaveletBytes(uint64_t count, uint8_t kind, uint8_t levels,
                                  const std::vector<uint8_t>& packed,
                                  float quant = 1.0f) {
  ByteWriter w;
  w.WriteU8(kind);
  w.WriteU8(levels);
  w.WriteF32(quant);
  w.WriteBytes(packed);
  return BatchBytes(BatchFormat::kWavelet, count, Hours(1),
                    static_cast<uint64_t>(kSecond), w.TakeBuffer());
}

// Inputs that crashed the decoder or ran it into undefined behaviour: each is refused
// as InvalidArgument now.
TEST(CodecTest, MalformedBatchesAreRefused) {
  const auto code_of = [](const std::vector<uint8_t>& bytes) {
    return DecodeBatch(bytes).status().code();
  };
  // A raw count of 2^61 with no samples behind it: a length_error at the reserve.
  EXPECT_EQ(code_of(BatchBytes(BatchFormat::kRaw, uint64_t{1} << 61, 0, 1, {})),
            StatusCode::kInvalidArgument);
  // One coefficient whose magnitude bucket is a 70-long unary run: a shift by 70.
  BitWriter bits;
  bits.WriteBits(1, 1);  // significant
  bits.WriteBits(0, 1);  // positive
  bits.WriteUnary(70);
  EXPECT_EQ(code_of(WaveletBytes(1, 0, 0, bits.bytes())), StatusCode::kInvalidArgument);
  // 70 levels over a one-sample batch: a shift by 69 in the inverse transform.
  EXPECT_EQ(code_of(WaveletBytes(1, 0, 70, {0})), StatusCode::kInvalidArgument);
  // A count above 2^63: an endless NextPowerOfTwo.
  EXPECT_EQ(code_of(WaveletBytes((uint64_t{1} << 63) + 1, 0, 0, {0})),
            StatusCode::kInvalidArgument);
  // A wavelet kind naming no enumerator once decoded as D4.
  EXPECT_EQ(code_of(WaveletBytes(1, 2, 0, {0})), StatusCode::kInvalidArgument);
  // An irregular delta past SimTime's range: a signed overflow.
  ByteWriter far;
  far.WriteVarU64(0);
  far.WriteF32(20.0f);
  far.WriteVarU64(uint64_t{1} << 62);
  far.WriteF32(21.0f);
  const std::vector<uint8_t> far_bytes = far.TakeBuffer();
  EXPECT_EQ(code_of(BatchBytes(BatchFormat::kIrregular, 2, Hours(1), 0, far_bytes)),
            StatusCode::kInvalidArgument);
  // A grid whose last sample time overflows, or whose period is negative.
  ByteWriter two;
  two.WriteF32(20.0f);
  two.WriteF32(21.0f);
  const std::vector<uint8_t> values = two.TakeBuffer();
  for (const uint64_t period : {uint64_t{INT64_MAX}, uint64_t{1} << 63}) {
    EXPECT_EQ(code_of(BatchBytes(BatchFormat::kRaw, 2, Hours(1), period, values)),
              StatusCode::kInvalidArgument)
        << period;
  }
  // The same two raw samples on a sane grid decode.
  auto sane = DecodeBatch(BatchBytes(BatchFormat::kRaw, 2, Hours(1), 7, values));
  ASSERT_TRUE(sane.ok());
  EXPECT_EQ(sane->samples.back().t, Hours(1) + 7);
}

// No encoder emits these quant steps or sample values, but a peer's bytes may carry
// them: each is refused, and the encoder's own rule refuses the same steps.
TEST(CodecTest, NonFiniteOrNonPositiveQuantStepsAndValuesAreRefused) {
  // One significant coefficient of magnitude 1.
  BitWriter bits;
  bits.WriteBits(1, 1);
  bits.WriteBits(0, 1);
  bits.WriteUnary(0);
  const auto decode_code = [&bits](float quant) {
    return DecodeBatch(WaveletBytes(1, 0, 0, bits.bytes(), quant)).status().code();
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float quant : {nan, -0.0f, 0.0f, -0.5f, -inf, inf}) {
    EXPECT_EQ(decode_code(quant), StatusCode::kInvalidArgument) << quant;
  }
  const float tiny = std::numeric_limits<float>::denorm_min();
  auto smallest = DecodeBatch(WaveletBytes(1, 0, 0, bits.bytes(), tiny));
  ASSERT_TRUE(smallest.ok());
  EXPECT_GT(smallest->samples[0].value, 0.0);
  EXPECT_EQ(decode_code(0.25f), StatusCode::kOk);

  for (const float bad : {nan, inf, -inf}) {
    ByteWriter raw;
    raw.WriteF32(20.0f);
    raw.WriteF32(bad);
    const auto raw_bytes = BatchBytes(BatchFormat::kRaw, 2, 0, 7, raw.TakeBuffer());
    EXPECT_EQ(DecodeBatch(raw_bytes).status().code(), StatusCode::kInvalidArgument);
    ByteWriter irregular;
    irregular.WriteVarU64(0);
    irregular.WriteF32(bad);
    const auto irregular_bytes =
        BatchBytes(BatchFormat::kIrregular, 1, 0, 0, irregular.TakeBuffer());
    EXPECT_EQ(DecodeBatch(irregular_bytes).status().code(), StatusCode::kInvalidArgument);
  }

  // The encoder side: the f32 the wire would carry must be positive and finite. 1e-50
  // underflows to 0 as an f32 and 1e39 overflows its range.
  const double nan_step = std::numeric_limits<double>::quiet_NaN();
  const double inf_step = std::numeric_limits<double>::infinity();
  CodecParams params;
  for (const double step : {nan_step, -0.0, 0.0, -0.02, 1e-50, 1e39, inf_step}) {
    params.quant_step = step;
    EXPECT_EQ(Validate(params).code(), StatusCode::kInvalidArgument) << step;
  }
  for (const double step : {0.02, 1e-40, static_cast<double>(FLT_MAX)}) {
    params.quant_step = step;
    EXPECT_TRUE(Validate(params).ok()) << step;
  }
}

// Every byte-mutated or truncated encoding of each batch format and of a sealed page
// decodes to a typed error or to a bounded, time-ordered sample list. Under the
// sanitizers this is the crash and undefined-behaviour check for both decoders.
TEST(CodecTest, MutatedBatchesAndPagesDecodeOrFailCleanly) {
  const std::vector<double> values = RandomSignal(40, 5);
  std::vector<Sample> irregular;
  for (size_t i = 0; i < values.size(); ++i) {
    const Duration offset = static_cast<Duration>(i * i) * kSecond;
    irregular.push_back(Sample{Hours(2) + offset, values[i]});
  }
  CodecParams haar;
  CodecParams d4;
  d4.kind = WaveletKind::kDaubechies4;
  d4.levels = 2;
  PageBuilder builder(256);
  for (const Sample& s : irregular) {
    if (builder.Fits(s.t, s.value)) {
      builder.Add(s.t, s.value);
    }
  }
  const std::vector<uint8_t> page = builder.Seal(7, kSecond);
  const std::vector<std::vector<uint8_t>> batches = {
      EncodeRawBatch(Hours(1), kSecond, values),
      *EncodeWaveletBatch(Hours(1), kSecond, values, haar),
      *EncodeWaveletBatch(Hours(1), kSecond, values, d4),
      EncodeIrregularBatch(irregular),
  };
  const auto expect_sane = [](const std::vector<Sample>& samples, size_t byte_count) {
    ASSERT_LE(samples.size(), 8 * byte_count);
    for (size_t i = 1; i < samples.size(); ++i) {
      ASSERT_LE(samples[i - 1].t, samples[i].t) << "sample " << i;
    }
  };
  Pcg32 rng(4242);
  const auto below = [&rng](size_t bound) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bound) - 1));
  };
  const auto mutate = [&](std::vector<uint8_t> bytes) {
    const int flips = 1 + static_cast<int>(below(3));
    for (int i = 0; i < flips; ++i) {
      bytes[below(bytes.size())] = static_cast<uint8_t>(rng.NextU32());
    }
    if (below(4) == 0) {
      bytes.resize(below(bytes.size() + 1));
    }
    return bytes;
  };
  for (int iter = 0; iter < 4000; ++iter) {
    const std::vector<uint8_t> batch = mutate(batches[below(batches.size())]);
    auto decoded = DecodeBatch(batch);
    if (decoded.ok()) {
      expect_sane(decoded->samples, batch.size());
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }

    // A page mutated past its header usually fails the checksum; half the time the
    // checksum is made to match, so the record decoder sees the mutation too.
    std::vector<uint8_t> mutated = mutate(page);
    if (below(2) == 0 && mutated.size() >= static_cast<size_t>(kPageHeaderBytes)) {
      const size_t used = mutated[6] | (static_cast<size_t>(mutated[7]) << 8);
      if (kPageHeaderBytes + used <= mutated.size()) {
        const uint16_t sum = Fletcher16(
            span<const uint8_t>(mutated.data() + kPageHeaderBytes, used));
        mutated[8] = static_cast<uint8_t>(sum);
        mutated[9] = static_cast<uint8_t>(sum >> 8);
      }
    }
    auto records = DecodePage(mutated);
    if (records.ok()) {
      expect_sane(records->samples, mutated.size());
    } else {
      const StatusCode code = records.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss || code == StatusCode::kNotFound)
          << records.status().ToString();
    }
  }
  // Every truncation of every encoding is refused or decodes sanely too.
  for (const std::vector<uint8_t>& whole : batches) {
    for (size_t n = 0; n < whole.size(); ++n) {
      const std::vector<uint8_t> prefix(whole.begin(), whole.begin() + n);
      auto decoded = DecodeBatch(prefix);
      if (decoded.ok()) {
        expect_sane(decoded->samples, prefix.size());
      }
    }
  }
  for (size_t n = 0; n < page.size(); ++n) {
    auto decoded = DecodePage(span<const uint8_t>(page.data(), n));
    if (decoded.ok()) {
      expect_sane(decoded->samples, n);
    }
  }
}

// ---------- aging ----------

TEST(AgingTest, SummarizeProducesWindowMeans) {
  std::vector<Sample> samples;
  for (int i = 0; i < 64; ++i) {
    samples.push_back(Sample{i * Seconds(31), static_cast<double>(i)});
  }
  const auto coarse = WaveletAgingSummarize(samples, 4);
  ASSERT_EQ(coarse.size(), 16u);
  for (size_t i = 0; i < coarse.size(); ++i) {
    // Mean of {4i, 4i+1, 4i+2, 4i+3} = 4i + 1.5.
    EXPECT_NEAR(coarse[i].value, 4.0 * static_cast<double>(i) + 1.5, 1e-9);
    EXPECT_EQ(coarse[i].t, samples[i * 4].t);
  }
}

TEST(AgingTest, FactorOneIsIdentity) {
  const std::vector<Sample> samples = {{0, 1.0}, {10, 2.0}};
  EXPECT_EQ(WaveletAgingSummarize(samples, 1), samples);
}

TEST(AgingTest, UpsampleStepInterpolates) {
  const std::vector<Sample> coarse = {{0, 1.0}, {Seconds(100), 2.0}};
  const auto fine = UpsampleToGrid(coarse, Seconds(50), 0, 4);
  ASSERT_EQ(fine.size(), 4u);
  EXPECT_EQ(fine[0].value, 1.0);
  EXPECT_EQ(fine[1].value, 1.0);
  EXPECT_EQ(fine[2].value, 2.0);  // t=100 picks the second coarse sample
  EXPECT_EQ(fine[3].value, 2.0);
}

TEST(AgingTest, RepeatedAgingDegradesGracefully) {
  // Summarize twice (4x then 4x = 16x): RMSE vs window means stays bounded for a
  // smooth signal.
  std::vector<Sample> samples;
  for (int i = 0; i < 1024; ++i) {
    samples.push_back(Sample{i * Seconds(31),
                             20.0 + 5.0 * std::sin(2.0 * M_PI * i / 512.0)});
  }
  const auto once = WaveletAgingSummarize(samples, 4);
  const auto twice = WaveletAgingSummarize(once, 4);
  ASSERT_EQ(twice.size(), 64u);
  for (size_t i = 0; i < twice.size(); ++i) {
    const double truth = samples[i * 16 + 8].value;  // mid-window reference
    EXPECT_NEAR(twice[i].value, truth, 0.6);
  }
}

}  // namespace
}  // namespace presto
