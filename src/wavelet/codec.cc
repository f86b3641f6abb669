#include "src/wavelet/codec.h"

#include <cmath>
#include <limits>

#include "src/util/assert.h"
#include "src/util/bitpack.h"
#include "src/util/bytes.h"
#include "src/wavelet/denoise.h"

namespace presto {
namespace {

// Exp-Golomb style coding for non-negative integers: unary bucket (bit length - 1)
// followed by the value's low bits. Small magnitudes -> few bits.
void WriteMagnitude(BitWriter* w, uint64_t v) {
  PRESTO_DCHECK(v >= 1);
  int bits = 0;
  uint64_t tmp = v;
  while (tmp > 0) {
    ++bits;
    tmp >>= 1;
  }
  w->WriteUnary(bits - 1);
  if (bits > 1) {
    // Leading bit is implied by the bucket; store the rest.
    w->WriteBits(v & ((1ULL << (bits - 1)) - 1), bits - 1);
  }
}

// 0 (never a written magnitude) when the bucket is too long for a uint64_t.
uint64_t ReadMagnitude(BitReader* r) {
  const int bucket = r->ReadUnary();
  if (bucket == 0) {
    return 1;
  }
  if (bucket > 63) {
    return 0;
  }
  return (1ULL << bucket) | r->ReadBits(bucket);
}

}  // namespace

namespace {

std::vector<Sample> GridSamples(SimTime start, Duration period,
                                const std::vector<double>& values) {
  std::vector<Sample> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(Sample{start + static_cast<Duration>(i) * period, values[i]});
  }
  return out;
}

}  // namespace

std::vector<uint8_t> EncodeRawBatch(SimTime start, Duration period,
                                    const std::vector<double>& values) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kRaw));
  w.WriteVarU64(values.size());
  w.WriteI64(start);
  w.WriteVarU64(static_cast<uint64_t>(period));
  for (double v : values) {
    w.WriteF32(static_cast<float>(v));
  }
  return w.TakeBuffer();
}

bool IsWireQuantStep(double step) {
  // Range-checked first: narrowing a double beyond the float range is undefined.
  return step > 0.0 && step <= std::numeric_limits<float>::max() &&
         static_cast<float>(step) > 0.0f;
}

Status Validate(const CodecParams& params) {
  if (!IsWireQuantStep(params.quant_step)) {
    return InvalidArgumentError("codec: quant_step must be a positive finite f32");
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> EncodeWaveletBatch(SimTime start, Duration period,
                                                const std::vector<double>& values,
                                                const CodecParams& params) {
  if (values.empty()) {
    return InvalidArgumentError("codec: empty batch");
  }
  PRESTO_CHECK_OK(Validate(params));
  auto coeffs = ForwardDwt(values, params.kind, params.levels);
  if (!coeffs.ok()) {
    return coeffs.status();
  }
  if (params.denoise && coeffs->levels >= 1) {
    const double sigma = EstimateNoiseSigma(*coeffs);
    const double threshold =
        UniversalThreshold(sigma, coeffs->PaddedLength()) * params.denoise_scale;
    ThresholdDetails(&*coeffs, threshold, ThresholdMode::kHard);
  }

  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kWavelet));
  w.WriteVarU64(values.size());
  w.WriteI64(start);
  w.WriteVarU64(static_cast<uint64_t>(period));
  w.WriteU8(static_cast<uint8_t>(params.kind));
  w.WriteU8(static_cast<uint8_t>(coeffs->levels));
  w.WriteF32(static_cast<float>(params.quant_step));

  // Significance bitmap + sign/magnitude for nonzero quantized coefficients.
  BitWriter bits;
  for (double c : coeffs->data) {
    const int64_t q = static_cast<int64_t>(std::llround(c / params.quant_step));
    if (q == 0) {
      bits.WriteBits(0, 1);
      continue;
    }
    bits.WriteBits(1, 1);
    bits.WriteBits(q < 0 ? 1 : 0, 1);
    WriteMagnitude(&bits, static_cast<uint64_t>(q < 0 ? -q : q));
  }
  w.WriteBytes(bits.bytes());
  return w.TakeBuffer();
}

std::vector<uint8_t> EncodeIrregularBatch(const std::vector<Sample>& samples) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kIrregular));
  w.WriteVarU64(samples.size());
  w.WriteI64(samples.empty() ? 0 : samples.front().t);
  w.WriteVarU64(0);  // period: meaningless for irregular data
  SimTime prev = samples.empty() ? 0 : samples.front().t;
  for (const Sample& s : samples) {
    PRESTO_DCHECK(s.t >= prev);
    w.WriteVarU64(static_cast<uint64_t>((s.t - prev) / kMillisecond));
    w.WriteF32(static_cast<float>(s.value));
    prev += ((s.t - prev) / kMillisecond) * kMillisecond;
  }
  return w.TakeBuffer();
}

// Every count and time below comes from the bytes, so each is bounded before use: a
// count by the bytes its samples need, a grid's last time and each irregular delta by
// SimTime's range, and a wavelet's levels and magnitudes by what its transform and a
// uint64_t can hold.
Result<DecodedBatch> DecodeBatch(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t format = r.ReadU8();
  if (!r.ok()) {
    return InvalidArgumentError("codec: empty payload");
  }
  const uint64_t count = r.ReadVarU64();
  const int64_t start = r.ReadI64();
  const uint64_t period = r.ReadVarU64();
  if (!r.ok()) {
    return InvalidArgumentError("codec: truncated batch header");
  }
  DecodedBatch out;
  out.format = static_cast<BatchFormat>(format);
  out.start = start;
  out.period = static_cast<Duration>(period);
  // A grid format's (raw, wavelet) last sample time must be a SimTime too.
  SimTime last = out.start;
  const bool grid_fits =
      out.period >= 0 && (count == 0 || AdvanceTime(last, count - 1, out.period));

  if (format == static_cast<uint8_t>(BatchFormat::kRaw)) {
    if (count > r.remaining() / 4) {
      return InvalidArgumentError("codec: truncated raw batch");
    }
    if (!grid_fits) {
      return InvalidArgumentError("codec: batch time overflows");
    }
    std::vector<double> values;
    values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const float v = r.ReadF32();
      if (!std::isfinite(v)) {
        return InvalidArgumentError("codec: raw sample not finite");
      }
      values.push_back(static_cast<double>(v));
    }
    out.samples = GridSamples(out.start, out.period, values);
    return out;
  }
  if (format == static_cast<uint8_t>(BatchFormat::kIrregular)) {
    if (count > r.remaining() / 5) {
      return InvalidArgumentError("codec: truncated irregular batch");
    }
    SimTime t = out.start;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t delta = r.ReadVarU64();
      const float v = r.ReadF32();
      if (!r.ok()) {
        return InvalidArgumentError("codec: truncated irregular batch");
      }
      if (!std::isfinite(v)) {
        return InvalidArgumentError("codec: irregular sample not finite");
      }
      if (!AdvanceTime(t, delta, kMillisecond)) {
        return InvalidArgumentError("codec: batch time overflows");
      }
      out.samples.push_back(Sample{t, static_cast<double>(v)});
    }
    return out;
  }
  if (format != static_cast<uint8_t>(BatchFormat::kWavelet)) {
    return InvalidArgumentError("codec: unknown batch format");
  }

  const uint8_t kind = r.ReadU8();
  const uint8_t levels = r.ReadU8();
  const float quant = r.ReadF32();
  const std::vector<uint8_t> packed = r.ReadBytes();
  if (!r.ok()) {
    return InvalidArgumentError("codec: truncated wavelet header");
  }
  if (count == 0) {
    return InvalidArgumentError("codec: empty wavelet batch");
  }
  if (!CkptEnumValid(static_cast<WaveletKind>(kind))) {
    return InvalidArgumentError("codec: unknown wavelet kind");
  }
  // Every coefficient is a magnitude times this step.
  if (!IsWireQuantStep(quant)) {
    return InvalidArgumentError("codec: wavelet quant step not a positive finite f32");
  }
  // Each padded coefficient costs at least its significance bit.
  const size_t bit_count = 8 * packed.size();
  const size_t padded = count > bit_count ? 0 : NextPowerOfTwo(count);
  if (padded == 0 || padded > bit_count) {
    return InvalidArgumentError("codec: wavelet batch longer than its bits");
  }
  if (levels >= 64 || (padded >> levels) == 0) {
    return InvalidArgumentError("codec: wavelet levels exceed the batch");
  }
  if (!grid_fits) {
    return InvalidArgumentError("codec: batch time overflows");
  }
  DwtCoeffs coeffs;
  coeffs.kind = static_cast<WaveletKind>(kind);
  coeffs.levels = levels;
  coeffs.original_length = count;
  coeffs.data.assign(padded, 0.0);

  BitReader bits(packed);
  for (double& c : coeffs.data) {
    if (bits.ReadBits(1) == 0) {
      continue;
    }
    const bool negative = bits.ReadBits(1) == 1;
    const uint64_t magnitude = ReadMagnitude(&bits);
    if (magnitude == 0) {
      return InvalidArgumentError("codec: wavelet magnitude too long");
    }
    const double value = static_cast<double>(magnitude) * static_cast<double>(quant);
    c = negative ? -value : value;
  }
  out.samples = GridSamples(out.start, out.period, InverseDwt(coeffs));
  return out;
}

int64_t CompressCostOps(size_t n, const CodecParams& params) {
  return DwtCostOps(n, params.kind) + static_cast<int64_t>(n) * 4;
}

}  // namespace presto
