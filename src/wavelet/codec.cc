#include "src/wavelet/codec.h"

#include <cmath>

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

uint64_t ReadMagnitude(BitReader* r) {
  const int bucket = r->ReadUnary();
  if (bucket == 0) {
    return 1;
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

Status Validate(const CodecParams& params) {
  if (!(params.quant_step > 0.0)) {
    return InvalidArgumentError("codec: quant_step must be positive");
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

Result<DecodedBatch> DecodeBatch(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto format = r.ReadU8();
  if (!format.ok()) {
    return InvalidArgumentError("codec: empty payload");
  }
  auto count = r.ReadVarU64();
  auto start = r.ReadI64();
  auto period = r.ReadVarU64();
  if (!count.ok() || !start.ok() || !period.ok()) {
    return InvalidArgumentError("codec: truncated batch header");
  }
  DecodedBatch out;
  out.format = static_cast<BatchFormat>(*format);
  out.start = *start;
  out.period = static_cast<Duration>(*period);

  if (*format == static_cast<uint8_t>(BatchFormat::kRaw)) {
    std::vector<double> values;
    values.reserve(*count);
    for (uint64_t i = 0; i < *count; ++i) {
      auto v = r.ReadF32();
      if (!v.ok()) {
        return InvalidArgumentError("codec: truncated raw batch");
      }
      values.push_back(static_cast<double>(*v));
    }
    out.samples = GridSamples(out.start, out.period, values);
    return out;
  }
  if (*format == static_cast<uint8_t>(BatchFormat::kIrregular)) {
    SimTime t = out.start;
    for (uint64_t i = 0; i < *count; ++i) {
      auto delta = r.ReadVarU64();
      auto v = r.ReadF32();
      if (!delta.ok() || !v.ok()) {
        return InvalidArgumentError("codec: truncated irregular batch");
      }
      t += static_cast<Duration>(*delta) * kMillisecond;
      out.samples.push_back(Sample{t, static_cast<double>(*v)});
    }
    return out;
  }
  if (*format != static_cast<uint8_t>(BatchFormat::kWavelet)) {
    return InvalidArgumentError("codec: unknown batch format");
  }

  auto kind = r.ReadU8();
  auto levels = r.ReadU8();
  auto quant = r.ReadF32();
  auto packed = r.ReadBytes();
  if (!kind.ok() || !levels.ok() || !quant.ok() || !packed.ok()) {
    return InvalidArgumentError("codec: truncated wavelet header");
  }
  if (*count == 0) {
    return InvalidArgumentError("codec: empty wavelet batch");
  }
  DwtCoeffs coeffs;
  coeffs.kind = static_cast<WaveletKind>(*kind);
  coeffs.levels = *levels;
  coeffs.original_length = *count;
  coeffs.data.assign(NextPowerOfTwo(*count), 0.0);

  BitReader bits(*packed);
  for (double& c : coeffs.data) {
    if (bits.ReadBits(1) == 0) {
      continue;
    }
    const bool negative = bits.ReadBits(1) == 1;
    const uint64_t magnitude = ReadMagnitude(&bits);
    const double value = static_cast<double>(magnitude) * static_cast<double>(*quant);
    c = negative ? -value : value;
  }
  out.samples = GridSamples(out.start, out.period, InverseDwt(coeffs));
  return out;
}

int64_t CompressCostOps(size_t n, const CodecParams& params) {
  return DwtCostOps(n, params.kind) + static_cast<int64_t>(n) * 4;
}

}  // namespace presto
