// Batch wire codec: turns a window of regularly sampled values into radio payload
// bytes, either raw (float32 per sample) or wavelet-compressed (threshold + quantize +
// bit-pack). The byte counts this codec produces are what the energy model charges for,
// making compression-vs-energy tradeoffs (Figure 2) real rather than assumed.

#ifndef SRC_WAVELET_CODEC_H_
#define SRC_WAVELET_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sample.h"
#include "src/util/span.h"
#include "src/wavelet/transform.h"

namespace presto {

enum class BatchFormat : uint8_t {
  kRaw = 0,        // regular grid, float32 per sample
  kWavelet = 1,    // regular grid, thresholded + quantized DWT coefficients
  kIrregular = 2,  // explicit (delta-ms, float32) pairs — aged or gappy archive data
};

struct CodecParams {
  WaveletKind kind = WaveletKind::kHaar;
  int levels = 0;              // <= 0: maximum decomposition depth
  double quant_step = 0.02;    // coefficient quantization step (value units)
  bool denoise = true;         // apply universal threshold before quantizing
  double denoise_scale = 1.0;  // multiplier on the universal threshold
};

template <class S, class F, CkptSelf<S, CodecParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.kind);
  f(v.levels);
  f(v.quant_step);
  f(v.denoise);
  f(v.denoise_scale);
}

// A quantization step a wavelet batch can carry: the wire holds it as an f32, so its
// f32 rounding must be a positive finite float (not NaN, -0, negative, underflowing
// to 0 or overflowing to infinity).
bool IsWireQuantStep(double step);

// The encoder's rules for its params (InvalidArgument when broken): the quant step
// is a wire quant step, so what the encoder writes the decoder accepts.
Status Validate(const CodecParams& params);

struct DecodedBatch {
  BatchFormat format = BatchFormat::kRaw;
  SimTime start = 0;
  Duration period = 0;          // 0 for kIrregular
  std::vector<Sample> samples;  // always populated, time-ordered

  std::vector<double> Values() const { return ValuesOf(samples); }
};

// Encodes `values[i]` sampled at `start + i * period` without compression.
std::vector<uint8_t> EncodeRawBatch(SimTime start, Duration period,
                                    const std::vector<double>& values);

// Wavelet-compresses the batch. Reconstruction error is bounded by the quantization
// step plus whatever the denoising threshold removed (which, on noisy signals, is
// mostly noise — that is the point).
Result<std::vector<uint8_t>> EncodeWaveletBatch(SimTime start, Duration period,
                                                const std::vector<double>& values,
                                                const CodecParams& params);

// Encodes arbitrary time-ordered samples (no grid assumption): varint millisecond
// deltas + float32 values. Used for archive replies that span aged (mixed-resolution)
// regions where the grid codecs do not apply.
std::vector<uint8_t> EncodeIrregularBatch(const std::vector<Sample>& samples);

// Decodes any format (dispatching on the leading format byte).
Result<DecodedBatch> DecodeBatch(span<const uint8_t> bytes);

// Abstract op count for compressing a batch of `n` (CPU energy accounting).
int64_t CompressCostOps(size_t n, const CodecParams& params);

}  // namespace presto

#endif  // SRC_WAVELET_CODEC_H_
