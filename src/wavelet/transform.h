// 1-D discrete wavelet transform (Haar and Daubechies-4), the signal-processing
// substrate for batched-push compression, denoising (paper Fig. 2, "wavelet
// denoising"), and multi-resolution aging of the sensor archive (paper §4, [10]).

#ifndef SRC_WAVELET_TRANSFORM_H_
#define SRC_WAVELET_TRANSFORM_H_

#include <vector>

#include "src/util/result.h"

namespace presto {

enum class WaveletKind : uint8_t {
  kHaar = 0,
  kDaubechies4 = 1,
};
constexpr bool CkptEnumValid(WaveletKind v) { return v <= WaveletKind::kDaubechies4; }

// Pyramid DWT coefficients. Layout of `data` (padded length n = 2^k):
//   [ approx(level L) | detail(level L) | detail(level L-1) | ... | detail(level 1) ]
// where approx/detail at level L have n / 2^L entries each.
struct DwtCoeffs {
  WaveletKind kind = WaveletKind::kHaar;
  int levels = 0;
  size_t original_length = 0;  // before padding
  std::vector<double> data;    // padded power-of-two length

  size_t PaddedLength() const { return data.size(); }
  // Span [begin, end) of the detail coefficients at `level` (1 = finest).
  std::pair<size_t, size_t> DetailRange(int level) const;
  // Span of the coarsest approximation coefficients.
  std::pair<size_t, size_t> ApproxRange() const;
};

// Forward transform. The signal is edge-padded (replicating the last value) to the next
// power of two. `levels` is clamped to what the padded length supports; levels <= 0
// selects the maximum. Fails on an empty signal.
Result<DwtCoeffs> ForwardDwt(const std::vector<double>& signal, WaveletKind kind,
                             int levels);

// Inverse transform; returns exactly original_length samples.
std::vector<double> InverseDwt(const DwtCoeffs& coeffs);

// Smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

// Abstract op count for one forward or inverse pass (CPU energy accounting).
int64_t DwtCostOps(size_t length, WaveletKind kind);

}  // namespace presto

#endif  // SRC_WAVELET_TRANSFORM_H_
