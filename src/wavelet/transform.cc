#include "src/wavelet/transform.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/assert.h"

namespace presto {
namespace {

// Daubechies-4 scaling coefficients.
constexpr std::array<double, 4> kD4H = {
    0.48296291314469025, 0.836516303737469, 0.22414386804185735, -0.12940952255092145};

// One analysis step on x[0..n): writes n/2 approx then n/2 detail into out[0..n).
void AnalyzeStep(const std::vector<double>& x, size_t n, WaveletKind kind,
                 std::vector<double>* out) {
  const size_t half = n / 2;
  if (kind == WaveletKind::kHaar) {
    const double r = 1.0 / std::sqrt(2.0);
    for (size_t i = 0; i < half; ++i) {
      (*out)[i] = (x[2 * i] + x[2 * i + 1]) * r;
      (*out)[half + i] = (x[2 * i] - x[2 * i + 1]) * r;
    }
    return;
  }
  // D4 with periodic extension.
  for (size_t i = 0; i < half; ++i) {
    double a = 0.0;
    double d = 0.0;
    for (size_t k = 0; k < 4; ++k) {
      const double v = x[(2 * i + k) % n];
      a += kD4H[k] * v;
      // Wavelet (high-pass) filter: g[k] = (-1)^k h[3-k].
      d += ((k % 2 == 0) ? 1.0 : -1.0) * kD4H[3 - k] * v;
    }
    (*out)[i] = a;
    (*out)[half + i] = d;
  }
}

// One synthesis step: approx in x[0..half), detail in x[half..n) -> signal out[0..n).
void SynthesizeStep(const std::vector<double>& x, size_t n, WaveletKind kind,
                    std::vector<double>* out) {
  const size_t half = n / 2;
  if (kind == WaveletKind::kHaar) {
    const double r = 1.0 / std::sqrt(2.0);
    for (size_t i = 0; i < half; ++i) {
      (*out)[2 * i] = (x[i] + x[half + i]) * r;
      (*out)[2 * i + 1] = (x[i] - x[half + i]) * r;
    }
    return;
  }
  std::fill(out->begin(), out->begin() + static_cast<ptrdiff_t>(n), 0.0);
  for (size_t i = 0; i < half; ++i) {
    const double a = x[i];
    const double d = x[half + i];
    for (size_t k = 0; k < 4; ++k) {
      const size_t pos = (2 * i + k) % n;
      (*out)[pos] += kD4H[k] * a + ((k % 2 == 0) ? 1.0 : -1.0) * kD4H[3 - k] * d;
    }
  }
}

}  // namespace

size_t NextPowerOfTwo(size_t n) {
  PRESTO_CHECK(n >= 1);
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

std::pair<size_t, size_t> DwtCoeffs::DetailRange(int level) const {
  PRESTO_CHECK(level >= 1 && level <= levels);
  const size_t n = PaddedLength();
  const size_t begin = n >> level;
  const size_t end = n >> (level - 1);
  return {begin, end};
}

std::pair<size_t, size_t> DwtCoeffs::ApproxRange() const {
  return {0, PaddedLength() >> levels};
}

Result<DwtCoeffs> ForwardDwt(const std::vector<double>& signal, WaveletKind kind,
                             int levels) {
  if (signal.empty()) {
    return InvalidArgumentError("dwt: empty signal");
  }
  const size_t padded = NextPowerOfTwo(signal.size());
  int max_levels = 0;
  while ((padded >> (max_levels + 1)) >= 1 && (padded >> max_levels) > 1) {
    ++max_levels;
  }
  if (kind == WaveletKind::kDaubechies4) {
    // D4 needs at least 4 samples per analyzed band.
    while (max_levels > 0 && (padded >> (max_levels - 1)) < 4) {
      --max_levels;
    }
  }
  if (levels <= 0 || levels > max_levels) {
    levels = max_levels;
  }

  DwtCoeffs out;
  out.kind = kind;
  out.levels = levels;
  out.original_length = signal.size();
  out.data = signal;
  out.data.resize(padded, signal.back());  // edge padding

  std::vector<double> scratch(padded);
  size_t n = padded;
  for (int l = 0; l < levels; ++l) {
    AnalyzeStep(out.data, n, kind, &scratch);
    std::copy(scratch.begin(), scratch.begin() + static_cast<ptrdiff_t>(n),
              out.data.begin());
    n /= 2;
  }
  return out;
}

std::vector<double> InverseDwt(const DwtCoeffs& coeffs) {
  PRESTO_CHECK(coeffs.levels >= 0);
  std::vector<double> data = coeffs.data;
  const size_t padded = data.size();
  std::vector<double> scratch(padded);
  for (int l = coeffs.levels; l >= 1; --l) {
    const size_t n = padded >> (l - 1);
    SynthesizeStep(data, n, coeffs.kind, &scratch);
    std::copy(scratch.begin(), scratch.begin() + static_cast<ptrdiff_t>(n), data.begin());
  }
  data.resize(coeffs.original_length);
  return data;
}

int64_t DwtCostOps(size_t length, WaveletKind kind) {
  const size_t padded = NextPowerOfTwo(std::max<size_t>(length, 1));
  const int64_t per_sample = kind == WaveletKind::kHaar ? 2 : 8;
  // Geometric sum over levels ~ 2n.
  return static_cast<int64_t>(2 * padded) * per_sample;
}

}  // namespace presto
