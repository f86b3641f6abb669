#include "src/models/markov.h"

#include <algorithm>
#include <cmath>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/bytes.h"

namespace presto {
namespace {

constexpr int kMaxPowerBits = 13;  // horizons up to 2^13 - 1 steps

std::vector<std::vector<double>> MatSquare(const std::vector<std::vector<double>>& m) {
  const size_t n = m.size();
  std::vector<std::vector<double>> out(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      const double a = m[i][k];
      if (a == 0.0) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        out[i][j] += a * m[k][j];
      }
    }
  }
  return out;
}

std::vector<double> VecMat(const std::vector<double>& v,
                           const std::vector<std::vector<double>>& m) {
  const size_t n = v.size();
  std::vector<double> out(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double a = v[i];
    if (a == 0.0) {
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      out[j] += a * m[i][j];
    }
  }
  return out;
}

}  // namespace

int MarkovModel::StateOf(double value) const {
  PRESTO_DCHECK(!centers_.empty());
  // Nearest center (centers are uniformly spaced).
  int best = 0;
  double best_d = std::abs(value - centers_[0]);
  for (int i = 1; i < num_states(); ++i) {
    const double d = std::abs(value - centers_[static_cast<size_t>(i)]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

Status MarkovModel::Fit(const std::vector<Sample>& history) {
  const int k = config_.markov_states;
  PRESTO_CHECK(k >= 2);
  if (history.size() < static_cast<size_t>(4 * k)) {
    return FailedPreconditionError("markov fit: history too short");
  }
  double lo = history[0].value;
  double hi = history[0].value;
  for (const Sample& s : history) {
    lo = std::min(lo, s.value);
    hi = std::max(hi, s.value);
  }
  if (hi - lo < 1e-9) {
    hi = lo + 1e-9;
  }
  const double width = (hi - lo) / k;
  bin_half_width_ = width / 2.0;
  centers_.assign(static_cast<size_t>(k), 0.0);
  for (int i = 0; i < k; ++i) {
    centers_[static_cast<size_t>(i)] = lo + width * (i + 0.5);
  }

  // Transition counts with Laplace smoothing; empirical marginal.
  std::vector<std::vector<double>> counts(static_cast<size_t>(k),
                                          std::vector<double>(static_cast<size_t>(k),
                                                              0.5));
  marginal_.assign(static_cast<size_t>(k), 1e-6);
  int prev = StateOf(history[0].value);
  marginal_[static_cast<size_t>(prev)] += 1.0;
  for (size_t i = 1; i < history.size(); ++i) {
    const int cur = StateOf(history[i].value);
    counts[static_cast<size_t>(prev)][static_cast<size_t>(cur)] += 1.0;
    marginal_[static_cast<size_t>(cur)] += 1.0;
    prev = cur;
  }
  double msum = 0.0;
  for (double m : marginal_) {
    msum += m;
  }
  for (double& m : marginal_) {
    m /= msum;
  }
  trans_ = counts;
  for (auto& row : trans_) {
    double rsum = 0.0;
    for (double c : row) {
      rsum += c;
    }
    for (double& c : row) {
      c /= rsum;
    }
  }
  // Round everything through the wire precision (u8 probabilities, f32 scalars) so the
  // proxy's copy and the sensor's deserialized copy are bit-identical — the lockstep
  // contract in model.h depends on it.
  QuantizeToWirePrecision();
  BuildPowerCache();
  fitted_ = true;
  anchored_ = false;
  return OkStatus();
}

void MarkovModel::QuantizeToWirePrecision() {
  bin_half_width_ = static_cast<double>(static_cast<float>(bin_half_width_));
  for (double& c : centers_) {
    c = static_cast<double>(static_cast<float>(c));
  }
  // Largest-remainder apportionment onto integers summing to exactly 255: Serialize's
  // round(p * 255) then recovers those integers bit-exactly, and the decoder's
  // normalization (divide by 255) reproduces these probabilities.
  auto quantize_row = [](std::vector<double>& row) {
    double sum = 0.0;
    for (double p : row) {
      sum += p;
    }
    PRESTO_CHECK(sum > 0.0);
    std::vector<int> units(row.size());
    std::vector<std::pair<double, size_t>> remainders;
    int assigned = 0;
    for (size_t i = 0; i < row.size(); ++i) {
      const double exact = row[i] / sum * 255.0;
      units[i] = static_cast<int>(exact);
      assigned += units[i];
      remainders.emplace_back(exact - units[i], i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (int extra = 0; extra < 255 - assigned; ++extra) {
      ++units[remainders[static_cast<size_t>(extra)].second];
    }
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = units[i] / 255.0;
    }
  };
  for (auto& row : trans_) {
    quantize_row(row);
  }
  quantize_row(marginal_);
}

void MarkovModel::BuildPowerCache() {
  power_cache_.clear();
  power_cache_.push_back(trans_);
  for (int i = 1; i < kMaxPowerBits; ++i) {
    power_cache_.push_back(MatSquare(power_cache_.back()));
  }
}

std::vector<double> MarkovModel::Evolve(int start, int64_t k) const {
  std::vector<double> dist(static_cast<size_t>(num_states()), 0.0);
  dist[static_cast<size_t>(start)] = 1.0;
  if (k >= (1LL << kMaxPowerBits)) {
    return marginal_;  // long horizon: effectively mixed
  }
  for (int bit = 0; bit < kMaxPowerBits; ++bit) {
    if ((k >> bit) & 1) {
      dist = VecMat(dist, power_cache_[static_cast<size_t>(bit)]);
    }
  }
  return dist;
}

Prediction MarkovModel::FromDistribution(const std::vector<double>& dist) const {
  double mean = 0.0;
  for (int i = 0; i < num_states(); ++i) {
    mean += dist[static_cast<size_t>(i)] * centers_[static_cast<size_t>(i)];
  }
  double var = bin_half_width_ * bin_half_width_ / 3.0;  // within-bin (uniform) variance
  for (int i = 0; i < num_states(); ++i) {
    const double d = centers_[static_cast<size_t>(i)] - mean;
    var += dist[static_cast<size_t>(i)] * d * d;
  }
  return Prediction{mean, std::sqrt(var)};
}

Prediction MarkovModel::Predict(SimTime t) const {
  PRESTO_CHECK_MSG(fitted_, "predict before fit");
  if (!anchored_ || t < anchor_time_) {
    return FromDistribution(marginal_);
  }
  const int64_t k =
      (t - anchor_time_ + config_.sample_period / 2) / config_.sample_period;
  if (k == 0) {
    return Prediction{centers_[static_cast<size_t>(anchor_state_)],
                      std::max(bin_half_width_ / std::sqrt(3.0), 1e-9)};
  }
  return FromDistribution(Evolve(anchor_state_, k));
}

void MarkovModel::OnAnchor(const Sample& sample) {
  PRESTO_CHECK_MSG(fitted_, "anchor before fit");
  if (anchored_ && sample.t < anchor_time_) {
    return;
  }
  anchor_state_ = StateOf(sample.value);
  anchor_time_ = sample.t;
  anchored_ = true;
}

std::vector<uint8_t> MarkovModel::Serialize() const {
  PRESTO_CHECK_MSG(fitted_, "serialize before fit");
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(type()));
  w.WriteVarU64(static_cast<uint64_t>(config_.sample_period));
  w.WriteVarU64(static_cast<uint64_t>(num_states()));
  w.WriteF32(static_cast<float>(bin_half_width_));
  for (double c : centers_) {
    w.WriteF32(static_cast<float>(c));
  }
  // Probabilities quantized to 1/255 steps; rows re-normalized on decode.
  for (const auto& row : trans_) {
    for (double p : row) {
      w.WriteU8(static_cast<uint8_t>(std::lround(std::clamp(p, 0.0, 1.0) * 255.0)));
    }
  }
  for (double m : marginal_) {
    w.WriteU8(static_cast<uint8_t>(std::lround(std::clamp(m, 0.0, 1.0) * 255.0)));
  }
  return w.TakeBuffer();
}

Status MarkovModel::Deserialize(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag != static_cast<uint8_t>(type())) {
    return InvalidArgumentError("not markov model params");
  }
  const uint64_t period = r.ReadVarU64();
  const uint64_t k = r.ReadVarU64();
  const float half = r.ReadF32();
  if (!r.ok() || k < 2 || k > 64) {
    return InvalidArgumentError("markov params malformed");
  }
  if (!IsWirePeriod(period)) {
    return InvalidArgumentError("markov params: sample period not positive");
  }
  if (!std::isfinite(half)) {
    return InvalidArgumentError("markov params not finite");
  }
  config_.sample_period = static_cast<Duration>(period);
  bin_half_width_ = static_cast<double>(half);
  const int n = static_cast<int>(k);
  centers_.assign(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const float c = r.ReadF32();
    if (!r.ok()) {
      return InvalidArgumentError("markov params truncated");
    }
    if (!std::isfinite(c)) {
      return InvalidArgumentError("markov params not finite");
    }
    centers_[static_cast<size_t>(i)] = static_cast<double>(c);
  }
  trans_.assign(static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    double rsum = 0.0;
    for (int j = 0; j < n; ++j) {
      const uint8_t q = r.ReadU8();
      trans_[static_cast<size_t>(i)][static_cast<size_t>(j)] = q;
      rsum += q;
    }
    if (!r.ok()) {
      return InvalidArgumentError("markov params truncated");
    }
    if (rsum <= 0.0) {
      return InvalidArgumentError("markov row sums to zero");
    }
    for (int j = 0; j < n; ++j) {
      trans_[static_cast<size_t>(i)][static_cast<size_t>(j)] /= rsum;
    }
  }
  marginal_.assign(static_cast<size_t>(n), 0.0);
  double msum = 0.0;
  for (int i = 0; i < n; ++i) {
    const uint8_t q = r.ReadU8();
    marginal_[static_cast<size_t>(i)] = q;
    msum += q;
  }
  if (!r.ok()) {
    return InvalidArgumentError("markov params truncated");
  }
  if (msum <= 0.0) {
    return InvalidArgumentError("markov marginal sums to zero");
  }
  for (double& m : marginal_) {
    m /= msum;
  }
  BuildPowerCache();
  fitted_ = true;
  anchored_ = false;
  return OkStatus();
}

int64_t MarkovModel::PredictCostOps() const {
  // One-step check: one vector-matrix product row.
  return 4 + num_states();
}

int64_t MarkovModel::FitCostOps(size_t history_len) const {
  const int64_t k = config_.markov_states;
  return static_cast<int64_t>(history_len) * k + k * k * k * kMaxPowerBits;
}

void MarkovModel::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void MarkovModel::LoadState(ByteReader& r) {
  StateFields(*this, CkptReader(r));
  if (!r.ok()) {
    return;
  }
  // The binary-power cache is a pure function of the transition matrix; rebuild it
  // rather than shipping O(states^2 log horizon) doubles in every checkpoint.
  if (fitted_) {
    BuildPowerCache();
  } else {
    power_cache_.clear();
  }
}

}  // namespace presto
