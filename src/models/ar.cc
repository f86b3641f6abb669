#include "src/models/ar.h"

#include <algorithm>
#include <cmath>

#include "src/models/linalg.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

// ---------- ArCore ----------

Status ArCore::Fit(const std::vector<double>& values, SimTime last_sample_time,
                   int order) {
  PRESTO_CHECK(order >= 1);
  ResetCaches();
  if (static_cast<int>(values.size()) < std::max(8, 4 * order)) {
    return FailedPreconditionError("AR fit: history too short");
  }
  double sum = 0.0;
  double sq = 0.0;
  for (double v : values) {
    sum += v;
    sq += v * v;
  }
  const double n = static_cast<double>(values.size());
  mean = sum / n;
  marginal_std = std::sqrt(std::max(1e-12, sq / n - mean * mean));

  const std::vector<double> autocov = Autocovariance(values, order);
  auto yw = LevinsonDurbin(autocov);
  if (!yw.ok()) {
    return yw.status();
  }
  phi = yw->phi;
  innovation_std = std::sqrt(std::max(yw->innovation_variance, 1e-12));

  // State = last `order` values, newest last.
  state.assign(values.end() - order, values.end());
  state_time = last_sample_time;

  // Round through the wire's float32 precision so the proxy's copy and the sensor's
  // deserialized copy forecast bit-identically (lockstep contract in model.h).
  // mean and innovation_std keep full precision: g++ 12's SLP vectorizer dropped
  // their two adjacent roundings from every -O2/-O3 build that recorded this
  // repository's fingerprints (-O0/-O1 builds kept them), so that is the recorded
  // behaviour, now written out for every build. Their wire copies differ in the
  // low bits, which is the lockstep defect ROADMAP.md tracks.
  auto f32 = [](double v) { return static_cast<double>(static_cast<float>(v)); };
  marginal_std = f32(marginal_std);
  for (double& p : phi) {
    p = f32(p);
  }
  for (double& v : state) {
    v = f32(v);
  }
  return OkStatus();
}

const double* ArCore::RollTo(int64_t k) const {
  const size_t q = phi.size();
  const size_t p = state.size();
  // Room for this many steps past the window before it slides back to the front.
  const size_t slack = std::max<size_t>(p, 4);
  Cursor& c = cursor_;
  if (c.steps < 0 || c.base != state_time || k < c.steps) {
    c.buf.resize(q + p + slack);
    std::copy(phi.begin(), phi.end(), c.buf.begin());
    std::copy(state.begin(), state.end(), c.buf.begin() + static_cast<ptrdiff_t>(q));
    c.end = q + p;
    c.steps = 0;
    c.base = state_time;
  }
  const double* const coeffs = c.buf.data();
  for (; c.steps < k; ++c.steps) {
    if (c.end == c.buf.size()) {
      std::copy(c.buf.end() - static_cast<ptrdiff_t>(p), c.buf.end(),
                c.buf.begin() + static_cast<ptrdiff_t>(q));
      c.end = q + p;
    }
    // One AR step; coeffs[0] multiplies the newest value.
    const double* newest_end = coeffs + c.end;
    double next = mean;
    for (size_t i = 0; i < q; ++i) {
      next += coeffs[i] * (newest_end[-1 - static_cast<ptrdiff_t>(i)] - mean);
    }
    c.buf[c.end] = next;
    ++c.end;
  }
  return c.buf.data() + c.end;
}

void ArCore::ResetCaches() {
  cursor_.steps = -1;
  horizon_.Reset();
}

double ArCore::HorizonStd(int64_t k) const {
  PRESTO_DCHECK(k >= 1 && k <= max_forecast_steps);
  HorizonTable& h = horizon_;
  if (h.stddev.empty()) {
    h.psi.assign(1, 1.0);
    h.stddev.assign(1, 0.0);
  }
  // psi-weight recursion: psi_0 = 1, psi_j = sum_{i<=min(j,p)} phi_i psi_{j-i};
  // stddev[n] = sqrt(min(sigma^2 * sum_{j<n} psi_j^2, 1.5 * marginal^2)).
  const size_t p = phi.size();
  const double var_cap = marginal_std * marginal_std;
  for (size_t n = h.stddev.size(); n <= static_cast<size_t>(k); ++n) {
    h.cum += h.psi[n - 1] * h.psi[n - 1];
    const double var = std::min(innovation_std * innovation_std * h.cum, 1.5 * var_cap);
    h.stddev.push_back(std::sqrt(var));
    double v = 0.0;
    for (size_t i = 1; i <= std::min(n, p); ++i) {
      v += phi[i - 1] * h.psi[n - i];
    }
    h.psi.push_back(v);
  }
  return h.stddev[static_cast<size_t>(k)];
}

Prediction ArCore::Forecast(SimTime t) const {
  PRESTO_DCHECK(!state.empty());
  if (t <= state_time) {
    // Backward extrapolation is out of AR scope; report the marginal distribution.
    // (Past gaps are better served by the seasonal part / spatial conditioning.)
    return Prediction{mean, marginal_std};
  }
  int64_t k = (t - state_time + sample_period / 2) / sample_period;
  if (k <= 0) {
    return Prediction{state.back(), std::max(innovation_std, 1e-9)};
  }
  if (k > max_forecast_steps) {
    return Prediction{mean, marginal_std};
  }
  const double newest = RollTo(k)[-1];
  return Prediction{newest, std::max(HorizonStd(k), 1e-9)};
}

void ArCore::Anchor(const Sample& s) {
  PRESTO_DCHECK(!state.empty());
  if (s.t <= state_time) {
    return;  // stale (e.g. a pull of archived data); state reflects newest knowledge
  }
  int64_t k = (s.t - state_time + sample_period / 2) / sample_period;
  k = std::min<int64_t>(std::max<int64_t>(k, 1), max_forecast_steps);
  // The sensor anchors the sample it just checked, so the cursor is usually already k
  // steps out.
  const double* newest_end = RollTo(k);
  std::copy(newest_end - static_cast<ptrdiff_t>(state.size()), newest_end, state.begin());
  cursor_.steps = -1;
  // Attribute the innovation as a level shift across the whole lag window rather than
  // pinning only the newest entry: a lone corrected value next to stale forecasts
  // fabricates a trend, which inflates the push rate right after every anchor.
  const double innovation = s.value - state.back();
  for (double& v : state) {
    v += innovation;
  }
  state_time += k * sample_period;
}

void ArCore::SerializeTo(ByteWriter* w) const {
  w->WriteVarU64(static_cast<uint64_t>(sample_period));
  w->WriteVarU64(phi.size());
  for (double p : phi) {
    w->WriteF32(static_cast<float>(p));
  }
  w->WriteF32(static_cast<float>(mean));
  w->WriteF32(static_cast<float>(innovation_std));
  w->WriteF32(static_cast<float>(marginal_std));
  w->WriteI64(state_time);
  for (double v : state) {
    w->WriteF32(static_cast<float>(v));
  }
}

void ArCore::DeserializeFrom(ByteReader* r) {
  ResetCaches();
  // The header reads on a copy: a short or overlong varint there is malformed params.
  ByteReader head = *r;
  const uint64_t period = head.ReadVarU64();
  const uint64_t order = head.ReadVarU64();
  if (!head.ok() || order == 0 || order > 64) {
    return r->Fail(InvalidArgumentError("AR params malformed"));
  }
  *r = head;
  if (!IsWirePeriod(period)) {
    return r->Fail(InvalidArgumentError("AR params: sample period not positive"));
  }
  sample_period = static_cast<Duration>(period);
  // Coefficients, then mean, innovation and marginal (f32 each) and the state time.
  if (r->remaining() < 4 * order + 4 * 3 + 8) {
    return r->Fail(InvalidArgumentError("AR params truncated"));
  }
  phi.clear();
  for (uint64_t i = 0; i < order; ++i) {
    phi.push_back(static_cast<double>(r->ReadF32()));
  }
  const float m = r->ReadF32();
  const float inno = r->ReadF32();
  const float marg = r->ReadF32();
  const int64_t st = r->ReadI64();
  if (st < 0) {
    // Sim time starts at 0; a negative state time overflows the forecast's t - time.
    return r->Fail(InvalidArgumentError("AR params: state time negative"));
  }
  mean = static_cast<double>(m);
  innovation_std = static_cast<double>(inno);
  marginal_std = static_cast<double>(marg);
  state_time = st;
  if (r->remaining() < 4 * order) {
    return r->Fail(InvalidArgumentError("AR state truncated"));
  }
  state.clear();
  for (uint64_t i = 0; i < order; ++i) {
    state.push_back(static_cast<double>(r->ReadF32()));
  }
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(phi.begin(), phi.end(), finite) ||
      !std::all_of(state.begin(), state.end(), finite) || !std::isfinite(mean) ||
      !std::isfinite(innovation_std) || !std::isfinite(marginal_std)) {
    return r->Fail(InvalidArgumentError("AR params not finite"));
  }
}

// ---------- ArModel ----------

ArModel::ArModel(const ModelConfig& config) : config_(config) {
  core_.sample_period = config.sample_period;
  core_.max_forecast_steps = config.max_forecast_steps;
}

Status ArModel::Fit(const std::vector<Sample>& history) {
  if (history.empty()) {
    return FailedPreconditionError("AR fit: empty history");
  }
  PRESTO_RETURN_IF_ERROR(
      core_.Fit(ValuesOf(history), history.back().t, config_.ar_order));
  fitted_ = true;
  return OkStatus();
}

std::vector<uint8_t> ArModel::Serialize() const {
  PRESTO_CHECK_MSG(fitted_, "serialize before fit");
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(type()));
  core_.SerializeTo(&w);
  return w.TakeBuffer();
}

Status ArModel::Deserialize(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag != static_cast<uint8_t>(type())) {
    return InvalidArgumentError("not AR model params");
  }
  core_.max_forecast_steps = config_.max_forecast_steps;
  core_.DeserializeFrom(&r);
  if (!r.ok()) {
    return r.status();
  }
  fitted_ = true;
  return OkStatus();
}

Prediction ArModel::Predict(SimTime t) const {
  PRESTO_CHECK_MSG(fitted_, "predict before fit");
  return core_.Forecast(t);
}

void ArModel::OnAnchor(const Sample& sample) {
  PRESTO_CHECK_MSG(fitted_, "anchor before fit");
  core_.Anchor(sample);
}

int64_t ArModel::PredictCostOps() const {
  // One-step check cost at the sensor (the common case: checking the next sample).
  return 4 + static_cast<int64_t>(core_.phi.size());
}

int64_t ArModel::FitCostOps(size_t history_len) const {
  const int64_t p = config_.ar_order;
  return static_cast<int64_t>(history_len) * (p + 2) + p * p * p;
}

// ---------- SeasonalArModel ----------

SeasonalArModel::SeasonalArModel(const ModelConfig& config) : config_(config) {
  core_.sample_period = config.sample_period;
  core_.max_forecast_steps = config.max_forecast_steps;
}

Status SeasonalArModel::Fit(const std::vector<Sample>& history) {
  if (history.empty()) {
    return FailedPreconditionError("seasonal-AR fit: empty history");
  }
  PRESTO_RETURN_IF_ERROR(
      bins_.Fit(history, config_.seasonal_period, config_.seasonal_bins));
  std::vector<double> residuals;
  residuals.reserve(history.size());
  for (const Sample& s : history) {
    residuals.push_back(s.value - bins_.ValueAt(s.t));
  }
  PRESTO_RETURN_IF_ERROR(core_.Fit(residuals, history.back().t, config_.ar_order));
  fitted_ = true;
  return OkStatus();
}

std::vector<uint8_t> SeasonalArModel::Serialize() const {
  PRESTO_CHECK_MSG(fitted_, "serialize before fit");
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(type()));
  bins_.SerializeTo(&w);
  core_.SerializeTo(&w);
  return w.TakeBuffer();
}

Status SeasonalArModel::Deserialize(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag != static_cast<uint8_t>(type())) {
    return InvalidArgumentError("not seasonal-AR model params");
  }
  bins_.DeserializeFrom(&r);
  if (!r.ok()) {
    return r.status();
  }
  core_.max_forecast_steps = config_.max_forecast_steps;
  core_.DeserializeFrom(&r);
  if (!r.ok()) {
    return r.status();
  }
  fitted_ = true;
  return OkStatus();
}

Prediction SeasonalArModel::Predict(SimTime t) const {
  PRESTO_CHECK_MSG(fitted_, "predict before fit");
  const Prediction residual = core_.Forecast(t);
  double stddev = residual.stddev;
  if (t <= core_.state_time) {
    // Past gap: the climatology still applies; use the bin spread.
    stddev = std::max(bins_.StddevAt(t) * 0.5, residual.stddev * 0.5);
  }
  return Prediction{bins_.ValueAt(t) + residual.value, stddev};
}

void SeasonalArModel::OnAnchor(const Sample& sample) {
  PRESTO_CHECK_MSG(fitted_, "anchor before fit");
  core_.Anchor(Sample{sample.t, sample.value - bins_.ValueAt(sample.t)});
}

int64_t SeasonalArModel::PredictCostOps() const {
  return 12 + static_cast<int64_t>(core_.phi.size());
}

int64_t SeasonalArModel::FitCostOps(size_t history_len) const {
  const int64_t p = config_.ar_order;
  return static_cast<int64_t>(history_len) * (p + 6) + p * p * p;
}

void ArCore::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void ArCore::LoadState(ByteReader& r) {
  ResetCaches();
  StateFields(*this, CkptReader(r));
  if (sample_period <= 0) {
    return r.Fail(DataLossError("AR restore: sample period not positive"));
  }
  if (phi.empty() || phi.size() > 64) {
    return r.Fail(DataLossError("AR restore: order outside [1, 64]"));
  }
  if (state.size() != phi.size()) {
    return r.Fail(
        DataLossError("AR restore: state window is not one value per coefficient"));
  }
  if (max_forecast_steps < 1 || max_forecast_steps > 65536) {
    return r.Fail(DataLossError("AR restore: max_forecast_steps outside [1, 65536]"));
  }
  if (state_time < 0) {
    return r.Fail(DataLossError("AR restore: state time negative"));
  }
}

void ArModel::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void ArModel::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

void SeasonalArModel::SaveState(ByteWriter& w) const {
  StateFields(*this, CkptWriter(w));
}

void SeasonalArModel::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
