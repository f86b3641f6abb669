#include "src/workload/query_driver.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/hash.h"

namespace presto {

void LatencyHistogram::Record(Duration latency) {
  uint64_t us = latency > 0 ? static_cast<uint64_t>(latency) : 0;
  int bucket = 0;
  while (us > 1 && bucket < kBuckets - 1) {
    us >>= 1;
    ++bucket;
  }
  ++counts_[static_cast<size_t>(bucket)];
  hash_valid_ = false;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    counts_[static_cast<size_t>(i)] += other.counts_[static_cast<size_t>(i)];
  }
  hash_valid_ = false;
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : counts_) {
    total += c;
  }
  return total;
}

uint64_t LatencyHistogram::Hash() const {
  if (!hash_valid_) {
    uint64_t fp = kFnvOffsetBasis;
    for (uint64_t c : counts_) {
      FnvMix(fp, c);
    }
    cached_hash_ = fp;
    hash_valid_ = true;
  }
  return cached_hash_;
}

void LatencyHistogram::SaveState(ByteWriter& w) const { CkptWrite(w, counts_); }

void LatencyHistogram::LoadState(ByteReader& r) {
  CkptRead(r, counts_);
  hash_valid_ = false;
}

std::string LatencyHistogram::ToString() const {
  std::string out;
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t c = counts_[static_cast<size_t>(i)];
    if (c == 0) {
      continue;
    }
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%s[%s,%s):%llu", out.empty() ? "" : " ",
                  FormatDuration(Duration(1) << i).c_str(),
                  FormatDuration(Duration(1) << (i + 1)).c_str(),
                  static_cast<unsigned long long>(c));
    out += buf;
  }
  return out.empty() ? "(empty)" : out;
}

Status Validate(const QueryDriverParams& params) {
  QueryWorkloadParams mix = params.mix;
  mix.num_sensors = std::max(mix.num_sensors, 1);
  return Validate(mix);
}

QueryDriver::QueryDriver(Simulator* sim, const QueryDriverParams& params,
                         IssueFn issue_fn)
    : sim_(sim),
      params_(params),
      issue_fn_(std::move(issue_fn)),
      rng_(params.mix.seed, /*stream=*/0x44525652) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK(issue_fn_ != nullptr);
  PRESTO_CHECK_OK(Validate(params_.mix));
  sim_->RegisterSink(this);
}

Duration QueryDriver::NextGap() {
  const double rate_per_us =
      params_.mix.queries_per_hour / static_cast<double>(kHour);
  if (params_.arrivals == ArrivalProcess::kFixedRate) {
    return static_cast<Duration>(1.0 / rate_per_us);
  }
  return static_cast<Duration>(rng_.Exponential(rate_per_us));
}

void QueryDriver::Start(Duration duration) {
  PRESTO_CHECK_MSG(sim_->CurrentLane() == Simulator::kLaneControl,
                   "QueryDriver::Start is control-context only");
  pending_.Cancel();
  running_ = true;
  until_ = duration > 0 ? sim_->Now() + duration : -1;
  next_at_ = sim_->Now() + NextGap();
  if (until_ >= 0 && next_at_ >= until_) {
    return;
  }
  pending_ =
      sim_->ScheduleEventAt(next_at_, EventKind::kQuery, this, Simulator::kLaneControl);
}

void QueryDriver::Stop() {
  pending_.Cancel();
  running_ = false;
}

void QueryDriver::OnSimEvent(EventKind kind, EventPayload& payload) {
  PRESTO_CHECK(kind == EventKind::kQuery);
  (void)payload;
  if (!running_) {
    return;
  }
  QueryRequest request = DrawQueryRequest(rng_, params_.mix, sim_->Now());
  ++stats_.issued;
  issue_fn_(request);
  // Open loop: the next arrival rides the clock, not this query's completion.
  next_at_ = std::max(next_at_ + NextGap(), sim_->Now());
  if (until_ >= 0 && next_at_ >= until_) {
    running_ = false;
    return;
  }
  pending_ =
      sim_->ScheduleEventAt(next_at_, EventKind::kQuery, this, Simulator::kLaneControl);
}

void QueryDriver::OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                                  const EventHandle& handle, int lane) {
  (void)t;
  (void)payload;
  (void)lane;
  if (kind == EventKind::kQuery) {
    pending_ = handle;  // the one pending arrival re-captured after restore
  }
}

Status QueryDriver::SaveState(ByteWriter& w) const {
  StateFields(*this, CkptWriter(w));
  return OkStatus();
}

void QueryDriver::LoadState(ByteReader& r) {
  pending_ = EventHandle();  // re-captured via OnEventRestored
  StateFields(*this, CkptReader(r));
}

bool QueryDriver::Balanced(const std::vector<std::unique_ptr<QueryDriver>>& drivers,
                           const std::vector<uint64_t>& in_flight) {
  for (size_t d = 0; d < drivers.size(); ++d) {
    const QueryDriverStats& stats = drivers[d]->stats();
    if (stats.issued != stats.completed + in_flight[d]) {
      return false;
    }
  }
  return true;
}

void QueryDriver::RecordOutcome(const QueryOutcome& outcome) {
  ++stats_.completed;
  if (!outcome.ok) {
    ++stats_.failed;
  }
  ++stats_.by_source[outcome.source & 3];
  if (outcome.cross_cell) {
    ++stats_.cross_cell;
  }
  stats_.latency_ms.Add(ToMillis(outcome.Latency()));
  stats_.latency.Record(outcome.Latency());
  if (outcome.energy_j > 0.0) {
    ++stats_.energized;
    stats_.energy_j += outcome.energy_j;
    (outcome.past ? stats_.energy_past_j : stats_.energy_now_j) += outcome.energy_j;
    stats_.energy_by_cell_j[outcome.source_cell] += outcome.energy_j;
  }
}

}  // namespace presto
