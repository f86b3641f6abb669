#include "src/core/architectures.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/util/assert.h"
#include "src/util/stats.h"
#include "src/workload/queries.h"

namespace presto {
namespace {

// An event counts as "reported" if an observed (pushed/pulled, not extrapolated) cache
// entry lands at the proxy within this window of its onset.
constexpr Duration kDetectionWindow = Minutes(10);

DeploymentConfig MakeDeploymentConfig(ArchitectureKind kind,
                                      const ArchitectureBenchConfig& config) {
  DeploymentConfig d;
  d.num_proxies = config.num_proxies;
  d.sensors_per_proxy = config.sensors_per_proxy;
  d.seed = config.seed;
  d.field.events_per_day = config.events_per_day;
  d.field.seed = config.seed ^ 0xF1E1D;
  switch (kind) {
    case ArchitectureKind::kDirectQuery:
      d.policy = PushPolicy::kNone;
      d.proxy_mode = ProxyMode::kAlwaysPull;
      d.manage_models = false;
      break;
    case ArchitectureKind::kStreaming:
      d.policy = PushPolicy::kEverySample;
      d.proxy_mode = ProxyMode::kCacheOnly;
      d.manage_models = false;
      break;
    case ArchitectureKind::kPresto:
      d.policy = PushPolicy::kModelDriven;
      d.proxy_mode = ProxyMode::kPresto;
      d.manage_models = true;
      break;
  }
  return d;
}

struct Outcome {
  bool past = false;
  int global_sensor = 0;
  QuerySpec spec;
  UnifiedQueryResult result;
};

// Issues the precomputed query stream: one typed control-lane event per query
// (payload.a = its outcome slot). Issue is pinned to the control lane: UnifiedStore
// routing walks cross-shard state (index, chains, proxy registries), which only the
// barrier-serial context may touch. QueryAsync completes on the control lane too,
// tagged with the query's own slot.
class QueryIssuer : public EventSink, public DeploymentQueryClient {
 public:
  QueryIssuer(Deployment* deployment, std::vector<Outcome>* outcomes)
      : deployment_(deployment), outcomes_(outcomes) {
    deployment_->SetQueryClient(this);
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    PRESTO_CHECK(kind == EventKind::kQuery);
    deployment_->QueryAsync((*outcomes_)[static_cast<size_t>(payload.a)].spec, payload.a);
  }

  void OnDeploymentQueryDone(uint64_t tag, UnifiedQueryResult&& result) override {
    (*outcomes_)[static_cast<size_t>(tag)].result = std::move(result);
  }

 private:
  Deployment* deployment_;
  std::vector<Outcome>* outcomes_;
};

}  // namespace

const char* ArchitectureName(ArchitectureKind kind) {
  switch (kind) {
    case ArchitectureKind::kDirectQuery:
      return "direct-query";
    case ArchitectureKind::kStreaming:
      return "streaming";
    case ArchitectureKind::kPresto:
      return "presto";
  }
  return "?";
}

ArchitectureMetrics RunArchitectureBench(ArchitectureKind kind,
                                         const ArchitectureBenchConfig& config) {
  Deployment deployment(MakeDeploymentConfig(kind, config));
  deployment.Start();
  deployment.RunUntil(config.warmup);

  // Identical query stream for every architecture (seeded independently of kind).
  QueryWorkloadParams qw;
  qw.queries_per_hour = config.queries_per_hour;
  qw.past_fraction = config.past_fraction;
  qw.num_sensors = deployment.total_sensors();
  qw.seed = config.seed ^ 0x5157;
  const SimTime query_end = config.warmup + config.query_window;
  const std::vector<QueryRequest> requests =
      GenerateQueries(qw, TimeInterval{config.warmup, query_end});

  std::vector<Outcome> outcomes(requests.size());
  QueryIssuer issuer(&deployment, &outcomes);
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    const int proxy_index = request.sensor / config.sensors_per_proxy;
    const int sensor_index = request.sensor % config.sensors_per_proxy;
    QuerySpec& spec = outcomes[i].spec;
    spec.sensor_id = Deployment::SensorId(proxy_index, sensor_index);
    spec.tolerance = request.tolerance;
    spec.latency_bound = request.latency_bound;
    if (request.past) {
      spec.type = QueryType::kPast;
      spec.range = TimeInterval{request.issue_at - request.age,
                                request.issue_at - request.age + request.window};
    }
    outcomes[i].past = request.past;
    outcomes[i].global_sensor = request.sensor;
    EventPayload issue;
    issue.a = i;
    deployment.sim().ScheduleEventAt(request.issue_at, EventKind::kQuery, &issuer,
                                     std::move(issue), Simulator::kLaneControl);
  }
  // Slack so trailing pulls can finish.
  deployment.RunUntil(query_end + Hours(1));

  ArchitectureMetrics m;
  m.name = ArchitectureName(kind);

  SampleSet now_latency;
  uint64_t now_total = 0;
  uint64_t now_ok = 0;
  uint64_t past_total = 0;
  uint64_t past_ok = 0;
  uint64_t hits = 0;
  uint64_t extrapolations = 0;
  uint64_t pulls = 0;
  uint64_t answered = 0;
  double past_sq_error = 0.0;
  int64_t past_points = 0;

  for (const Outcome& outcome : outcomes) {
    const QueryAnswer& answer = outcome.result.answer;
    const bool ok = answer.status.ok();
    if (outcome.past) {
      ++past_total;
      if (ok && !answer.samples.empty()) {
        ++past_ok;
        for (const Sample& s : answer.samples) {
          const double truth = deployment.field().TruthAt(outcome.global_sensor, s.t);
          past_sq_error += (s.value - truth) * (s.value - truth);
          ++past_points;
        }
      }
    } else {
      ++now_total;
      if (ok) {
        ++now_ok;
        now_latency.Add(ToMillis(outcome.result.Latency()));
      }
    }
    if (ok) {
      ++answered;
      switch (answer.source) {
        case AnswerSource::kCacheHit:
          ++hits;
          break;
        case AnswerSource::kExtrapolated:
          ++extrapolations;
          break;
        case AnswerSource::kSensorPull:
          ++pulls;
          break;
        case AnswerSource::kFailed:
          break;
      }
    }
  }

  m.now_latency_ms_mean = now_latency.mean();
  m.now_latency_ms_p95 = now_latency.Quantile(0.95);
  m.now_success = now_total > 0 ? static_cast<double>(now_ok) / now_total : 0.0;
  m.past_success = past_total > 0 ? static_cast<double>(past_ok) / past_total : 0.0;
  m.past_rmse = past_points > 0 ? std::sqrt(past_sq_error / past_points) : 0.0;
  if (answered > 0) {
    m.cache_hit_share = static_cast<double>(hits) / answered;
    m.extrapolated_share = static_cast<double>(extrapolations) / answered;
    m.pull_share = static_cast<double>(pulls) / answered;
  }

  // Energy and traffic per sensor-day.
  const double days = ToDays(deployment.sim().Now());
  m.energy_j_per_sensor_day = deployment.MeanSensorEnergy() / days;
  uint64_t messages = 0;
  for (int p = 0; p < config.num_proxies; ++p) {
    for (int s = 0; s < config.sensors_per_proxy; ++s) {
      messages += deployment.net().node_stats(Deployment::SensorId(p, s)).messages_sent;
    }
  }
  m.messages_per_sensor_day =
      static_cast<double>(messages) / deployment.total_sensors() / days;

  // Rare-event scoring: each injected transient must show up as *observed* data at the
  // owning proxy shortly after onset.
  uint64_t events = 0;
  uint64_t detected = 0;
  RunningStats detection_delay_s;
  for (int p = 0; p < config.num_proxies; ++p) {
    for (int s = 0; s < config.sensors_per_proxy; ++s) {
      const int global = p * config.sensors_per_proxy + s;
      const NodeId sensor_id = Deployment::SensorId(p, s);
      const auto node_events = deployment.field().EventsIn(
          global, TimeInterval{config.warmup, query_end});
      const SummaryCache* cache = deployment.proxy(p).cache(sensor_id);
      for (const TransientEvent& event : node_events) {
        if (std::abs(event.magnitude) < 2.0 ||
            event.start >= query_end - kDetectionWindow) {
          continue;
        }
        ++events;
        if (cache == nullptr) {
          continue;
        }
        const auto entries = cache->RangeEntries(
            TimeInterval{event.start, event.start + kDetectionWindow});
        for (const auto& entry : entries) {
          // Detection means the proxy *learned* an observed value inside the window —
          // arrival time, not data timestamp (late batches do not count).
          if (entry.source != CacheSource::kExtrapolated &&
              entry.inserted_at <= event.start + kDetectionWindow) {
            ++detected;
            detection_delay_s.Add(ToSeconds(entry.inserted_at - event.start));
            break;
          }
        }
      }
    }
  }
  m.event_detection_rate = events > 0 ? static_cast<double>(detected) / events : 0.0;
  m.event_latency_s = detection_delay_s.mean();
  return m;
}

}  // namespace presto
