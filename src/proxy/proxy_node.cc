#include "src/proxy/proxy_node.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"
#include "src/wavelet/codec.h"

namespace presto {

const char* AnswerSourceName(AnswerSource source) {
  switch (source) {
    case AnswerSource::kCacheHit:
      return "cache-hit";
    case AnswerSource::kExtrapolated:
      return "extrapolated";
    case AnswerSource::kSensorPull:
      return "sensor-pull";
    case AnswerSource::kFailed:
      return "failed";
  }
  return "?";
}

ProxyNode::ProxyNode(Simulator* sim, Network* net, const ProxyNodeConfig& config)
    : sim_(sim),
      net_(net),
      config_(config),
      maintenance_timer_(sim, [this] { RunMaintenance(); }) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK(net_ != nullptr);
  sim_->RegisterSink(this);
  NodeRadioConfig radio;
  radio.powered = true;
  net_->AttachNode(config_.id, this, radio, /*meter=*/nullptr);
}

bool ProxyNode::AddSensorState(std::unique_ptr<SensorState> state) {
  if (!sensor_index_.Emplace(state->id, state.get()).second) {
    return false;
  }
  const auto at = std::lower_bound(
      sensors_.begin(), sensors_.end(), state->id,
      [](const std::unique_ptr<SensorState>& s, NodeId id) { return s->id < id; });
  sensors_.insert(at, std::move(state));
  return true;
}

void ProxyNode::RegisterSensor(NodeId sensor_id, Duration sensing_period, bool replica) {
  auto state = std::make_unique<SensorState>(sensor_id, sensing_period, config_.engine,
                                             config_.matcher);
  state->is_replica = replica;
  const bool added = AddSensorState(std::move(state));
  PRESTO_CHECK_MSG(added, "sensor already registered");
}

void ProxyNode::UnregisterSensor(NodeId sensor_id) {
  PRESTO_CHECK_MSG(FindSensor(sensor_id) != nullptr, "unregistering unknown sensor");
  AbortPullsFor(sensor_id, UnavailableError("sensor migrated away from this proxy"));
  sensor_index_.Erase(sensor_id);
  sensors_.erase(std::find_if(
      sensors_.begin(), sensors_.end(),
      [sensor_id](const std::unique_ptr<SensorState>& s) { return s->id == sensor_id; }));
}

void ProxyNode::PromoteSensor(NodeId sensor_id) {
  SensorState& sensor = GetSensor(sensor_id);
  if (!sensor.is_replica) {
    return;
  }
  sensor.is_replica = false;
  // The new owner decides afresh when to (re)send a model to the sensor.
  sensor.model_sent = false;
  ++stats_.promotions;
}

void ProxyNode::DemoteSensor(NodeId sensor_id) {
  SensorState& sensor = GetSensor(sensor_id);
  if (sensor.is_replica) {
    return;
  }
  AbortPullsFor(sensor_id, UnavailableError("ownership handed back during the pull"));
  sensor.is_replica = true;
  sensor.replica_targets.clear();
  ++stats_.demotions;
}

void ProxyNode::SetReplicaTargets(NodeId sensor_id, std::vector<NodeId> targets) {
  GetSensor(sensor_id).replica_targets = std::move(targets);
}

void ProxyNode::SendStateSnapshot(NodeId sensor_id, NodeId to_proxy, Duration history) {
  SensorState& sensor = GetSensor(sensor_id);
  const SimTime now = sim_->Now();
  const std::vector<Sample> recent =
      sensor.cache.Range(TimeInterval{now - history, now + 1});
  // One serialization path with checkpointing: the snapshot payload is a
  // checkpoint-codec blob (exact f64 samples + the full-precision model), so the
  // transferred bytes the network stats charge are exactly the bytes this state costs
  // in a checkpoint section.
  ByteWriter w;
  CkptWrite(w, sensor_id);
  CkptWrite(w, recent);
  CkptWrite(w, config_.default_tolerance);
  SaveModelState(w, sensor.engine.model());
  net_->SendBatched(config_.id, to_proxy,
                    static_cast<uint16_t>(MsgType::kStateSnapshot), w.TakeBuffer());
  ++stats_.snapshots_sent;
}

void ProxyNode::BackfillFromArchive(NodeId sensor_id, Duration horizon) {
  SensorState& sensor = GetSensor(sensor_id);
  if (sensor.is_replica) {
    return;  // replicas cannot pull: the sensor reports to its owner
  }
  if (config_.backfill_spacing <= 0) {
    TryBackfillPull(sensor, horizon);
    return;
  }
  // A promotion calls this once per shard sensor at a single barrier; queue the
  // repairs and drain them one radio transaction per spacing so interactive pulls
  // slot in between rather than timing out behind a wall of LPL preambles.
  backfill_queue_.push_back(BackfillRequest{sensor_id, horizon});
  if (!backfill_drain_pending_) {
    ScheduleBackfillDrain();
  }
}

void ProxyNode::ScheduleBackfillDrain() {
  backfill_drain_pending_ = true;
  // A typed event (payload.b == 1 marks a drain tick, distinguishing it from pull
  // timeouts) rather than a closure, so a checkpoint taken while repairs are queued
  // restores the drain cadence.
  EventPayload tick;
  tick.b = 1;
  sim_->ScheduleEventAt(sim_->Now() + config_.backfill_spacing, EventKind::kQuery, this,
                        std::move(tick), lane_);
}

bool ProxyNode::TryBackfillPull(SensorState& sensor, Duration horizon) {
  const SimTime now = sim_->Now();
  const TimeInterval window{std::max<SimTime>(0, now - horizon), now};
  // A hole is a stretch the expected sampling grid left uncovered. Four sensing
  // periods of slack tolerate short model-driven suppression runs (answered by
  // extrapolation); what we repair is longer voids (snapshot depth limits, outage
  // windows, sustained suppression).
  const Duration min_hole = 4 * sensor.sensing_period;
  const std::vector<Sample> cached = sensor.cache.Range(window);
  SimTime hole_start = -1;
  SimTime hole_end = -1;
  SimTime cursor = window.start;
  auto note_gap = [&](SimTime from, SimTime to) {
    if (to - from < min_hole) {
      return;
    }
    if (hole_start < 0) {
      hole_start = from;
    }
    hole_end = to;
  };
  for (const Sample& s : cached) {
    note_gap(cursor, s.t);
    cursor = std::max(cursor, s.t);
  }
  note_gap(cursor, window.end);
  if (hole_start < 0) {
    return false;  // the replicated state already covers the promoted window
  }
  // One archive transaction spanning first to last hole: the reply's samples land in
  // the cache through the normal pull path, closing every gap in between too.
  ++stats_.backfill_pulls;
  IssuePull(sensor, TimeInterval{hole_start, hole_end}, /*tolerance=*/0.0,
            /*is_now=*/false, now, QueryOrigin());
  return true;
}

void ProxyNode::DrainBackfillQueue() {
  backfill_drain_pending_ = false;
  // A dead node must not reach the radio; hold the queue until revived. (A revive
  // hand-back demotes the sensors anyway, emptying the queue via the skip below.)
  if (net_->IsNodeDown(config_.id)) {
    if (!backfill_queue_.empty()) {
      ScheduleBackfillDrain();
    }
    return;
  }
  while (!backfill_queue_.empty()) {
    const BackfillRequest req = backfill_queue_.front();
    backfill_queue_.pop_front();
    SensorState* sensor = FindSensor(req.sensor_id);
    if (sensor == nullptr || sensor->is_replica) {
      continue;  // handed back or migrated away while queued — nothing to repair
    }
    // Re-scan at drain time: live pushes or a snapshot may have closed the holes
    // while this entry waited, in which case no radio time is spent on it.
    if (!TryBackfillPull(*sensor, req.horizon)) {
      continue;
    }
    break;  // one radio transaction per spacing tick
  }
  if (!backfill_queue_.empty()) {
    ScheduleBackfillDrain();
  }
}

bool ProxyNode::IsReplicaFor(NodeId sensor_id) const {
  const SensorState* s = FindSensor(sensor_id);
  return s != nullptr && s->is_replica;
}

uint64_t ProxyNode::SensorWindowLoad(NodeId sensor_id) const {
  const SensorState* s = FindSensor(sensor_id);
  return s == nullptr ? 0 : s->window_queries + s->window_pushes;
}

void ProxyNode::ResetLoadWindow() {
  for (auto& sensor : sensors_) {
    sensor->window_queries = 0;
    sensor->window_pushes = 0;
  }
}

void ProxyNode::AbortPullsFor(NodeId sensor_id, const Status& status) {
  for (auto it = pending_pulls_.begin(); it != pending_pulls_.end();) {
    if (it->second.sensor_id != sensor_id) {
      ++it;
      continue;
    }
    PendingPull aborted = std::move(it->second);
    it = pending_pulls_.erase(it);
    aborted.timeout.Cancel();
    FailPull(aborted, status);
  }
}

void ProxyNode::Start() { maintenance_timer_.Start(config_.maintenance_period); }

std::vector<NodeId> ProxyNode::sensors() const {
  std::vector<NodeId> out;
  out.reserve(sensors_.size());
  for (const auto& state : sensors_) {
    if (!state->is_replica) {
      out.push_back(state->id);
    }
  }
  return out;
}

std::vector<NodeId> ProxyNode::replica_sensors() const {
  std::vector<NodeId> out;
  for (const auto& state : sensors_) {
    if (state->is_replica) {
      out.push_back(state->id);
    }
  }
  return out;
}

ProxyNode::SensorState& ProxyNode::GetSensor(NodeId sensor_id) {
  SensorState* sensor = FindSensor(sensor_id);
  PRESTO_CHECK_MSG(sensor != nullptr, "unknown sensor");
  return *sensor;
}

ProxyNode::SensorState* ProxyNode::FindSensor(NodeId sensor_id) const {
  SensorState* const* sensor = sensor_index_.Find(sensor_id);
  return sensor == nullptr ? nullptr : *sensor;
}

const SummaryCache* ProxyNode::cache(NodeId sensor_id) const {
  const SensorState* s = FindSensor(sensor_id);
  return s == nullptr ? nullptr : &s->cache;
}

const PredictionEngine* ProxyNode::engine(NodeId sensor_id) const {
  const SensorState* s = FindSensor(sensor_id);
  return s == nullptr ? nullptr : &s->engine;
}

Result<double> ProxyNode::SyncResidualRms(NodeId sensor_id) const {
  const SensorState* s = FindSensor(sensor_id);
  if (s == nullptr) {
    return NotFoundError("unknown sensor");
  }
  return s->sync.ResidualRms();
}

std::vector<Sample> ProxyNode::CachedRange(NodeId sensor_id, TimeInterval range) const {
  const SensorState* s = FindSensor(sensor_id);
  if (s == nullptr) {
    return {};
  }
  return s->cache.Range(range);
}

std::vector<Sample> ProxyNode::CorrectTimestamps(SensorState& sensor,
                                                 const std::vector<Sample>& local) const {
  std::vector<Sample> out;
  out.reserve(local.size());
  const SimTime now = sim_->Now();
  for (const Sample& s : local) {
    auto corrected = sensor.sync.Correct(s.t);
    SimTime t = corrected.ok() ? *corrected : s.t;  // identity until sync warms up
    t = std::min(t, now);  // corrected stamps can never land in the observer's future
    out.push_back(Sample{t, s.value});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  return out;
}

// ---------- inbound messages ----------

void ProxyNode::OnMessage(const Message& message) {
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kDataPush:
      HandleDataPush(message);
      break;
    case MsgType::kArchiveReply:
      HandleArchiveReply(message);
      break;
    case MsgType::kReplicaUpdate:
      HandleReplicaUpdate(message);
      break;
    case MsgType::kReplicaModel:
      HandleReplicaModel(message);
      break;
    case MsgType::kStateSnapshot:
      HandleStateSnapshot(message);
      break;
    default:
      PLOG_WARN("proxy %u: unexpected message type %u", config_.id, message.type);
      break;
  }
}

void ProxyNode::HandleDataPush(const Message& message) {
  auto msg = DecodeMsg<DataPushMsg>(message.payload);
  if (!msg.ok()) {
    PLOG_WARN("proxy %u: bad push from %u", config_.id, message.src);
    return;
  }
  SensorState* pushed_by = FindSensor(message.src);
  if (pushed_by == nullptr) {
    PLOG_WARN("proxy %u: push from unregistered sensor %u", config_.id, message.src);
    return;
  }
  SensorState& sensor = *pushed_by;

  // Every push doubles as a time-sync beacon: the sensor stamped its local clock when
  // it handed the message to the radio, and message.sent_at is that same instant on
  // the reference clock (batching queue delay excluded).
  sensor.sync.AddBeacon(msg->local_send_time, message.sent_at);

  auto batch = DecodeBatch(msg->batch);
  if (!batch.ok()) {
    PLOG_WARN("proxy %u: undecodable batch from %u", config_.id, message.src);
    return;
  }
  const std::vector<Sample> corrected = CorrectTimestamps(sensor, batch->samples);

  ++stats_.pushes_received;
  stats_.push_samples += corrected.size();
  ++sensor.window_pushes;
  sensor.last_push = sim_->Now();
  for (const Sample& s : corrected) {
    sensor.cache.Insert(s.t, s.value, CacheSource::kPushed, sim_->Now());
    sensor.engine.ObserveTraining(s);
  }
  if (msg->reason == PushReason::kModelDeviation && !corrected.empty()) {
    sensor.engine.MirrorAnchor(corrected.back());
    sensor.engine.NoteDeviationPush(sim_->Now());
  }
  Replicate(sensor, corrected);

  if (config_.manage_models && config_.mode == ProxyMode::kPresto) {
    // A sensor still in bootstrap after we sent a model means the update was lost.
    const bool resend = msg->reason == PushReason::kBootstrap && sensor.model_sent &&
                        sim_->Now() - sensor.last_model_send > Minutes(10);
    if (!sensor.model_sent || resend) {
      MaybeSendModel(sensor);
    }
  }
}

void ProxyNode::MaybeSendModel(SensorState& sensor) {
  if (!sensor.engine.ReadyToFit()) {
    return;
  }
  auto params = sensor.engine.FitAndSerialize();
  if (!params.ok()) {
    PLOG_WARN("proxy %u: model fit for sensor %u failed: %s", config_.id, sensor.id,
              params.status().ToString().c_str());
    return;
  }
  ModelUpdateMsg msg;
  msg.model_seq = static_cast<uint32_t>(sensor.engine.fit_count());
  msg.tolerance = config_.default_tolerance;
  msg.model_params = *params;
  net_->SendBatched(config_.id, sensor.id, static_cast<uint16_t>(MsgType::kModelUpdate),
                    EncodeMsg(msg));
  sensor.model_sent = true;
  sensor.last_model_send = sim_->Now();
  ++stats_.model_sends;

  if (config_.enable_replication && !sensor.replica_targets.empty()) {
    // One encode; every replica gets the identical payload.
    ReplicaModelMsg rep;
    rep.sensor_id = sensor.id;
    rep.tolerance = msg.tolerance;
    rep.model_params = msg.model_params;
    const std::vector<uint8_t> encoded = EncodeMsg(rep);
    for (NodeId target : sensor.replica_targets) {
      net_->SendBatched(config_.id, target,
                        static_cast<uint16_t>(MsgType::kReplicaModel), encoded);
    }
  }
  PLOG_DEBUG("proxy %u: sent %zu-byte model to sensor %u (fit #%llu)", config_.id,
             msg.model_params.size(), sensor.id,
             static_cast<unsigned long long>(sensor.engine.fit_count()));
}

void ProxyNode::RunMaintenance() {
  const SimTime now = sim_->Now();
  for (auto& sensor : sensors_) {
    if (sensor->is_replica) {
      continue;  // the owner manages models and configuration for its sensors
    }
    if (config_.mode == ProxyMode::kPresto && config_.manage_models &&
        sensor->engine.ShouldRefit(now)) {
      MaybeSendModel(*sensor);
    }
    // Query-sensor matching applies to any architecture that can reconfigure sensors.
    if (config_.enable_matcher) {
      auto update = sensor->matcher.Recommend(now);
      if (update.has_value()) {
        net_->SendBatched(config_.id, sensor->id,
                          static_cast<uint16_t>(MsgType::kConfigUpdate),
                          EncodeMsg(*update));
        ++stats_.config_sends;
      }
    }
  }
}

// ---------- queries ----------

void ProxyNode::Answer(QueryAnswer answer, const QueryOrigin& origin, bool is_now) {
  if (answer.status.ok()) {
    switch (answer.source) {
      case AnswerSource::kCacheHit:
        ++stats_.cache_hits;
        break;
      case AnswerSource::kExtrapolated:
        ++stats_.extrapolations;
        break;
      case AnswerSource::kSensorPull:
        break;  // counted at issue time
      case AnswerSource::kFailed:
        break;
    }
  } else {
    ++stats_.failures;
  }
  SampleSet& lat = is_now ? stats_.now_latency_ms : stats_.past_latency_ms;
  lat.Add(ToMillis(answer.Latency()));
  switch (origin.kind) {
    case QueryOrigin::Kind::kNone:
      break;  // backfill repair: the pulled data landing in the cache is the answer
    case QueryOrigin::Kind::kToken:
      PRESTO_CHECK_MSG(pull_client_ != nullptr, "token query without a pull client");
      pull_client_->OnPullDone(origin.token, std::move(answer));
      break;
  }
}

void ProxyNode::QueryNow(NodeId sensor_id, double tolerance, Duration latency_bound,
                         uint64_t token) {
  const QueryOrigin origin = QueryOrigin::Token(token);
  ++stats_.queries;
  const SimTime now = sim_->Now();
  SensorState* queried = FindSensor(sensor_id);
  if (queried == nullptr) {
    QueryAnswer answer;
    answer.status = NotFoundError("proxy does not manage this sensor");
    answer.issued_at = now;
    answer.completed_at = now;
    Answer(std::move(answer), origin, /*is_now=*/true);
    return;
  }
  SensorState& sensor = *queried;
  sensor.matcher.NoteQuery(latency_bound, tolerance);
  ++sensor.window_queries;
  if (sensor.is_replica) {
    ++stats_.degraded_answers;  // owner is down; we serve from replicated state
  }

  if (config_.mode != ProxyMode::kAlwaysPull) {
    // 1) Fresh cached observation.
    auto latest = sensor.cache.Latest();
    const Duration fresh = static_cast<Duration>(
        config_.freshness_periods * static_cast<double>(sensor.sensing_period));
    if (latest.has_value() && now - latest->first <= fresh) {
      QueryAnswer answer;
      answer.status = OkStatus();
      answer.source = AnswerSource::kCacheHit;
      answer.samples = {Sample{latest->first, latest->second.value}};
      answer.value = latest->second.value;
      answer.error_estimate = 0.0;
      answer.issued_at = now;
      answer.completed_at = now;
      Answer(std::move(answer), origin, /*is_now=*/true);
      return;
    }
    // 2) Model extrapolation. With model-driven push the sensor guarantees that any
    //    sample deviating more than the push tolerance would have been pushed, so the
    //    prediction error at sensing instants is bounded by that tolerance.
    if (config_.mode == ProxyMode::kPresto && sensor.engine.has_model()) {
      auto prediction = sensor.engine.Predict(now);
      if (prediction.ok()) {
        const double bound =
            std::max(config_.default_tolerance, prediction->stddev * 0.5);
        if (bound <= tolerance) {
          QueryAnswer answer;
          answer.status = OkStatus();
          answer.source = AnswerSource::kExtrapolated;
          answer.samples = {Sample{now, prediction->value}};
          answer.value = prediction->value;
          answer.error_estimate = bound;
          answer.issued_at = now;
          answer.completed_at = now;
          Answer(std::move(answer), origin, /*is_now=*/true);
          return;
        }
      }
    }
    if (config_.mode == ProxyMode::kCacheOnly) {
      // Stream-style proxies have nothing better than the cache.
      QueryAnswer answer;
      answer.issued_at = now;
      answer.completed_at = now;
      if (latest.has_value()) {
        answer.status = OkStatus();
        answer.source = AnswerSource::kCacheHit;
        answer.samples = {Sample{latest->first, latest->second.value}};
        answer.value = latest->second.value;
        answer.error_estimate =
            ToSeconds(now - latest->first) / ToSeconds(sensor.sensing_period);
      } else {
        answer.status = NotFoundError("nothing cached yet");
      }
      Answer(std::move(answer), origin, /*is_now=*/true);
      return;
    }
  }
  // A replica cannot pull: the sensor reports to its (down) owner. Serve degraded.
  if (sensor.is_replica) {
    AnswerDegradedNow(sensor, now, origin);
    return;
  }
  // 3) Cache-miss-triggered pull of the freshest archive data.
  const TimeInterval range{now - 2 * sensor.sensing_period, now + sensor.sensing_period};
  IssuePull(sensor, range, tolerance, /*is_now=*/true, now, origin);
}

void ProxyNode::AnswerDegradedNow(SensorState& sensor, SimTime now,
                                  QueryOrigin origin) {
  QueryAnswer answer;
  answer.issued_at = now;
  answer.completed_at = now;
  if (sensor.engine.has_model()) {
    auto prediction = sensor.engine.Predict(now);
    if (prediction.ok()) {
      answer.status = OkStatus();
      answer.source = AnswerSource::kExtrapolated;
      answer.samples = {Sample{now, prediction->value}};
      answer.value = prediction->value;
      answer.error_estimate = std::max(config_.default_tolerance, prediction->stddev);
      Answer(std::move(answer), origin, /*is_now=*/true);
      return;
    }
  }
  auto latest = sensor.cache.Latest();
  if (latest.has_value()) {
    answer.status = OkStatus();
    answer.source = AnswerSource::kCacheHit;
    answer.samples = {Sample{latest->first, latest->second.value}};
    answer.value = latest->second.value;
    answer.error_estimate =
        ToSeconds(now - latest->first) / ToSeconds(sensor.sensing_period);
    Answer(std::move(answer), origin, /*is_now=*/true);
    return;
  }
  answer.status = UnavailableError("replica holds no state for this sensor yet");
  Answer(std::move(answer), origin, /*is_now=*/true);
}

void ProxyNode::QueryPast(NodeId sensor_id, TimeInterval range, double tolerance,
                          uint64_t token) {
  const QueryOrigin origin = QueryOrigin::Token(token);
  ++stats_.queries;
  const SimTime now = sim_->Now();
  SensorState* queried = FindSensor(sensor_id);
  if (queried == nullptr) {
    QueryAnswer answer;
    answer.status = NotFoundError("proxy does not manage this sensor");
    answer.issued_at = now;
    answer.completed_at = now;
    Answer(std::move(answer), origin, /*is_now=*/false);
    return;
  }
  SensorState& sensor = *queried;
  sensor.matcher.NoteQuery(config_.pull_timeout, tolerance);
  ++sensor.window_queries;
  if (sensor.is_replica) {
    ++stats_.degraded_answers;
  }

  // One search locates the range; coverage, the cached samples and the per-period
  // walk below all read this window (nothing below mutates the cache).
  SummaryCache::Window window = sensor.cache.View(range);
  if (config_.mode != ProxyMode::kAlwaysPull) {
    const double coverage = window.CoverageFraction(sensor.sensing_period);
    // 1) The cache alone covers the range densely enough.
    if (coverage >= config_.past_coverage_threshold) {
      QueryAnswer answer;
      answer.status = OkStatus();
      answer.source = AnswerSource::kCacheHit;
      answer.samples = window.Samples();
      if (!answer.samples.empty()) {
        answer.value = answer.samples.back().value;
      }
      answer.error_estimate = 0.0;
      answer.issued_at = now;
      answer.completed_at = now;
      Answer(std::move(answer), origin, /*is_now=*/false);
      return;
    }
    // 2) Fill the gaps by extrapolation if the model's uncertainty fits the tolerance.
    if (config_.mode == ProxyMode::kPresto && sensor.engine.has_model()) {
      std::vector<Sample> merged;
      double worst = 0.0;
      bool extrapolation_ok = true;
      for (SimTime t = range.start; t < range.end; t += sensor.sensing_period) {
        auto cached = window.WalkNearest(t, sensor.sensing_period / 2);
        if (cached.has_value()) {
          merged.push_back(Sample{t, cached->second.value});
          continue;
        }
        auto prediction = sensor.engine.Predict(t);
        if (!prediction.ok() || prediction->stddev > tolerance) {
          extrapolation_ok = false;
          break;
        }
        worst = std::max(worst, prediction->stddev);
        merged.push_back(Sample{t, prediction->value});
      }
      if (extrapolation_ok) {
        QueryAnswer answer;
        answer.status = OkStatus();
        answer.source = AnswerSource::kExtrapolated;
        answer.samples = std::move(merged);
        if (!answer.samples.empty()) {
          answer.value = answer.samples.back().value;
        }
        answer.error_estimate = worst;
        answer.issued_at = now;
        answer.completed_at = now;
        Answer(std::move(answer), origin, /*is_now=*/false);
        return;
      }
    }
    if (config_.mode == ProxyMode::kCacheOnly) {
      QueryAnswer answer;
      answer.issued_at = now;
      answer.completed_at = now;
      answer.samples = window.Samples();
      if (answer.samples.empty()) {
        answer.status = NotFoundError("range not cached and this proxy cannot pull");
      } else {
        answer.status = OkStatus();
        answer.source = AnswerSource::kCacheHit;
        answer.value = answer.samples.back().value;
        answer.error_estimate = 1.0 - coverage;
      }
      Answer(std::move(answer), origin, /*is_now=*/false);
      return;
    }
  }
  if (sensor.is_replica) {
    AnswerDegradedPast(sensor, window, now, origin);
    return;
  }
  // 3) Pull the range from the sensor's archive.
  IssuePull(sensor, range, tolerance, /*is_now=*/false, now, origin);
}

void ProxyNode::AnswerDegradedPast(const SensorState& sensor,
                                   const SummaryCache::Window& window, SimTime now,
                                   QueryOrigin origin) {
  QueryAnswer answer;
  answer.issued_at = now;
  answer.completed_at = now;
  answer.samples = window.Samples();
  if (answer.samples.empty()) {
    answer.status = UnavailableError("replica has no replicated data in range");
  } else {
    answer.status = OkStatus();
    answer.source = AnswerSource::kCacheHit;
    answer.value = answer.samples.back().value;
    answer.error_estimate = 1.0 - window.CoverageFraction(sensor.sensing_period);
  }
  Answer(std::move(answer), origin, /*is_now=*/false);
}

void ProxyNode::IssuePull(SensorState& sensor, TimeInterval range, double tolerance,
                          bool is_now, SimTime issued_at, QueryOrigin origin) {
  // Batched query pipeline: if a pull to this sensor already covers the range, ride it
  // instead of paying for a second radio transaction.
  for (auto& [pull_id, pull] : pending_pulls_) {
    (void)pull_id;
    if (pull.sensor_id == sensor.id && pull.range.start <= range.start &&
        range.end <= pull.range.end) {
      ++stats_.coalesced_pulls;
      pull.riders.push_back(PullRider{is_now, range, issued_at, origin});
      return;
    }
  }
  const uint32_t id = next_pull_id_++;
  ArchiveQueryMsg msg;
  msg.query_id = id;
  auto local_start = sensor.sync.ToLocal(range.start);
  auto local_end = sensor.sync.ToLocal(range.end);
  msg.local_start = local_start.ok() ? *local_start : range.start;
  msg.local_end = local_end.ok() ? *local_end : range.end;
  msg.compress = true;

  const std::vector<uint8_t> encoded = EncodeMsg(msg);

  PendingPull pull;
  pull.id = id;
  pull.sensor_id = sensor.id;
  pull.is_now = is_now;
  pull.range = range;
  pull.tolerance = tolerance;
  pull.issued_at = issued_at;
  pull.request_bytes = encoded.size();
  pull.origin = origin;
  EventPayload timeout;
  timeout.a = id;
  // Pinned to this proxy's own lane: a pull may be issued from the control lane
  // (promotion-time backfill runs at barriers), but the archive reply — and the
  // Cancel it triggers — arrives in this lane, and Cancel must never cross lanes.
  pull.timeout = sim_->ScheduleEventAt(sim_->Now() + config_.pull_timeout,
                                       EventKind::kQuery, this, std::move(timeout),
                                       lane_);
  pending_pulls_.emplace(id, std::move(pull));
  ++stats_.pulls;
  // Pulls are interactive (a query is blocked on the answer): they bypass the link's
  // coalescing window — the fig2 epoch sweep shows parking them there just adds two
  // epochs to every cache-miss query. Bulk traffic (pushes, replica updates, model
  // sends) keeps coalescing.
  net_->Send(config_.id, sensor.id, static_cast<uint16_t>(MsgType::kArchiveQuery),
             encoded);
}

void ProxyNode::OnSimEvent(EventKind kind, EventPayload& payload) {
  // Proxies schedule two typed events for themselves, both kQuery: pull timeouts
  // (payload.a = pull id) and backfill drain ticks (payload.b == 1).
  PRESTO_CHECK(kind == EventKind::kQuery);
  if (payload.b == 1) {
    DrainBackfillQueue();
    return;
  }
  auto it = pending_pulls_.find(static_cast<uint32_t>(payload.a));
  if (it == pending_pulls_.end()) {
    return;
  }
  PendingPull timed_out = std::move(it->second);
  pending_pulls_.erase(it);
  ++stats_.pull_timeouts;
  FailPull(timed_out, DeadlineExceededError("sensor did not answer the pull"));
}

void ProxyNode::FailPull(const PendingPull& pull, const Status& status) {
  QueryAnswer answer;
  answer.status = status;
  answer.issued_at = pull.issued_at;
  answer.completed_at = sim_->Now();
  Answer(answer, pull.origin, pull.is_now);
  for (const PullRider& rider : pull.riders) {
    QueryAnswer rider_answer = answer;
    rider_answer.issued_at = rider.issued_at;
    Answer(std::move(rider_answer), rider.origin, rider.is_now);
  }
}

void ProxyNode::CompletePullQuery(bool is_now, TimeInterval range, SimTime issued_at,
                                  const QueryOrigin& origin, SensorState& sensor,
                                  const std::vector<Sample>& pulled, double energy_j) {
  QueryAnswer answer;
  answer.issued_at = issued_at;
  answer.completed_at = sim_->Now();
  // Charged even when the pulled range came back empty: the radio transaction
  // happened, so the query that triggered it owns the cost.
  answer.energy_j = energy_j;
  if (is_now) {
    if (pulled.empty()) {
      answer.status = NotFoundError("sensor archive had no recent data");
    } else {
      answer.status = OkStatus();
      answer.source = AnswerSource::kSensorPull;
      answer.samples = {pulled.back()};
      answer.value = pulled.back().value;
      answer.error_estimate = 0.0;
    }
  } else {
    answer.samples = sensor.cache.Range(range);
    if (answer.samples.empty()) {
      answer.status = NotFoundError("no archived data in range (aged out?)");
    } else {
      answer.status = OkStatus();
      answer.source = AnswerSource::kSensorPull;
      answer.value = answer.samples.back().value;
      answer.error_estimate = 0.0;
    }
  }
  Answer(std::move(answer), origin, is_now);
}

void ProxyNode::HandleArchiveReply(const Message& message) {
  auto msg = DecodeMsg<ArchiveReplyMsg>(message.payload);
  if (!msg.ok()) {
    PLOG_WARN("proxy %u: bad archive reply", config_.id);
    return;
  }
  auto pending = pending_pulls_.find(msg->query_id);
  if (pending == pending_pulls_.end()) {
    return;  // late reply after timeout; the data was still archived, nothing to do
  }
  PendingPull pull = std::move(pending->second);
  pending_pulls_.erase(pending);
  pull.timeout.Cancel();

  SensorState& sensor = GetSensor(pull.sensor_id);
  sensor.sync.AddBeacon(msg->local_send_time, message.sent_at);

  if (msg->status_code != static_cast<uint8_t>(StatusCode::kOk)) {
    FailPull(pull, Status(static_cast<StatusCode>(msg->status_code),
                          "archive pull failed"));
    return;
  }
  auto batch = DecodeBatch(msg->batch);
  if (!batch.ok()) {
    FailPull(pull, DataLossError("archive reply undecodable"));
    return;
  }
  const std::vector<Sample> corrected = CorrectTimestamps(sensor, batch->samples);
  for (const Sample& s : corrected) {
    // Progressive refinement: pulled archive data overrides anything weaker.
    sensor.cache.Insert(s.t, s.value, CacheSource::kPulled, sim_->Now());
    sensor.engine.ObserveTraining(s);
  }
  Replicate(sensor, corrected);

  // Per-query energy attribution: the transaction's deterministic closed-form
  // estimate, split evenly across the originator and every coalesced rider (the
  // batched pipeline's whole point is that they shared one radio transaction).
  const double share_j =
      net_->EstimatePullEnergyJ(pull.sensor_id, pull.request_bytes,
                                message.payload.size()) /
      static_cast<double>(1 + pull.riders.size());
  CompletePullQuery(pull.is_now, pull.range, pull.issued_at, pull.origin, sensor,
                    corrected, share_j);
  for (const PullRider& rider : pull.riders) {
    CompletePullQuery(rider.is_now, rider.range, rider.issued_at, rider.origin, sensor,
                      corrected, share_j);
  }
}

// ---------- replication ----------

void ProxyNode::Replicate(SensorState& sensor,
                          const std::vector<Sample>& reference_samples) {
  if (!config_.enable_replication || reference_samples.empty() ||
      sensor.replica_targets.empty()) {
    return;
  }
  // One encode; every target gets the identical payload.
  ReplicaUpdateMsg msg;
  msg.sensor_id = sensor.id;
  msg.batch = EncodeIrregularBatch(reference_samples);
  const std::vector<uint8_t> encoded = EncodeMsg(msg);
  for (NodeId target : sensor.replica_targets) {
    net_->SendBatched(config_.id, target,
                      static_cast<uint16_t>(MsgType::kReplicaUpdate), encoded);
  }
  ++stats_.replica_updates;
}

void ProxyNode::HandleReplicaUpdate(const Message& message) {
  auto msg = DecodeMsg<ReplicaUpdateMsg>(message.payload);
  if (!msg.ok()) {
    return;
  }
  SensorState* sensor = FindSensor(msg->sensor_id);
  if (sensor == nullptr) {
    return;  // builder registers replicated sensors on both proxies
  }
  auto batch = DecodeBatch(msg->batch);
  if (!batch.ok()) {
    return;
  }
  for (const Sample& s : batch->samples) {
    sensor->cache.Insert(s.t, s.value, CacheSource::kPushed, sim_->Now());
  }
}

void ProxyNode::HandleReplicaModel(const Message& message) {
  auto msg = DecodeMsg<ReplicaModelMsg>(message.payload);
  if (!msg.ok()) {
    return;
  }
  SensorState* sensor = FindSensor(msg->sensor_id);
  if (sensor == nullptr) {
    return;
  }
  const Status installed = sensor->engine.InstallSerialized(msg->model_params);
  if (!installed.ok()) {
    PLOG_WARN("proxy %u: replica model install failed: %s", config_.id,
              installed.ToString().c_str());
  }
}

}  // namespace presto

namespace presto {

void ProxyNode::HandleStateSnapshot(const Message& message) {
  ByteReader r{span<const uint8_t>(message.payload)};
  NodeId sensor_id = 0;
  std::vector<Sample> samples;
  double tolerance = 0.0;
  CkptRead(r, sensor_id);
  CkptRead(r, samples);
  CkptRead(r, tolerance);  // informational; the receiver keeps its own default_tolerance
  if (!r.ok()) {
    PLOG_WARN("proxy %u: bad state snapshot: %s", config_.id,
              r.status().ToString().c_str());
    return;
  }
  SensorState* target = FindSensor(sensor_id);
  if (target == nullptr) {
    return;  // shard moved on while the snapshot was in flight
  }
  SensorState& sensor = *target;
  for (const Sample& s : samples) {
    sensor.cache.Insert(s.t, s.value, CacheSource::kPushed, sim_->Now());
  }
  std::unique_ptr<PredictiveModel> model = LoadModelState(r, config_.engine.model_config);
  if (!r.ok()) {
    PLOG_WARN("proxy %u: snapshot model restore failed: %s", config_.id,
              r.status().ToString().c_str());
    return;
  }
  if (model != nullptr) {
    sensor.engine.InstallModel(std::move(model));
  }
}

void ProxyNode::OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                                const EventHandle& handle, int lane) {
  (void)t;
  (void)lane;
  if (kind != EventKind::kQuery || payload.b == 1) {
    return;  // backfill drain ticks re-fire without a retained handle
  }
  auto it = pending_pulls_.find(static_cast<uint32_t>(payload.a));
  if (it != pending_pulls_.end()) {
    it->second.timeout = handle;
  }
}

Status ProxyNode::SaveState(ByteWriter& w) const {
  CkptWrite(w, lane_);
  CkptWrite(w, maintenance_timer_);
  w.WriteVarU64(sensors_.size());
  for (const auto& sensor : sensors_) {
    CkptWrite(w, *sensor);
  }
  w.WriteVarU64(pending_pulls_.size());
  for (const auto& [id, pull] : pending_pulls_) {
    (void)id;
    CkptWrite(w, pull);
  }
  CkptWrite(w, backfill_queue_);
  CkptWrite(w, backfill_drain_pending_);
  CkptWrite(w, next_pull_id_);
  CkptWrite(w, stats_);
  return OkStatus();
}

// The sensor states are built from this proxy's config and indexed, and the pulls
// keyed by id, so those two tables read element-wise; every record and the rest
// read through the same lists SaveState writes.
void ProxyNode::LoadState(ByteReader& r) {
  CkptRead(r, lane_);
  CkptRead(r, maintenance_timer_);
  const uint64_t sensor_count = r.ReadVarU64();
  if (!r.ok()) {
    return;
  }
  if (sensor_count > r.remaining()) {
    return r.Fail(DataLossError("proxy restore: sensor count exceeds section bytes"));
  }
  sensors_.clear();
  sensor_index_.Clear();
  for (uint64_t i = 0; i < sensor_count; ++i) {
    auto sensor =
        std::make_unique<SensorState>(0, Seconds(31), config_.engine, config_.matcher);
    CkptRead(r, *sensor);
    if (!r.ok()) {
      return;
    }
    const NodeId id = sensor->id;
    if (!AddSensorState(std::move(sensor))) {
      return r.Fail(
          DataLossError("proxy restore: duplicate sensor " + std::to_string(id)));
    }
  }
  std::vector<PendingPull> pulls;
  CkptRead(r, pulls);
  if (!r.ok()) {
    return;
  }
  pending_pulls_.clear();
  for (PendingPull& pull : pulls) {
    const uint32_t id = pull.id;
    pending_pulls_.emplace(id, std::move(pull));
  }
  CkptRead(r, backfill_queue_);
  CkptRead(r, backfill_drain_pending_);
  CkptRead(r, next_pull_id_);
  CkptRead(r, stats_);
}

}  // namespace presto
