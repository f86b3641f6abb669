#include "src/sensor/sensor_node.h"

#include <algorithm>

#include "src/models/registry.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"
#include "src/wavelet/aging.h"

namespace presto {

SensorNode::SensorNode(Simulator* sim, Network* net, const SensorNodeConfig& config,
                       MeasureFn measure)
    : config_(config),
      flash_(config.flash, &meter_),
      sim_(sim),
      sensing_timer_(sim, [this] { OnSensingTick(); }),
      measure_(std::move(measure)),
      clock_(config.clock_offset, config.drift_ppm, config.clock_jitter, config.seed),
      archive_(&flash_, config.archive),
      net_(net),
      batch_timer_(sim, [this] { FlushBatch(); }) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK(net_ != nullptr);
  PRESTO_CHECK(measure_ != nullptr);
  archive_.SetSummarizer(WaveletAgingSummarize);
  net_->AttachNode(config_.id, this, config_.radio, &meter_);
}

void SensorNode::Start() {
  sensing_timer_.Start(config_.sensing_period);
  if (config_.policy == PushPolicy::kBatched) {
    batch_timer_.Start(config_.batch_interval);
  }
}

void SensorNode::Stop() {
  sensing_timer_.Stop();
  batch_timer_.Stop();
}

void SensorNode::ChargeCpu(int64_t ops) {
  meter_.Charge(EnergyComponent::kCpu, static_cast<double>(ops) * kCpuJoulesPerOp);
}

void SensorNode::OnSensingTick() {
  const SimTime now = sim_->Now();
  const double value = measure_(now);
  const SimTime local = clock_.LocalTime(now);
  ++stats_.samples;
  meter_.Charge(EnergyComponent::kSensing, kSensingJoulesPerSample);

  const Sample sample{local, value};
  const Status st = archive_.Append(sample);
  if (!st.ok()) {
    PLOG_WARN("sensor %u: archive append failed: %s", config_.id, st.ToString().c_str());
  }

  switch (config_.policy) {
    case PushPolicy::kNone:
      break;
    case PushPolicy::kEverySample:
      PushSamples(PushReason::kEverySample, {sample});
      break;
    case PushPolicy::kValueDriven: {
      ChargeCpu(4);
      if (!has_pushed_value_ ||
          std::abs(value - last_pushed_value_) > config_.value_delta) {
        last_pushed_value_ = value;
        has_pushed_value_ = true;
        PushSamples(PushReason::kValueDelta, {sample});
      } else {
        ++stats_.suppressed;
      }
      break;
    }
    case PushPolicy::kModelDriven: {
      if (model_ == nullptr) {
        // Bootstrap: no model yet; report value-driven at the model tolerance so the
        // proxy accumulates training data without streaming every sample.
        ChargeCpu(4);
        if (!has_pushed_value_ ||
            std::abs(value - last_pushed_value_) > config_.model_tolerance) {
          last_pushed_value_ = value;
          has_pushed_value_ = true;
          PushSamples(PushReason::kBootstrap, {sample});
        } else {
          ++stats_.suppressed;
        }
        break;
      }
      ++stats_.model_checks;
      ChargeCpu(model_->PredictCostOps());
      const Prediction predicted = model_->Predict(local);
      if (std::abs(value - predicted.value) > config_.model_tolerance) {
        model_->OnAnchor(sample);  // proxy mirrors this on receipt
        PushSamples(PushReason::kModelDeviation, {sample});
      } else {
        ++stats_.suppressed;
      }
      break;
    }
    case PushPolicy::kBatched:
      batch_buffer_.push_back(sample);
      break;
  }
}

void SensorNode::FlushBatch() {
  if (batch_buffer_.empty()) {
    return;
  }
  std::vector<Sample> batch;
  batch.swap(batch_buffer_);
  PushSamples(PushReason::kBatch, batch);
}

std::vector<uint8_t> SensorNode::EncodeBatchPayload(
    const std::vector<Sample>& local_samples, bool try_compress) {
  PRESTO_CHECK(!local_samples.empty());
  const SimTime start = local_samples.front().t;
  const std::vector<double> values = ValuesOf(local_samples);
  const std::vector<uint8_t> raw = EncodeRawBatch(start, config_.sensing_period, values);
  // Wavelet compression pays off only with enough samples to decompose.
  if (try_compress && local_samples.size() >= 16) {
    ChargeCpu(CompressCostOps(values.size(), config_.codec));
    auto compressed = EncodeWaveletBatch(start, config_.sensing_period, values,
                                         config_.codec);
    if (compressed.ok() && compressed->size() < raw.size()) {
      stats_.compressed_bytes += compressed->size();
      stats_.uncompressed_bytes += raw.size();
      return *compressed;
    }
  }
  stats_.compressed_bytes += raw.size();
  stats_.uncompressed_bytes += raw.size();
  return raw;
}

void SensorNode::PushSamples(PushReason reason,
                             const std::vector<Sample>& local_samples) {
  DataPushMsg msg;
  msg.reason = reason;
  msg.local_send_time = clock_.LocalTime(sim_->Now());
  msg.batch = EncodeBatchPayload(local_samples, config_.compress);
  ++stats_.pushes;
  stats_.pushed_samples += local_samples.size();
  net_->SendBatched(config_.id, config_.proxy_id,
                    static_cast<uint16_t>(MsgType::kDataPush), EncodeMsg(msg));
}

void SensorNode::OnMessage(const Message& message) {
  switch (static_cast<MsgType>(message.type)) {
    case MsgType::kModelUpdate:
      HandleModelUpdate(message);
      break;
    case MsgType::kConfigUpdate:
      HandleConfigUpdate(message);
      break;
    case MsgType::kArchiveQuery:
      HandleArchiveQuery(message);
      break;
    default:
      PLOG_WARN("sensor %u: unexpected message type %u", config_.id, message.type);
      break;
  }
}

void SensorNode::HandleModelUpdate(const Message& message) {
  auto msg = DecodeMsg<ModelUpdateMsg>(message.payload);
  if (!msg.ok()) {
    PLOG_WARN("sensor %u: bad model update", config_.id);
    return;
  }
  auto model = DeserializeModel(msg->model_params, config_.model_config);
  if (!model.ok()) {
    PLOG_WARN("sensor %u: cannot deserialize model: %s", config_.id,
              model.status().ToString().c_str());
    return;
  }
  // Installing a model is cheap; fitting happened at the proxy. That asymmetry is a
  // design requirement in §3.
  ChargeCpu(static_cast<int64_t>(msg->model_params.size()));
  model_ = std::move(*model);
  model_seq_ = msg->model_seq;
  config_.model_tolerance = msg->tolerance;
  ++stats_.model_updates;
  PLOG_DEBUG("sensor %u: installed %s model seq=%u tol=%.3f", config_.id, model_->Name(),
             model_seq_, config_.model_tolerance);
}

void SensorNode::HandleConfigUpdate(const Message& message) {
  auto msg = DecodeMsg<ConfigUpdateMsg>(message.payload);
  if (!msg.ok() || !Validate(*msg).ok()) {
    PLOG_WARN("sensor %u: bad config update", config_.id);
    return;
  }
  ++stats_.config_updates;
  if (msg->fields & kCfgSensingPeriod) {
    config_.sensing_period = msg->sensing_period;
    if (sensing_timer_.running()) {
      sensing_timer_.SetPeriod(config_.sensing_period);
    }
  }
  if (msg->fields & kCfgBatchInterval) {
    config_.batch_interval = msg->batch_interval;
    if (batch_timer_.running()) {
      batch_timer_.SetPeriod(config_.batch_interval);
    }
  }
  if (msg->fields & kCfgPolicy) {
    const PushPolicy old = config_.policy;
    config_.policy = msg->policy;
    if (old != PushPolicy::kBatched && msg->policy == PushPolicy::kBatched) {
      batch_timer_.Start(config_.batch_interval);
    }
    if (old == PushPolicy::kBatched && msg->policy != PushPolicy::kBatched) {
      FlushBatch();
      batch_timer_.Stop();
    }
  }
  if (msg->fields & kCfgValueDelta) {
    config_.value_delta = msg->value_delta;
  }
  if (msg->fields & kCfgCompression) {
    config_.compress = msg->compress;
    config_.codec.quant_step = msg->quant_step;
  }
  if (msg->fields & kCfgLplInterval) {
    net_->SetLplInterval(config_.id, msg->lpl_interval);
  }
}

void SensorNode::HandleArchiveQuery(const Message& message) {
  auto msg = DecodeMsg<ArchiveQueryMsg>(message.payload);
  if (!msg.ok()) {
    PLOG_WARN("sensor %u: bad archive query", config_.id);
    return;
  }
  ++stats_.archive_queries;
  // The RAM tail must reach flash before serving reads (see ArchiveStore::Query).
  (void)archive_.Flush();

  ArchiveReplyMsg reply;
  reply.query_id = msg->query_id;
  auto samples = archive_.Query(TimeInterval{msg->local_start, msg->local_end});
  if (!samples.ok()) {
    reply.status_code = static_cast<uint8_t>(samples.status().code());
  } else if (samples->empty()) {
    reply.status_code = static_cast<uint8_t>(StatusCode::kNotFound);
  } else if (msg->aggregate != AggregateOp::kNone) {
    // Query-type exploitation (§3): apply the requested mode function locally and
    // radio back one value instead of the range.
    double value = 0.0;
    switch (msg->aggregate) {
      case AggregateOp::kMin:
        value = samples->front().value;
        for (const Sample& s : *samples) {
          value = std::min(value, s.value);
        }
        break;
      case AggregateOp::kMax:
        value = samples->front().value;
        for (const Sample& s : *samples) {
          value = std::max(value, s.value);
        }
        break;
      case AggregateOp::kMean: {
        double sum = 0.0;
        for (const Sample& s : *samples) {
          sum += s.value;
        }
        value = sum / static_cast<double>(samples->size());
        break;
      }
      case AggregateOp::kCount:
        value = static_cast<double>(samples->size());
        break;
      case AggregateOp::kNone:
        break;
    }
    ChargeCpu(static_cast<int64_t>(samples->size()));
    reply.batch = EncodeIrregularBatch({Sample{samples->back().t, value}});
    reply.status_code = static_cast<uint8_t>(StatusCode::kOk);
  } else {
    std::vector<Sample> out = std::move(*samples);
    if (out.size() > msg->max_samples) {
      // Decimate evenly rather than truncating: the caller asked for the whole range.
      std::vector<Sample> decimated;
      decimated.reserve(msg->max_samples);
      const double stride =
          static_cast<double>(out.size()) / static_cast<double>(msg->max_samples);
      for (uint32_t i = 0; i < msg->max_samples; ++i) {
        decimated.push_back(out[static_cast<size_t>(static_cast<double>(i) * stride)]);
      }
      out.swap(decimated);
    }
    // Archive data may mix resolutions (aging), so use the irregular encoding; it is
    // also what lets the proxy trust each sample's own timestamp.
    ChargeCpu(static_cast<int64_t>(out.size()) * 2);
    reply.batch = EncodeIrregularBatch(out);
    reply.status_code = static_cast<uint8_t>(StatusCode::kOk);
  }
  reply.local_send_time = clock_.LocalTime(sim_->Now());
  // A blocked query is waiting on this reply: skip the link's coalescing window
  // (pushes and other bulk traffic still ride it).
  net_->Send(config_.id, config_.proxy_id,
             static_cast<uint16_t>(MsgType::kArchiveReply), EncodeMsg(reply));
}

}  // namespace presto

namespace presto {

void SensorNode::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void SensorNode::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
