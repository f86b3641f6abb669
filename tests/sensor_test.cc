// Behavioural tests for the PRESTO sensor node: push policies, archival, control
// traffic (model installation, reconfiguration), and archive query service.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/models/ar.h"
#include "src/net/network.h"
#include "src/sensor/protocol.h"
#include "src/sensor/sensor_node.h"
#include "src/sim/simulator.h"
#include "src/wavelet/codec.h"

namespace presto {
namespace {

// Captures everything the sensor sends to its proxy.
class FakeProxy : public NetNode {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
    if (message.type == static_cast<uint16_t>(MsgType::kDataPush)) {
      auto push = DecodeMsg<DataPushMsg>(message.payload);
      ASSERT_TRUE(push.ok());
      pushes.push_back(*push);
    }
    if (message.type == static_cast<uint16_t>(MsgType::kArchiveReply)) {
      auto reply = DecodeMsg<ArchiveReplyMsg>(message.payload);
      ASSERT_TRUE(reply.ok());
      replies.push_back(*reply);
    }
  }
  std::vector<Message> messages;
  std::vector<DataPushMsg> pushes;
  std::vector<ArchiveReplyMsg> replies;
};

struct Rig {
  Simulator sim;
  std::unique_ptr<Network> net;
  FakeProxy proxy;
  std::unique_ptr<SensorNode> sensor;

  explicit Rig(PushPolicy policy, SensorNode::MeasureFn measure = nullptr,
               Duration sensing = Seconds(31)) {
    net = std::make_unique<Network>(&sim, NetworkParams{}, 5);
    NodeRadioConfig powered;
    powered.powered = true;
    net->AttachNode(1, &proxy, powered, nullptr);

    SensorNodeConfig config;
    config.id = 100;
    config.proxy_id = 1;
    config.policy = policy;
    config.sensing_period = sensing;
    config.value_delta = 1.0;
    config.model_tolerance = 0.5;
    config.batch_interval = Minutes(16);
    config.drift_ppm = 0.0;  // keep local == reference in unit tests
    config.clock_jitter = 0;
    if (measure == nullptr) {
      measure = [](SimTime t) {
        return 20.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                                     static_cast<double>(kDay));
      };
    }
    sensor = std::make_unique<SensorNode>(&sim, net.get(), config, std::move(measure));
    sensor->Start();
  }
};

TEST(SensorNodeTest, EverySamplePolicyStreams) {
  Rig rig(PushPolicy::kEverySample);
  rig.sim.RunUntil(Minutes(10));
  // ~19 samples in 10 min at 31 s.
  EXPECT_NEAR(static_cast<double>(rig.proxy.pushes.size()), 19.0, 2.0);
  EXPECT_EQ(rig.proxy.pushes[0].reason, PushReason::kEverySample);
}

TEST(SensorNodeTest, NonePolicyStaysSilentButArchives) {
  Rig rig(PushPolicy::kNone);
  rig.sim.RunUntil(Hours(2));
  EXPECT_TRUE(rig.proxy.pushes.empty());
  EXPECT_GT(rig.sensor->archive().stats().records_appended, 200u);
}

TEST(SensorNodeTest, ValueDrivenPushesOnlyOnDelta) {
  // A staircase signal: +2 C every 30 minutes; otherwise flat.
  auto staircase = [](SimTime t) { return 2.0 * static_cast<double>(t / Minutes(30)); };
  Rig rig(PushPolicy::kValueDriven, staircase);
  rig.sim.RunUntil(Hours(5));
  // First sample plus one push per step (10 steps in 5 h).
  EXPECT_GE(rig.proxy.pushes.size(), 10u);
  EXPECT_LE(rig.proxy.pushes.size(), 12u);
  EXPECT_GT(rig.sensor->stats().suppressed, 500u);
}

TEST(SensorNodeTest, BatchedPolicyFlushesOnInterval) {
  Rig rig(PushPolicy::kBatched);
  rig.sim.RunUntil(Hours(2));
  // 2 h / 16 min = 7 full batches (the partial tail is still buffered).
  EXPECT_EQ(rig.proxy.pushes.size(), 7u);
  for (const auto& push : rig.proxy.pushes) {
    EXPECT_EQ(push.reason, PushReason::kBatch);
    auto batch = DecodeBatch(push.batch);
    ASSERT_TRUE(batch.ok());
    // ~31 samples per 16-minute batch at 31 s.
    EXPECT_NEAR(static_cast<double>(batch->samples.size()), 31.0, 2.0);
  }
}

TEST(SensorNodeTest, ModelDrivenSuppressesPredictableData) {
  Rig rig(PushPolicy::kModelDriven);
  // Train a model offline on the same diurnal signal the sensor measures.
  ModelConfig mc;
  mc.sample_period = Seconds(31);
  std::vector<Sample> history;
  for (SimTime t = 0; t < Days(2); t += Seconds(31)) {
    history.push_back(Sample{t, 20.0 + 5.0 * std::sin(2.0 * M_PI *
                                                      static_cast<double>(t % kDay) /
                                                      static_cast<double>(kDay))});
  }
  SeasonalArModel model(mc);
  ASSERT_TRUE(model.Fit(history).ok());

  // Let it bootstrap for an hour, then install the model.
  rig.sim.RunUntil(Days(2) + Hours(1));
  const uint64_t pushes_before = rig.sensor->stats().pushes;
  ModelUpdateMsg update;
  update.model_seq = 1;
  update.tolerance = 0.5;
  update.model_params = model.Serialize();
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kModelUpdate), EncodeMsg(update));
  rig.sim.RunUntil(Days(2) + Hours(6));

  EXPECT_EQ(rig.sensor->stats().model_updates, 1u);
  ASSERT_NE(rig.sensor->model(), nullptr);
  EXPECT_EQ(rig.sensor->model()->type(), ModelType::kSeasonalAr);
  // The signal is perfectly diurnal: with the model installed, pushes all but stop.
  const uint64_t pushes_after = rig.sensor->stats().pushes - pushes_before;
  EXPECT_LT(pushes_after, 6u);
  EXPECT_GT(rig.sensor->stats().model_checks, 500u);
}

TEST(SensorNodeTest, ModelDrivenReportsUnpredictableEvent) {
  // Diurnal signal with a sharp spike at day 2 + 3h (an "event").
  auto spiky = [](SimTime t) {
    double v = 20.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                                     static_cast<double>(kDay));
    if (t >= Days(2) + Hours(3) && t < Days(2) + Hours(3) + Minutes(10)) {
      v += 8.0;
    }
    return v;
  };
  Rig rig(PushPolicy::kModelDriven, spiky);
  ModelConfig mc;
  mc.sample_period = Seconds(31);
  std::vector<Sample> history;
  for (SimTime t = 0; t < Days(2); t += Seconds(31)) {
    history.push_back(Sample{t, spiky(t)});
  }
  SeasonalArModel model(mc);
  ASSERT_TRUE(model.Fit(history).ok());
  rig.sim.RunUntil(Days(2));
  ModelUpdateMsg update;
  update.model_params = model.Serialize();
  update.tolerance = 0.5;
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kModelUpdate), EncodeMsg(update));
  rig.sim.RunUntil(Days(2) + Hours(2));
  rig.proxy.pushes.clear();

  rig.sim.RunUntil(Days(2) + Hours(4));
  // The spike defeated the model -> deviation pushes, the first within ~a sample period.
  ASSERT_FALSE(rig.proxy.pushes.empty());
  EXPECT_EQ(rig.proxy.pushes[0].reason, PushReason::kModelDeviation);
  auto batch = DecodeBatch(rig.proxy.pushes[0].batch);
  ASSERT_TRUE(batch.ok());
  EXPECT_LE(batch->samples[0].t - (Days(2) + Hours(3)), Minutes(2));
}

TEST(SensorNodeTest, ArchiveQueryRoundTrip) {
  Rig rig(PushPolicy::kNone);
  rig.sim.RunUntil(Hours(3));
  rig.sensor->Stop();  // freeze sensing so RunAll() can drain the queue
  ArchiveQueryMsg query;
  query.query_id = 77;
  query.local_start = Hours(1);
  query.local_end = Hours(1) + Minutes(10);
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kArchiveQuery),
                EncodeMsg(query));
  rig.sim.RunAll();

  ASSERT_EQ(rig.proxy.replies.size(), 1u);
  const ArchiveReplyMsg& reply = rig.proxy.replies[0];
  EXPECT_EQ(reply.query_id, 77u);
  EXPECT_EQ(reply.status_code, static_cast<uint8_t>(StatusCode::kOk));
  auto batch = DecodeBatch(reply.batch);
  ASSERT_TRUE(batch.ok());
  // 10 minutes at 31 s ~ 19 samples.
  EXPECT_NEAR(static_cast<double>(batch->samples.size()), 19.0, 2.0);
  for (const Sample& s : batch->samples) {
    EXPECT_GE(s.t, Hours(1) - Seconds(1));
    EXPECT_LT(s.t, Hours(1) + Minutes(10));
  }
}

TEST(SensorNodeTest, ArchiveQueryOutsideDataIsNotFound) {
  Rig rig(PushPolicy::kNone);
  rig.sim.RunUntil(Hours(1));
  rig.sensor->Stop();
  ArchiveQueryMsg query;
  query.query_id = 5;
  query.local_start = Days(10);
  query.local_end = Days(10) + Minutes(1);
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kArchiveQuery),
                EncodeMsg(query));
  rig.sim.RunAll();
  ASSERT_EQ(rig.proxy.replies.size(), 1u);
  EXPECT_EQ(rig.proxy.replies[0].status_code,
            static_cast<uint8_t>(StatusCode::kNotFound));
}

TEST(SensorNodeTest, ConfigUpdateRetunesSensing) {
  Rig rig(PushPolicy::kEverySample);
  rig.sim.RunUntil(Minutes(10));
  const uint64_t before = rig.sensor->stats().samples;
  ConfigUpdateMsg update;
  update.fields = kCfgSensingPeriod;
  update.sensing_period = Minutes(5);
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kConfigUpdate), EncodeMsg(update));
  rig.sim.RunUntil(Minutes(60));
  // 50 more minutes at 5-minute sampling: ~10 samples, not ~97.
  const uint64_t after = rig.sensor->stats().samples - before;
  EXPECT_LE(after, 12u);
  EXPECT_GE(after, 8u);
  EXPECT_EQ(rig.sensor->stats().config_updates, 1u);
}

TEST(SensorNodeTest, ConfigUpdateSwitchesPolicy) {
  Rig rig(PushPolicy::kEverySample);
  rig.sim.RunUntil(Minutes(5));
  ConfigUpdateMsg update;
  update.fields = kCfgPolicy | kCfgBatchInterval;
  update.policy = PushPolicy::kBatched;
  update.batch_interval = Minutes(10);
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kConfigUpdate), EncodeMsg(update));
  rig.sim.RunUntil(Minutes(40));
  bool saw_batch = false;
  for (const auto& push : rig.proxy.pushes) {
    if (push.reason == PushReason::kBatch) {
      saw_batch = true;
    }
  }
  EXPECT_TRUE(saw_batch);
}

TEST(SensorNodeTest, CompressionShrinksBatchPayloads) {
  auto smooth = [](SimTime t) {
    return 20.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                                 static_cast<double>(kDay));
  };
  Rig raw_rig(PushPolicy::kBatched, smooth);
  Rig comp_rig(PushPolicy::kBatched, smooth);
  ConfigUpdateMsg update;
  update.fields = kCfgCompression | kCfgBatchInterval;
  update.compress = true;
  update.quant_step = 0.02;
  update.batch_interval = Hours(1);
  comp_rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kConfigUpdate),
                     EncodeMsg(update));
  ConfigUpdateMsg raw_update;
  raw_update.fields = kCfgBatchInterval;
  raw_update.batch_interval = Hours(1);
  raw_rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kConfigUpdate),
                    EncodeMsg(raw_update));

  raw_rig.sim.RunUntil(Hours(6));
  comp_rig.sim.RunUntil(Hours(6));
  ASSERT_FALSE(raw_rig.proxy.pushes.empty());
  ASSERT_FALSE(comp_rig.proxy.pushes.empty());
  EXPECT_LT(comp_rig.sensor->stats().compressed_bytes,
            raw_rig.sensor->stats().compressed_bytes / 2);
  // And the decoded values still match the signal within the quantization regime.
  auto batch = DecodeBatch(comp_rig.proxy.pushes.back().batch);
  ASSERT_TRUE(batch.ok());
  for (const Sample& s : batch->samples) {
    EXPECT_NEAR(s.value, smooth(s.t), 0.2);
  }
}

// A config update carrying a knob the sensor would abort on once applied is dropped
// whole: the sensor counts no update, keeps sampling at its old period and keeps
// flushing its batches.
void ExpectConfigUpdateDropped(const ConfigUpdateMsg& update) {
  Rig rig(PushPolicy::kBatched);
  rig.sim.RunUntil(Minutes(5));
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kConfigUpdate), EncodeMsg(update));
  rig.sim.RunUntil(Hours(1));
  EXPECT_EQ(rig.sensor->stats().config_updates, 0u);
  EXPECT_GE(rig.sensor->stats().samples, 110u);  // 31 s period for an hour
  EXPECT_FALSE(rig.proxy.pushes.empty());
}

TEST(SensorNodeTest, ConfigUpdateWithNonPositiveSensingPeriodIsDropped) {
  ConfigUpdateMsg update;
  update.fields = kCfgSensingPeriod | kCfgValueDelta;
  update.sensing_period = 0;
  update.value_delta = 3.0;
  ExpectConfigUpdateDropped(update);
}

TEST(SensorNodeTest, ConfigUpdateWithNonPositiveBatchIntervalIsDropped) {
  ConfigUpdateMsg update;
  update.fields = kCfgBatchInterval;
  update.batch_interval = -Minutes(1);
  ExpectConfigUpdateDropped(update);
}

TEST(SensorNodeTest, ConfigUpdateWithNonPositiveLplIntervalIsDropped) {
  ConfigUpdateMsg update;
  update.fields = kCfgLplInterval;
  update.lpl_interval = 0;
  ExpectConfigUpdateDropped(update);
}

TEST(SensorNodeTest, ConfigUpdateWithNonPositiveQuantStepIsDropped) {
  ConfigUpdateMsg update;
  update.fields = kCfgCompression;
  update.compress = true;
  update.quant_step = 0.0;
  ExpectConfigUpdateDropped(update);
  // The step only matters with compression on.
  update.compress = false;
  EXPECT_TRUE(Validate(update).ok());
}

TEST(SensorNodeTest, ConfigUpdateWithNonFiniteQuantStepIsDropped) {
  ConfigUpdateMsg update;
  update.fields = kCfgCompression;
  update.compress = true;
  update.quant_step = std::numeric_limits<double>::infinity();
  ExpectConfigUpdateDropped(update);
}

TEST(SensorNodeTest, AggregateArchiveQueryReturnsOneValue) {
  // Linear ramp so aggregates are exactly predictable.
  auto ramp = [](SimTime t) { return static_cast<double>(t / Seconds(31)); };
  Rig rig(PushPolicy::kNone, ramp);
  rig.sim.RunUntil(Hours(3));
  rig.sensor->Stop();  // freeze sensing so RunAll() can drain the queue

  auto ask = [&rig](AggregateOp op) {
    ArchiveQueryMsg query;
    query.query_id = static_cast<uint32_t>(op) + 100;
    query.local_start = Hours(1);
    query.local_end = Hours(2);
    query.aggregate = op;
    rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kArchiveQuery),
                  EncodeMsg(query));
    rig.sim.RunAll();
    const ArchiveReplyMsg& reply = rig.proxy.replies.back();
    EXPECT_EQ(reply.status_code, static_cast<uint8_t>(StatusCode::kOk));
    auto batch = DecodeBatch(reply.batch);
    EXPECT_TRUE(batch.ok());
    EXPECT_EQ(batch->samples.size(), 1u);  // one value, not the whole range
    return batch->samples[0].value;
  };
  // Samples in [1h, 2h): indices 117..231 (31 s grid, first tick at t=31 s).
  const double min = ask(AggregateOp::kMin);
  const double max = ask(AggregateOp::kMax);
  const double mean = ask(AggregateOp::kMean);
  const double count = ask(AggregateOp::kCount);
  EXPECT_LT(min, max);
  EXPECT_GT(mean, min);
  EXPECT_LT(mean, max);
  EXPECT_NEAR(count, (max - min) + 1.0, 1.5);  // ramp: one sample per index
  // The aggregate reply is radically smaller than shipping the range.
  ArchiveQueryMsg full;
  full.query_id = 999;
  full.local_start = Hours(1);
  full.local_end = Hours(2);
  rig.net->Send(1, 100, static_cast<uint16_t>(MsgType::kArchiveQuery), EncodeMsg(full));
  rig.sim.RunAll();
  EXPECT_GT(rig.proxy.replies.back().batch.size(), 20u * 5u);
}

TEST(SensorNodeTest, EnergyBreakdownIsCharged) {
  Rig rig(PushPolicy::kEverySample);
  rig.sim.RunUntil(Hours(1));
  rig.net->SettleIdleEnergy();
  const EnergyMeter& meter = rig.sensor->meter();
  EXPECT_GT(meter.Component(EnergyComponent::kRadioTx), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kSensing), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kFlashWrite), 0.0);
  EXPECT_GT(meter.Total(), 0.0);
}

}  // namespace
}  // namespace presto
