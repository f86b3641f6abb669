// Tests for the LPL MAC / network fabric: delivery, rendezvous latency, energy
// accounting, loss and retries, failure injection, duty-cycle adaptation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/cell_link.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/util/bytes.h"

namespace presto {
namespace {

class Recorder : public NetNode {
 public:
  void OnMessage(const Message& message) override { messages.push_back(message); }
  std::vector<Message> messages;
};

struct Harness {
  Simulator sim;
  NetworkParams params;
  std::unique_ptr<Network> net;
  Recorder proxy;
  Recorder sensor;
  EnergyMeter sensor_meter;

  explicit Harness(double loss = 0.0, Duration lpl = Seconds(1)) {
    params.default_frame_loss = loss;
    net = std::make_unique<Network>(&sim, params, /*seed=*/99);
    NodeRadioConfig powered;
    powered.powered = true;
    net->AttachNode(1, &proxy, powered, nullptr);
    NodeRadioConfig unpowered;
    unpowered.powered = false;
    unpowered.lpl_interval = lpl;
    unpowered.post_burst_listen = Seconds(5);
    net->AttachNode(2, &sensor, unpowered, &sensor_meter);
  }
};

TEST(NetworkTest, DeliversToPoweredReceiver) {
  Harness h;
  h.net->Send(2, 1, 7, {1, 2, 3});
  h.sim.RunAll();
  ASSERT_EQ(h.proxy.messages.size(), 1u);
  EXPECT_EQ(h.proxy.messages[0].src, 2u);
  EXPECT_EQ(h.proxy.messages[0].type, 7u);
  EXPECT_EQ(h.proxy.messages[0].payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(h.net->stats().messages_delivered, 1u);
}

TEST(NetworkTest, UplinkToPoweredProxyIsFast) {
  Harness h;
  h.net->Send(2, 1, 0, std::vector<uint8_t>(10));
  h.sim.RunAll();
  ASSERT_EQ(h.proxy.messages.size(), 1u);
  // Short preamble + one frame + ack at 19.2 kbps: well under 100 ms.
  EXPECT_LT(h.proxy.messages[0].delivered_at, Millis(100));
}

TEST(NetworkTest, DownlinkWaitsForLplRendezvous) {
  Harness h(/*loss=*/0.0, /*lpl=*/Seconds(2));
  h.net->Send(1, 2, 0, std::vector<uint8_t>(10));
  h.sim.RunAll();
  ASSERT_EQ(h.sensor.messages.size(), 1u);
  // The preamble must span the receiver's 2 s check interval.
  EXPECT_GE(h.sensor.messages[0].delivered_at, Seconds(2));
  EXPECT_LT(h.sensor.messages[0].delivered_at, Seconds(3));
}

TEST(NetworkTest, PostBurstListenWindowMakesReplyFast) {
  Harness h(/*loss=*/0.0, /*lpl=*/Seconds(2));
  // Sensor pushes; proxy replies within the sensor's 5 s listen window.
  h.net->Send(2, 1, 0, std::vector<uint8_t>(4));
  h.sim.RunAll();
  const SimTime push_done = h.proxy.messages.at(0).delivered_at;
  h.net->Send(1, 2, 0, std::vector<uint8_t>(4));
  h.sim.RunAll();
  ASSERT_EQ(h.sensor.messages.size(), 1u);
  // No 2 s rendezvous needed: delivered shortly after the push.
  EXPECT_LT(h.sensor.messages[0].delivered_at - push_done, Millis(200));
}

TEST(NetworkTest, SenderEnergyChargedPerBurst) {
  Harness h;
  h.net->Send(2, 1, 0, std::vector<uint8_t>(64));
  h.sim.RunAll();
  const double tx = h.sensor_meter.Component(EnergyComponent::kRadioTx);
  const double listen = h.sensor_meter.Component(EnergyComponent::kRadioListen);
  EXPECT_GT(tx, 0.0);
  // Post-burst listen window (5 s at 45 mW) dominates listen cost.
  EXPECT_NEAR(listen, 0.225, 0.05);
}

TEST(NetworkTest, IdleEnergyAccruesWithDutyCycle) {
  Harness h(/*loss=*/0.0, /*lpl=*/Seconds(1));
  h.sim.RunUntil(Hours(1));
  h.net->SettleIdleEnergy();
  const double listen = h.sensor_meter.Component(EnergyComponent::kRadioListen);
  // 2.5 ms sample per 1 s at 45 mW = 112.5 uW -> ~0.405 J/h.
  EXPECT_NEAR(listen, 0.405, 0.05);
  EXPECT_GT(h.sensor_meter.Component(EnergyComponent::kRadioSleep), 0.0);
}

TEST(NetworkTest, LongerLplIntervalSavesIdleEnergy) {
  Harness fast(/*loss=*/0.0, /*lpl=*/Millis(200));
  Harness slow(/*loss=*/0.0, /*lpl=*/Seconds(4));
  fast.sim.RunUntil(Hours(1));
  slow.sim.RunUntil(Hours(1));
  fast.net->SettleIdleEnergy();
  slow.net->SettleIdleEnergy();
  EXPECT_GT(fast.sensor_meter.Component(EnergyComponent::kRadioListen),
            5.0 * slow.sensor_meter.Component(EnergyComponent::kRadioListen));
}

TEST(NetworkTest, SetLplIntervalSettlesAtOldRate) {
  Harness h(/*loss=*/0.0, /*lpl=*/Seconds(1));
  h.sim.RunUntil(Hours(1));
  h.net->SetLplInterval(2, Seconds(10));
  const double after_first_hour = h.sensor_meter.Component(EnergyComponent::kRadioListen);
  h.sim.RunUntil(Hours(2));
  h.net->SettleIdleEnergy();
  const double second_hour =
      h.sensor_meter.Component(EnergyComponent::kRadioListen) - after_first_hour;
  EXPECT_LT(second_hour, after_first_hour / 5.0);
  EXPECT_EQ(h.net->LplInterval(2), Seconds(10));
}

TEST(NetworkTest, LossCausesRetriesAndEventuallyDrops) {
  Harness h(/*loss=*/0.65);
  for (int i = 0; i < 50; ++i) {
    h.net->Send(2, 1, 0, std::vector<uint8_t>(8));
    h.sim.RunAll();
  }
  const NetStats& stats = h.net->stats();
  EXPECT_GT(stats.frame_retries, 0u);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.messages_delivered, 0u);
  EXPECT_EQ(stats.messages_delivered + stats.messages_dropped, 50u);
}

TEST(NetworkTest, ZeroLossDeliversEverything) {
  Harness h(/*loss=*/0.0);
  for (int i = 0; i < 50; ++i) {
    h.net->Send(2, 1, 0, std::vector<uint8_t>(8));
  }
  h.sim.RunAll();
  EXPECT_EQ(h.net->stats().messages_delivered, 50u);
  EXPECT_EQ(h.net->stats().frame_retries, 0u);
}

TEST(NetworkTest, LargePayloadFragmentsIntoFrames) {
  Harness h;
  h.net->Send(2, 1, 0, std::vector<uint8_t>(300));  // 64-byte frames -> 5 frames
  h.sim.RunAll();
  EXPECT_EQ(h.net->node_stats(2).frames_sent, 5u);
  ASSERT_EQ(h.proxy.messages.size(), 1u);
  EXPECT_EQ(h.proxy.messages[0].payload.size(), 300u);
}

TEST(NetworkTest, DownNodeNeitherSendsNorReceives) {
  Harness h;
  h.net->SetNodeDown(2, true);
  h.net->Send(1, 2, 0, {1});
  h.net->Send(2, 1, 0, {1});
  h.sim.RunAll();
  EXPECT_TRUE(h.sensor.messages.empty());
  EXPECT_TRUE(h.proxy.messages.empty());
  h.net->SetNodeDown(2, false);
  h.net->Send(1, 2, 0, {1});
  h.sim.RunAll();
  EXPECT_EQ(h.sensor.messages.size(), 1u);
}

TEST(NetworkTest, WiredPathIsFastAndFree) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 1);
  Recorder a;
  Recorder b;
  NodeRadioConfig powered;
  powered.powered = true;
  net.AttachNode(10, &a, powered, nullptr);
  net.AttachNode(11, &b, powered, nullptr);
  net.ConnectWired(10, 11);
  net.Send(10, 11, 3, std::vector<uint8_t>(1000));
  sim.RunAll();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_LT(b.messages[0].delivered_at, Millis(15));
  EXPECT_EQ(net.stats().wired_messages, 1u);
}

TEST(NetworkTest, BurstsFromOneSenderSerialize) {
  Harness h;
  h.net->Send(2, 1, 0, std::vector<uint8_t>(64));
  h.net->Send(2, 1, 1, std::vector<uint8_t>(64));
  h.sim.RunAll();
  ASSERT_EQ(h.proxy.messages.size(), 2u);
  EXPECT_EQ(h.proxy.messages[0].type, 0u);
  EXPECT_EQ(h.proxy.messages[1].type, 1u);
  EXPECT_GT(h.proxy.messages[1].delivered_at, h.proxy.messages[0].delivered_at);
}

TEST(NetworkTest, NodeDownAbandonsItsPendingBatches) {
  // Regression: queued epoch traffic of a killed node must not fire its flush timer
  // later — that silently inflated messages_dropped and the event fingerprint.
  Harness h;
  h.params.batch_epoch = Seconds(2);
  h.net = std::make_unique<Network>(&h.sim, h.params, /*seed=*/99);
  NodeRadioConfig powered;
  powered.powered = true;
  h.net->AttachNode(1, &h.proxy, powered, nullptr);
  NodeRadioConfig unpowered;
  h.net->AttachNode(2, &h.sensor, unpowered, &h.sensor_meter);

  h.net->SendBatched(2, 1, 7, {1});
  h.net->SendBatched(2, 1, 7, {2});  // same epoch: one pending batch 2 -> 1
  h.net->SetNodeDown(2, true);
  h.sim.RunAll();

  EXPECT_TRUE(h.proxy.messages.empty());
  EXPECT_EQ(h.net->stats().batches_abandoned, 1u);
  EXPECT_EQ(h.net->stats().messages_dropped, 0u)
      << "abandoned batches never reached the radio, so they are not drops";
  EXPECT_EQ(h.net->stats().batch_flushes, 0u);

  // Batches where the dead node is the *destination* are abandoned too.
  h.net->SetNodeDown(2, false);
  h.net->SendBatched(1, 2, 7, {3});
  h.net->SetNodeDown(2, true);
  h.sim.RunAll();
  EXPECT_EQ(h.net->stats().batches_abandoned, 2u);
  EXPECT_TRUE(h.sensor.messages.empty());

  // A revived node's fresh traffic batches normally again.
  h.net->SetNodeDown(2, false);
  h.net->SendBatched(2, 1, 7, {4});
  h.net->SendBatched(2, 1, 7, {5});
  h.sim.RunAll();
  EXPECT_EQ(h.proxy.messages.size(), 2u);
  EXPECT_EQ(h.net->stats().batch_flushes, 1u);
}

TEST(NetworkDeathTest, UnknownNodeIdsCheckFail) {
  Harness h;
  EXPECT_DEATH(h.net->NodeLane(77), "unknown node id");
  EXPECT_DEATH(h.net->IsNodeDown(77), "unknown node id");
  EXPECT_DEATH(h.net->Send(1, 77, 1, {1}), "unknown node id");
  EXPECT_DEATH(h.net->Send(77, 1, 1, {1}), "unknown node id");
  Recorder late;
  EXPECT_DEATH(h.net->AttachNode(2, &late, NodeRadioConfig{}, nullptr),
               "duplicate node id");
}

// Many nodes and links in the id-indexed tables: every send finds its endpoints, its
// wired link and its loss override, and a checkpoint writes them in ascending order
// whatever order they were declared in (a restore into an identically built network
// reproduces the bytes).
TEST(NetworkTest, IdTablesRoundTripThroughACheckpoint) {
  const auto build = [](Simulator* sim, std::vector<Recorder>* nodes) {
    auto net = std::make_unique<Network>(sim, NetworkParams{}, /*seed=*/5);
    NodeRadioConfig powered;
    powered.powered = true;
    for (size_t i = 0; i < nodes->size(); ++i) {
      // Declared in descending id order, spread over the id space.
      const NodeId id = static_cast<NodeId>((nodes->size() - i) * 7919);
      net->AttachNode(id, &(*nodes)[i], powered, nullptr);
    }
    for (NodeId a = 1; a < 10; ++a) {
      net->ConnectWired(a * 7919, (a + 20) * 7919, Millis(a));
      net->SetLinkLoss((a + 30) * 7919, a * 7919, 0.25);
    }
    return net;
  };
  Simulator sim;
  std::vector<Recorder> nodes(64);
  std::unique_ptr<Network> net = build(&sim, &nodes);
  for (NodeId a = 1; a < 10; ++a) {
    net->Send((a + 20) * 7919, a * 7919, 1, {1, 2, 3});  // wired, latency a ms
  }
  sim.RunAll();
  EXPECT_EQ(net->stats().wired_messages, 9u);
  for (NodeId a = 1; a < 10; ++a) {
    const Recorder& receiver = nodes[nodes.size() - a];
    ASSERT_EQ(receiver.messages.size(), 1u) << a;
    const Duration serialization = static_cast<Duration>(
        3 * 8.0 / NetworkParams{}.wired_bit_rate_bps * static_cast<double>(kSecond));
    EXPECT_EQ(receiver.messages[0].delivered_at - receiver.messages[0].sent_at,
              Millis(a) + serialization);
  }
  ByteWriter w;
  ASSERT_TRUE(net->SaveState(w).ok());
  const std::vector<uint8_t> bytes = w.TakeBuffer();
  Simulator sim2;
  std::vector<Recorder> nodes2(64);
  std::unique_ptr<Network> restored = build(&sim2, &nodes2);
  ByteReader r{span<const uint8_t>(bytes)};
  ASSERT_TRUE(restored->LoadState(r).ok());
  ByteWriter again;
  ASSERT_TRUE(restored->SaveState(again).ok());
  EXPECT_EQ(again.buffer(), bytes);
}

TEST(NetworkTest, PerLinkLossOverride) {
  Harness h(/*loss=*/0.0);
  h.net->SetLinkLoss(1, 2, 0.99);
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    h.net->Send(2, 1, 0, {1});
    h.sim.RunAll();
    delivered = static_cast<int>(h.net->stats().messages_delivered);
  }
  EXPECT_LT(delivered, 30);
}

// ---------- inter-cell trunk (CellLink) ----------

TEST(CellLinkTest, AddsTransferAndPropagationDelay) {
  CellLinkParams params;
  params.latency = Millis(10);
  params.bandwidth_bps = 8e6;  // 1 byte/us
  CellLink link(params);
  // 1000 bytes at 1 byte/us = 1 ms on the wire, plus 10 ms of propagation.
  EXPECT_EQ(link.TransferTime(1000), Millis(1));
  EXPECT_EQ(link.Deliver(Seconds(1), 1000), Seconds(1) + Millis(11));
  EXPECT_EQ(link.stats().messages, 1u);
  EXPECT_EQ(link.stats().bytes, 1000u);
  EXPECT_EQ(link.stats().queued, 0u);
}

TEST(CellLinkTest, SerializesFifoBehindEarlierTraffic) {
  CellLinkParams params;
  params.latency = 0;
  params.bandwidth_bps = 8e6;  // 1 byte/us
  CellLink link(params);
  // Two back-to-back megabyte transfers: the second queues behind the first.
  const SimTime first = link.Deliver(0, 1000000);
  EXPECT_EQ(first, Seconds(1));
  const SimTime second = link.Deliver(Millis(1), 1000000);
  EXPECT_EQ(second, Seconds(2)) << "second message must depart after the first clears";
  EXPECT_EQ(link.stats().queued, 1u);
  // Once the trunk is idle again, delivery is send time + transfer.
  EXPECT_EQ(link.Deliver(Seconds(10), 1000), Seconds(10) + Millis(1));
}

}  // namespace
}  // namespace presto
