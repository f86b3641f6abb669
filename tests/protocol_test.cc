// Wire-protocol round-trip and robustness tests: every proxy<->sensor message type,
// plus malformed-input handling (a lossy radio must never crash a node).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/sensor/protocol.h"
#include "src/util/rng.h"

namespace presto {
namespace {

TEST(ProtocolTest, DataPushRoundTrip) {
  DataPushMsg in;
  in.reason = PushReason::kModelDeviation;
  in.local_send_time = Days(3) + Millis(250);
  in.batch = {1, 2, 3, 4, 5};
  auto out = DecodeMsg<DataPushMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->reason, in.reason);
  EXPECT_EQ(out->local_send_time, in.local_send_time);
  EXPECT_EQ(out->batch, in.batch);
}

TEST(ProtocolTest, ModelUpdateRoundTrip) {
  ModelUpdateMsg in;
  in.model_seq = 42;
  in.tolerance = 0.75;
  in.model_params = std::vector<uint8_t>(64, 0xAB);
  auto out = DecodeMsg<ModelUpdateMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->model_seq, 42u);
  EXPECT_NEAR(out->tolerance, 0.75, 1e-6);
  EXPECT_EQ(out->model_params, in.model_params);
}

TEST(ProtocolTest, ConfigUpdatePartialFields) {
  ConfigUpdateMsg in;
  in.fields = kCfgLplInterval | kCfgCompression;
  in.lpl_interval = Seconds(7);
  in.compress = true;
  in.quant_step = 0.125;
  auto out = DecodeMsg<ConfigUpdateMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->fields, in.fields);
  EXPECT_EQ(out->lpl_interval, Seconds(7));
  EXPECT_TRUE(out->compress);
  EXPECT_NEAR(out->quant_step, 0.125, 1e-6);
}

TEST(ProtocolTest, ConfigUpdateAllFields) {
  ConfigUpdateMsg in;
  in.fields = kCfgSensingPeriod | kCfgBatchInterval | kCfgPolicy | kCfgValueDelta |
              kCfgCompression | kCfgLplInterval;
  in.sensing_period = Minutes(1);
  in.batch_interval = Hours(2);
  in.policy = PushPolicy::kBatched;
  in.value_delta = 1.5;
  in.compress = false;
  in.quant_step = 0.01;
  in.lpl_interval = Millis(500);
  auto out = DecodeMsg<ConfigUpdateMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->sensing_period, Minutes(1));
  EXPECT_EQ(out->batch_interval, Hours(2));
  EXPECT_EQ(out->policy, PushPolicy::kBatched);
  EXPECT_NEAR(out->value_delta, 1.5, 1e-6);
  EXPECT_EQ(out->lpl_interval, Millis(500));
}

TEST(ProtocolTest, ArchiveQueryRoundTripWithAggregate) {
  ArchiveQueryMsg in;
  in.query_id = 7;
  in.local_start = Hours(1);
  in.local_end = Hours(2);
  in.compress = false;
  in.max_samples = 128;
  in.aggregate = AggregateOp::kMean;
  auto out = DecodeMsg<ArchiveQueryMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->query_id, 7u);
  EXPECT_EQ(out->local_start, Hours(1));
  EXPECT_EQ(out->local_end, Hours(2));
  EXPECT_FALSE(out->compress);
  EXPECT_EQ(out->max_samples, 128u);
  EXPECT_EQ(out->aggregate, AggregateOp::kMean);
}

TEST(ProtocolTest, ArchiveReplyRoundTrip) {
  ArchiveReplyMsg in;
  in.query_id = 9;
  in.status_code = static_cast<uint8_t>(StatusCode::kNotFound);
  in.local_send_time = Days(1);
  auto out = DecodeMsg<ArchiveReplyMsg>(EncodeMsg(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->query_id, 9u);
  EXPECT_EQ(out->status_code, static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_TRUE(out->batch.empty());
}

TEST(ProtocolTest, ReplicaMessagesRoundTrip) {
  ReplicaUpdateMsg update;
  update.sensor_id = 1001;
  update.batch = {9, 8, 7};
  auto u = DecodeMsg<ReplicaUpdateMsg>(EncodeMsg(update));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->sensor_id, 1001u);
  EXPECT_EQ(u->batch, update.batch);

  ReplicaModelMsg model;
  model.sensor_id = 1002;
  model.tolerance = 0.3;
  model.model_params = {1, 2};
  auto m = DecodeMsg<ReplicaModelMsg>(EncodeMsg(model));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->sensor_id, 1002u);
  EXPECT_NEAR(m->tolerance, 0.3, 1e-6);
}

TEST(ProtocolTest, EmptyPayloadsRejected) {
  const std::vector<uint8_t> empty;
  EXPECT_FALSE(DecodeMsg<DataPushMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ModelUpdateMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ConfigUpdateMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ArchiveQueryMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ArchiveReplyMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ReplicaUpdateMsg>(empty).ok());
  EXPECT_FALSE(DecodeMsg<ReplicaModelMsg>(empty).ok());
}

TEST(ProtocolTest, TruncatedPayloadsRejectedNotCrash) {
  // Encode each message, then decode every strict prefix: must error, never UB.
  DataPushMsg push;
  push.batch = std::vector<uint8_t>(20, 1);
  const std::vector<uint8_t> encoded = EncodeMsg(push);
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::vector<uint8_t> prefix(encoded.begin(),
                                encoded.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeMsg<DataPushMsg>(prefix).ok()) << "prefix " << len;
  }
}

TEST(ProtocolTest, RandomGarbageNeverCrashes) {
  Pcg32 rng(123);
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> junk(static_cast<size_t>(rng.UniformInt(0, 64)));
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    // Any of these may *succeed* by luck on random bytes; they must not crash.
    (void)DecodeMsg<DataPushMsg>(junk);
    (void)DecodeMsg<ModelUpdateMsg>(junk);
    (void)DecodeMsg<ConfigUpdateMsg>(junk);
    (void)DecodeMsg<ArchiveQueryMsg>(junk);
    (void)DecodeMsg<ArchiveReplyMsg>(junk);
    (void)DecodeMsg<ReplicaUpdateMsg>(junk);
    (void)DecodeMsg<ReplicaModelMsg>(junk);
  }
}

// ---------- byte identity ----------

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// One hand-built instance of each layout. Payload size is radio time and energy, so
// the bytes are pinned: the hex was captured from the hand-written encoders these
// field lists replaced.
struct Golden {
  DataPushMsg push;
  ModelUpdateMsg model;
  ConfigUpdateMsg partial;
  ConfigUpdateMsg all;
  ArchiveQueryMsg query;
  ArchiveReplyMsg reply;
  ReplicaUpdateMsg replica;
  ReplicaModelMsg replica_model;

  Golden() {
    push.reason = PushReason::kValueDelta;
    push.local_send_time = Days(3) + Millis(250);
    push.batch = {1, 2, 3};
    model.model_seq = 0x01020304;
    model.tolerance = 0.75;
    model.model_params = {0xAB, 0xCD};
    partial.fields = kCfgLplInterval | kCfgCompression;
    partial.lpl_interval = Seconds(7);
    partial.compress = true;
    partial.quant_step = 0.125;
    all.fields = kCfgSensingPeriod | kCfgBatchInterval | kCfgPolicy | kCfgValueDelta |
                 kCfgCompression | kCfgLplInterval;
    all.sensing_period = Minutes(1);
    all.batch_interval = Hours(2);
    all.policy = PushPolicy::kBatched;
    all.value_delta = 1.5;
    all.compress = false;
    all.quant_step = 0.01;
    all.lpl_interval = -Millis(500);  // a negative duration is its 64 bits, 10 bytes
    query.query_id = 7;
    query.local_start = Hours(1);
    query.local_end = -Hours(2);
    query.compress = false;
    query.max_samples = 128;
    query.aggregate = AggregateOp::kMean;
    reply.query_id = 9;
    reply.status_code = 200;  // above 127: still one byte
    reply.local_send_time = Days(1);
    reply.batch = {5};
    replica.sensor_id = 1001;
    replica.batch = {9, 8, 7};
    replica_model.sensor_id = 1002;
    replica_model.tolerance = 0.3;
    replica_model.model_params = {1, 2};
  }

  std::vector<std::vector<uint8_t>> Encodings() const {
    const auto encode = [](const auto&... msgs) {
      return std::vector<std::vector<uint8_t>>{EncodeMsg(msgs)...};
    };
    return encode(push, model, partial, all, query, reply, replica, replica_model);
  }
};

TEST(ProtocolTest, GoldenBytes) {
  const Golden g;
  EXPECT_EQ(Hex(EncodeMsg(g.push)), "0290f089593c00000003010203");
  EXPECT_EQ(Hex(EncodeMsg(g.model)), "040302010000403f02abcd");
  EXPECT_EQ(Hex(EncodeMsg(g.partial)), "3000010000003ec09fab03");
  EXPECT_EQ(Hex(EncodeMsg(g.all)),
            "3f00808ece1c80909de91a030000c03f000ad7233ce0bde1ffffffffffff01");
  EXPECT_EQ(Hex(EncodeMsg(g.query)),
            "0700000000a493d60000000000b8d852feffffff008000000003");
  EXPECT_EQ(Hex(EncodeMsg(g.reply)), "09000000c80060d71d140000000105");
  EXPECT_EQ(Hex(EncodeMsg(g.replica)), "e903000003090807");
  EXPECT_EQ(Hex(EncodeMsg(g.replica_model)), "ea0300009a99993e020102");

  // And each decodes back to itself.
  EXPECT_EQ(EncodeMsg(*DecodeMsg<ConfigUpdateMsg>(EncodeMsg(g.all))), EncodeMsg(g.all));
  EXPECT_EQ(DecodeMsg<ConfigUpdateMsg>(EncodeMsg(g.all))->lpl_interval, -Millis(500));
  EXPECT_EQ(DecodeMsg<ArchiveReplyMsg>(EncodeMsg(g.reply))->status_code, 200);
  EXPECT_EQ(DecodeMsg<ArchiveQueryMsg>(EncodeMsg(g.query))->local_end, -Hours(2));
}

// Re-encodes whatever `bytes` decode to as message type M, or returns nullopt.
template <class M>
std::optional<std::vector<uint8_t>> Reencode(const std::vector<uint8_t>& bytes) {
  auto msg = DecodeMsg<M>(bytes);
  if (!msg.ok()) {
    return std::nullopt;
  }
  return EncodeMsg(*msg);
}

template <class M>
void ExpectStableIfAccepted(const std::vector<uint8_t>& bytes) {
  // An accepted mutation re-encodes to bytes that decode to the same encoding.
  const auto once = Reencode<M>(bytes);
  if (once.has_value()) {
    const auto twice = Reencode<M>(*once);
    ASSERT_TRUE(twice.has_value());
    EXPECT_EQ(*twice, *once);
  }
}

TEST(ProtocolTest, MutatedEncodingsDecodeOrFailCleanly) {
  const std::vector<std::vector<uint8_t>> seeds = Golden().Encodings();
  Pcg32 rng(2718);
  const auto below = [&rng](size_t bound) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bound) - 1));
  };
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> bytes = seeds[below(seeds.size())];
    const int flips = 1 + static_cast<int>(below(3));
    for (int i = 0; i < flips; ++i) {
      bytes[below(bytes.size())] = static_cast<uint8_t>(rng.NextU32());
    }
    if (below(4) == 0) {
      bytes.resize(below(bytes.size() + 1));
    }
    ExpectStableIfAccepted<DataPushMsg>(bytes);
    ExpectStableIfAccepted<ModelUpdateMsg>(bytes);
    ExpectStableIfAccepted<ConfigUpdateMsg>(bytes);
    ExpectStableIfAccepted<ArchiveQueryMsg>(bytes);
    ExpectStableIfAccepted<ArchiveReplyMsg>(bytes);
    ExpectStableIfAccepted<ReplicaUpdateMsg>(bytes);
    ExpectStableIfAccepted<ReplicaModelMsg>(bytes);
  }
}

TEST(ProtocolTest, OutOfRangeTagsAndBoolsAreRefused) {
  const Golden g;
  // Reason: the push's first byte.
  std::vector<uint8_t> push = EncodeMsg(g.push);
  push[0] = 9;
  EXPECT_FALSE(DecodeMsg<DataPushMsg>(push).ok()) << "reason 9";
  // Policy: the byte after the mask, when it is the only field.
  ConfigUpdateMsg policy_only;
  policy_only.fields = kCfgPolicy;
  policy_only.policy = PushPolicy::kBatched;
  std::vector<uint8_t> config = EncodeMsg(policy_only);
  ASSERT_EQ(config.size(), 3u);
  config[2] = 9;
  EXPECT_FALSE(DecodeMsg<ConfigUpdateMsg>(config).ok()) << "policy 9";
  // Aggregate: the archive query's last byte; its compress bool sits before the
  // 4-byte sample cap.
  std::vector<uint8_t> query = EncodeMsg(g.query);
  query.back() = 9;
  EXPECT_FALSE(DecodeMsg<ArchiveQueryMsg>(query).ok()) << "aggregate 9";
  query = EncodeMsg(g.query);
  query[query.size() - 6] = 2;
  EXPECT_FALSE(DecodeMsg<ArchiveQueryMsg>(query).ok()) << "compress byte 2";
  // The config's compress bool: right after the mask in the partial instance.
  config = EncodeMsg(g.partial);
  ASSERT_EQ(config[2], 1);
  config[2] = 2;
  EXPECT_FALSE(DecodeMsg<ConfigUpdateMsg>(config).ok()) << "compress byte 2";
  // Trailing bytes.
  push = EncodeMsg(g.push);
  push.push_back(0);
  EXPECT_FALSE(DecodeMsg<DataPushMsg>(push).ok()) << "trailing byte";
}

TEST(ProtocolTest, AggregateOpNames) {
  EXPECT_STREQ(AggregateOpName(AggregateOp::kMean), "mean");
  EXPECT_STREQ(AggregateOpName(AggregateOp::kCount), "count");
  EXPECT_STREQ(PushPolicyName(PushPolicy::kModelDriven), "model-driven");
  EXPECT_STREQ(PushReasonName(PushReason::kModelDeviation), "model-deviation");
}

}  // namespace
}  // namespace presto
