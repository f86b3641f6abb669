// PRESTO proxy<->sensor wire protocol.
//
// Every interaction the paper describes flows through these messages:
//   sensor -> proxy : DataPush      (model deviations, batches, value deltas, events)
//                     ArchiveReply  (answers to PAST-query pulls)
//   proxy  -> sensor: ModelUpdate   (model parameters, the "model-driven" in push)
//                     ConfigUpdate  (query-sensor matching: duty cycle, batching,
//                                    compression, sensing rate)
//                     ArchiveQuery  (cache-miss-triggered pull into the local archive)
//   proxy  -> proxy : ReplicaUpdate / ReplicaModel (cache+model replication, §5)
//
// Encodings are explicit byte layouts because payload size is a first-class cost in
// the energy model. Each message names its fields once, in wire order, in a
// CkptFields list (src/util/ckpt.h) that drives both EncodeMsg and DecodeMsg:
// fixed-width integers and f32 values ride the CkptFixed/CkptF32 adapters, duration
// knobs CkptVarBits, and bools, enums (one byte: every enumerator is below 128) and
// byte blobs (varint length + bytes) the generic codecs, whose reads refuse a bool
// byte other than 0/1 and a tag that names no enumerator. The model parameter blobs
// inside ModelUpdate/ReplicaModel are PredictiveModel::Serialize's own lossy codec.

#ifndef SRC_SENSOR_PROTOCOL_H_
#define SRC_SENSOR_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"
#include "src/util/span.h"

namespace presto {

// Network message `type` values.
enum class MsgType : uint16_t {
  kDataPush = 1,
  kModelUpdate = 2,
  kConfigUpdate = 3,
  kArchiveQuery = 4,
  kArchiveReply = 5,
  kReplicaUpdate = 6,
  kReplicaModel = 7,
  // Migration / hand-back / recruit state transfer: a checkpoint-codec blob carrying
  // cache samples plus the full-precision model (src/proxy/proxy_node.cc).
  kStateSnapshot = 8,
};

enum class PushReason : uint8_t {
  kBootstrap = 0,       // no model installed yet; unconditional reporting
  kModelDeviation = 1,  // |observed - predicted| exceeded tolerance
  kValueDelta = 2,      // value-driven policy threshold crossing
  kBatch = 3,           // periodic batch flush
  kEverySample = 4,     // streaming baseline
};

constexpr bool CkptEnumValid(PushReason v) { return v <= PushReason::kEverySample; }

const char* PushReasonName(PushReason reason);

// Sensor push policies (which of the above a sensor emits).
enum class PushPolicy : uint8_t {
  kNone = 0,         // archive only, never push (pure direct-query architecture)
  kValueDriven = 1,  // push when |v - last pushed| > value_delta
  kModelDriven = 2,  // push when the installed model mispredicts by > tolerance
  kBatched = 3,      // push everything, batched every batch_interval
  kEverySample = 4,  // push every sample immediately (streaming architecture)
};
constexpr bool CkptEnumValid(PushPolicy v) { return v <= PushPolicy::kEverySample; }

const char* PushPolicyName(PushPolicy policy);

struct DataPushMsg {
  PushReason reason = PushReason::kBootstrap;
  SimTime local_send_time = 0;  // sensor clock at send; doubles as a sync beacon
  // Wavelet/raw batch blob (timestamps in sensor-local time).
  std::vector<uint8_t> batch;
};

template <class S, class F, CkptSelf<S, DataPushMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(v.reason);
  f(CkptFixed(v.local_send_time));
  f(v.batch);
}

struct ModelUpdateMsg {
  uint32_t model_seq = 0;
  double tolerance = 0.5;            // push threshold the sensor applies
  std::vector<uint8_t> model_params; // PredictiveModel::Serialize output
};

template <class S, class F, CkptSelf<S, ModelUpdateMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.model_seq));
  f(CkptF32(v.tolerance));
  f(v.model_params);
}

// Field mask bits for ConfigUpdateMsg.
inline constexpr uint16_t kCfgSensingPeriod = 1 << 0;
inline constexpr uint16_t kCfgBatchInterval = 1 << 1;
inline constexpr uint16_t kCfgPolicy = 1 << 2;
inline constexpr uint16_t kCfgValueDelta = 1 << 3;
inline constexpr uint16_t kCfgCompression = 1 << 4;
inline constexpr uint16_t kCfgLplInterval = 1 << 5;

struct ConfigUpdateMsg {
  uint16_t fields = 0;  // which members below are meaningful
  Duration sensing_period = 0;
  Duration batch_interval = 0;
  PushPolicy policy = PushPolicy::kModelDriven;
  double value_delta = 0.0;
  bool compress = false;
  double quant_step = 0.02;
  Duration lpl_interval = 0;
};

// The mask is read first, so on decode it gates the reads that follow it.
template <class S, class F, CkptSelf<S, ConfigUpdateMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.fields));
  if (v.fields & kCfgSensingPeriod) {
    f(CkptVarBits(v.sensing_period));
  }
  if (v.fields & kCfgBatchInterval) {
    f(CkptVarBits(v.batch_interval));
  }
  if (v.fields & kCfgPolicy) {
    f(v.policy);
  }
  if (v.fields & kCfgValueDelta) {
    f(CkptF32(v.value_delta));
  }
  if (v.fields & kCfgCompression) {
    f(v.compress);
    f(CkptF32(v.quant_step));
  }
  if (v.fields & kCfgLplInterval) {
    f(CkptVarBits(v.lpl_interval));
  }
}

// Refuses knobs a sensor would abort on once applied: a non-positive sensing period,
// batch interval or LPL interval, and, with compression on, a quantization step that
// is not a wire quant step (IsWireQuantStep). Only the fields in the mask are checked.
Status Validate(const ConfigUpdateMsg& msg);

// Sensor-side aggregation (paper §3: "The operation can be transmitted as a parameter
// to the sensor node, which uses the specified mode function on its local data before
// transmitting the final result"). kNone returns the samples themselves.
enum class AggregateOp : uint8_t {
  kNone = 0,
  kMin = 1,
  kMax = 2,
  kMean = 3,
  kCount = 4,
};
constexpr bool CkptEnumValid(AggregateOp v) { return v <= AggregateOp::kCount; }

const char* AggregateOpName(AggregateOp op);

struct ArchiveQueryMsg {
  uint32_t query_id = 0;
  SimTime local_start = 0;  // sensor-local timeline
  SimTime local_end = 0;
  bool compress = true;
  uint32_t max_samples = 4096;
  AggregateOp aggregate = AggregateOp::kNone;
};

template <class S, class F, CkptSelf<S, ArchiveQueryMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.query_id));
  f(CkptFixed(v.local_start));
  f(CkptFixed(v.local_end));
  f(v.compress);
  f(CkptFixed(v.max_samples));
  f(v.aggregate);
}

struct ArchiveReplyMsg {
  uint32_t query_id = 0;
  uint8_t status_code = 0;     // StatusCode as uint8
  SimTime local_send_time = 0; // sync beacon, like pushes
  std::vector<uint8_t> batch;  // empty on error
};

template <class S, class F, CkptSelf<S, ArchiveReplyMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.query_id));
  f(CkptFixed(v.status_code));
  f(CkptFixed(v.local_send_time));
  f(v.batch);
}

struct ReplicaUpdateMsg {
  uint32_t sensor_id = 0;
  std::vector<uint8_t> batch;  // reference-timeline batch blob
};

template <class S, class F, CkptSelf<S, ReplicaUpdateMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.sensor_id));
  f(v.batch);
}

struct ReplicaModelMsg {
  uint32_t sensor_id = 0;
  double tolerance = 0.5;
  std::vector<uint8_t> model_params;
};

template <class S, class F, CkptSelf<S, ReplicaModelMsg> = 0>
void CkptFields(S& v, F&& f) {
  f(CkptFixed(v.sensor_id));
  f(CkptF32(v.tolerance));
  f(v.model_params);
}

// A message's bytes: its field list, in order.
template <class M>
std::vector<uint8_t> EncodeMsg(const M& msg) {
  ByteWriter w;
  CkptWrite(w, msg);
  return w.TakeBuffer();
}

// Parses a message; short, trailing or out-of-range bytes are an error, never UB.
template <class M>
Result<M> DecodeMsg(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  M msg;
  CkptRead(r, msg);
  if (!r.ok()) {
    return r.status();
  }
  if (!r.AtEnd()) {
    return DataLossError("protocol: trailing bytes after message");
  }
  return msg;
}

}  // namespace presto

#endif  // SRC_SENSOR_PROTOCOL_H_
