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
// Encodings are explicit byte layouts (ByteWriter/Reader) because payload size is a
// first-class cost in the energy model.

#ifndef SRC_SENSOR_PROTOCOL_H_
#define SRC_SENSOR_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
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

  std::vector<uint8_t> Encode() const;
  static Result<DataPushMsg> Decode(span<const uint8_t> bytes);
};

struct ModelUpdateMsg {
  uint32_t model_seq = 0;
  double tolerance = 0.5;            // push threshold the sensor applies
  std::vector<uint8_t> model_params; // PredictiveModel::Serialize output

  std::vector<uint8_t> Encode() const;
  static Result<ModelUpdateMsg> Decode(span<const uint8_t> bytes);
};

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

  std::vector<uint8_t> Encode() const;
  static Result<ConfigUpdateMsg> Decode(span<const uint8_t> bytes);
};

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

const char* AggregateOpName(AggregateOp op);

struct ArchiveQueryMsg {
  uint32_t query_id = 0;
  SimTime local_start = 0;  // sensor-local timeline
  SimTime local_end = 0;
  bool compress = true;
  uint32_t max_samples = 4096;
  AggregateOp aggregate = AggregateOp::kNone;

  std::vector<uint8_t> Encode() const;
  static Result<ArchiveQueryMsg> Decode(span<const uint8_t> bytes);
};

struct ArchiveReplyMsg {
  uint32_t query_id = 0;
  uint8_t status_code = 0;     // StatusCode as uint8
  SimTime local_send_time = 0; // sync beacon, like pushes
  std::vector<uint8_t> batch;  // empty on error

  std::vector<uint8_t> Encode() const;
  static Result<ArchiveReplyMsg> Decode(span<const uint8_t> bytes);
};

struct ReplicaUpdateMsg {
  uint32_t sensor_id = 0;
  std::vector<uint8_t> batch;  // reference-timeline batch blob

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaUpdateMsg> Decode(span<const uint8_t> bytes);
};

struct ReplicaModelMsg {
  uint32_t sensor_id = 0;
  double tolerance = 0.5;
  std::vector<uint8_t> model_params;

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaModelMsg> Decode(span<const uint8_t> bytes);
};

}  // namespace presto

#endif  // SRC_SENSOR_PROTOCOL_H_
