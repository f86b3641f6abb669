#include "src/sensor/protocol.h"

#include "src/wavelet/codec.h"

namespace presto {

const char* PushReasonName(PushReason reason) {
  switch (reason) {
    case PushReason::kBootstrap:
      return "bootstrap";
    case PushReason::kModelDeviation:
      return "model-deviation";
    case PushReason::kValueDelta:
      return "value-delta";
    case PushReason::kBatch:
      return "batch";
    case PushReason::kEverySample:
      return "every-sample";
  }
  return "?";
}

const char* PushPolicyName(PushPolicy policy) {
  switch (policy) {
    case PushPolicy::kNone:
      return "none";
    case PushPolicy::kValueDriven:
      return "value-driven";
    case PushPolicy::kModelDriven:
      return "model-driven";
    case PushPolicy::kBatched:
      return "batched";
    case PushPolicy::kEverySample:
      return "every-sample";
  }
  return "?";
}

const char* AggregateOpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kNone:
      return "none";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
    case AggregateOp::kMean:
      return "mean";
    case AggregateOp::kCount:
      return "count";
  }
  return "?";
}

Status Validate(const ConfigUpdateMsg& msg) {
  if ((msg.fields & kCfgSensingPeriod) && msg.sensing_period <= 0) {
    return InvalidArgumentError("config update: sensing_period must be positive");
  }
  if ((msg.fields & kCfgBatchInterval) && msg.batch_interval <= 0) {
    return InvalidArgumentError("config update: batch_interval must be positive");
  }
  if ((msg.fields & kCfgCompression) && msg.compress &&
      !IsWireQuantStep(msg.quant_step)) {
    return InvalidArgumentError(
        "config update: quant_step must be a positive finite f32");
  }
  if ((msg.fields & kCfgLplInterval) && msg.lpl_interval <= 0) {
    return InvalidArgumentError("config update: lpl_interval must be positive");
  }
  return OkStatus();
}

}  // namespace presto
