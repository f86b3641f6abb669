#include "src/sensor/protocol.h"

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

}  // namespace presto
