#include "src/models/registry.h"

#include "src/models/ar.h"
#include "src/models/markov.h"
#include "src/models/seasonal.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kLastValue:
      return "last-value";
    case ModelType::kSeasonal:
      return "seasonal";
    case ModelType::kAr:
      return "ar";
    case ModelType::kSeasonalAr:
      return "seasonal-ar";
    case ModelType::kMarkov:
      return "markov";
  }
  return "?";
}

std::unique_ptr<PredictiveModel> CreateModel(ModelType type, const ModelConfig& config) {
  switch (type) {
    case ModelType::kLastValue:
      return std::make_unique<LastValueModel>(config);
    case ModelType::kSeasonal:
      return std::make_unique<SeasonalModel>(config);
    case ModelType::kAr:
      return std::make_unique<ArModel>(config);
    case ModelType::kSeasonalAr:
      return std::make_unique<SeasonalArModel>(config);
    case ModelType::kMarkov:
      return std::make_unique<MarkovModel>(config);
  }
  PRESTO_CHECK_MSG(false, "unknown model type");
  return nullptr;
}

void SaveModelState(ByteWriter& w, const PredictiveModel* model) {
  if (model == nullptr) {
    w.WriteU8(0);  // null marker: no model installed yet
    return;
  }
  w.WriteU8(static_cast<uint8_t>(model->type()));
  model->SaveState(w);
}

std::unique_ptr<PredictiveModel> LoadModelState(ByteReader& r,
                                                const ModelConfig& config) {
  const uint8_t tag = r.ReadU8();
  if (!r.ok() || tag == 0) {
    return nullptr;
  }
  if (tag < static_cast<uint8_t>(ModelType::kLastValue) ||
      tag > static_cast<uint8_t>(ModelType::kMarkov)) {
    r.Fail(DataLossError("model restore: unknown type tag"));
    return nullptr;
  }
  std::unique_ptr<PredictiveModel> model =
      CreateModel(static_cast<ModelType>(tag), config);
  model->LoadState(r);
  if (!r.ok()) {
    return nullptr;
  }
  return model;
}

Result<std::unique_ptr<PredictiveModel>> DeserializeModel(span<const uint8_t> bytes,
                                                          const ModelConfig& config) {
  if (bytes.empty()) {
    return InvalidArgumentError("empty model params");
  }
  const uint8_t tag = bytes[0];
  if (tag < static_cast<uint8_t>(ModelType::kLastValue) ||
      tag > static_cast<uint8_t>(ModelType::kMarkov)) {
    return InvalidArgumentError("unknown model type tag");
  }
  std::unique_ptr<PredictiveModel> model =
      CreateModel(static_cast<ModelType>(tag), config);
  PRESTO_RETURN_IF_ERROR(model->Deserialize(bytes));
  return model;
}

}  // namespace presto
