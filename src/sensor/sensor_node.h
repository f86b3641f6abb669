// The PRESTO sensor (paper §4): "simple, yet highly tunable, and completely controlled
// by the proxy."
//
// Responsibilities:
//  - sense on a fixed period (proxy-tunable), stamping samples with a drifting local
//    clock;
//  - archive every sample in the local flash store (energy-efficient archival
//    file-system with a time index and wavelet multi-resolution aging);
//  - run the currently configured push policy:
//      * model-driven: check each sample against the proxy-installed model, push only
//        deviations beyond the tolerance (the paper's headline mechanism);
//      * value-driven / batched / every-sample: the Figure 2 and Table 1 baselines;
//  - answer archive pulls (cache-miss-triggered PAST queries) from flash;
//  - apply ModelUpdate/ConfigUpdate control traffic (adaptive runtime: duty cycle,
//    batching, compression, sensing rate — the query-sensor matching knobs).
//
// Everything the node does is charged to its EnergyMeter: radio via the network MAC,
// flash via the device model, CPU via per-operation costs of model checks and codecs.

#ifndef SRC_SENSOR_SENSOR_NODE_H_
#define SRC_SENSOR_SENSOR_NODE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/flash/archive_store.h"
#include "src/flash/flash_device.h"
#include "src/index/time_sync.h"
#include "src/models/model.h"
#include "src/net/network.h"
#include "src/sensor/protocol.h"
#include "src/sim/timer.h"
#include "src/wavelet/codec.h"

namespace presto {

struct SensorNodeConfig {
  NodeId id = 0;
  NodeId proxy_id = 0;
  Duration sensing_period = Seconds(31);

  PushPolicy policy = PushPolicy::kModelDriven;
  double value_delta = 1.0;      // value-driven threshold
  double model_tolerance = 0.5;  // model-driven threshold (until proxy overrides)
  Duration batch_interval = Minutes(16.5);
  bool compress = false;
  CodecParams codec;

  // Local clock imperfection (corrected proxy-side; see index/time_sync.h).
  Duration clock_offset = 0;
  double drift_ppm = 0.0;
  Duration clock_jitter = Millis(2);

  FlashParams flash;
  ArchiveParams archive;
  ModelConfig model_config;

  NodeRadioConfig radio;  // powered=false for real sensors
  uint64_t seed = 1;
};

class SensorNode : public NetNode {
 public:
  // Reads the physical world at true simulation time (measurement noise included).
  using MeasureFn = std::function<double(SimTime)>;

  // Attaches itself to `net` as `config.id`. `sim` and `net` must outlive the node.
  SensorNode(Simulator* sim, Network* net, const SensorNodeConfig& config,
             MeasureFn measure);

  // Begins the sensing loop (first sample after one sensing period).
  void Start();
  void Stop();

  // Pins this sensor's self-scheduled events (sensing + batch timers) to a simulator
  // lane; the deployment binds lane = the home shard's lane. Call before Start().
  void BindLane(int lane) {
    sensing_timer_.BindLane(lane);
    batch_timer_.BindLane(lane);
  }

  // Moves a running sensor's timers to a new lane, preserving absolute fire times
  // (sensing phase does not shift). Control context only — the deployment calls
  // this at the barrier where a migrated sensor's lane membership changes.
  void RebindLane(int lane) {
    sensing_timer_.Rebind(lane);
    batch_timer_.Rebind(lane);
  }

  void OnMessage(const Message& message) override;

  // Re-points pushes/replies at a new proxy (ownership migration or failover
  // promotion: the acting owner takes over this sensor's reporting).
  void SetProxy(NodeId proxy_id) { config_.proxy_id = proxy_id; }

  struct Stats {
    uint64_t samples = 0;
    uint64_t pushes = 0;           // push messages sent
    uint64_t pushed_samples = 0;   // samples contained in those pushes
    uint64_t suppressed = 0;       // samples the model/value filter held back
    uint64_t model_checks = 0;
    uint64_t model_updates = 0;
    uint64_t config_updates = 0;
    uint64_t archive_queries = 0;
    uint64_t compressed_bytes = 0; // payload bytes after compression
    uint64_t uncompressed_bytes = 0;  // what those payloads would cost raw

    template <class S, class F, CkptSelf<S, Stats> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.samples);
      f(v.pushes);
      f(v.pushed_samples);
      f(v.suppressed);
      f(v.model_checks);
      f(v.model_updates);
      f(v.config_updates);
      f(v.archive_queries);
      f(v.compressed_bytes);
      f(v.uncompressed_bytes);
    }
  };

  // Checkpoint codec: proxy-tunable config fields, flash + archive + clock, timers,
  // the installed model (full precision), batch buffer, push state, meter and stats.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

  const Stats& stats() const { return stats_; }
  const EnergyMeter& meter() const { return meter_; }
  EnergyMeter* meter_mut() { return &meter_; }
  const SensorNodeConfig& config() const { return config_; }
  ArchiveStore& archive() { return archive_; }
  const PredictiveModel* model() const { return model_.get(); }
  DriftingClock& clock() { return clock_; }

 private:
  // Proxy-tunable config fields first (everything ModelUpdate/ConfigUpdate/SetProxy
  // touch).
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.config_.proxy_id);
    f(self.config_.sensing_period);
    f(self.config_.policy);
    f(self.config_.value_delta);
    f(self.config_.model_tolerance);
    f(self.config_.batch_interval);
    f(self.config_.compress);
    f(self.config_.codec);
    f(self.meter_);
    f(self.flash_);
    f(self.archive_);
    f(self.clock_);
    f(self.sensing_timer_);
    f(self.batch_timer_);
    f(CkptModel(self.model_, self.config_.model_config));
    f(self.model_seq_);
    f(self.has_pushed_value_);
    f(self.last_pushed_value_);
    f(self.batch_buffer_);
    f(self.stats_);
  }

  void OnSensingTick();
  void FlushBatch();
  void PushSamples(PushReason reason, const std::vector<Sample>& local_samples);
  void HandleModelUpdate(const Message& message);
  void HandleConfigUpdate(const Message& message);
  void HandleArchiveQuery(const Message& message);
  void ChargeCpu(int64_t ops);
  std::vector<uint8_t> EncodeBatchPayload(const std::vector<Sample>& local_samples,
                                          bool try_compress);

  // Member order is cache layout: a sensing tick (the timer's fire and
  // OnSensingTick) reads the head of config_ (policy and tolerances lead it), then
  // one run of lines from sim_ through the head of archive_ (its append state leads
  // it). The timers register as simulator sinks in construction order, sensing
  // before batch, which checkpoints name them by.
  SensorNodeConfig config_;
  FlashDevice flash_;  // only stores &meter_ here; archive_ needs it built first

  Simulator* sim_;
  PeriodicTimer sensing_timer_;
  MeasureFn measure_;
  DriftingClock clock_;
  EnergyMeter meter_;
  std::unique_ptr<PredictiveModel> model_;  // null until the proxy installs one
  bool has_pushed_value_ = false;
  double last_pushed_value_ = 0.0;
  Stats stats_;
  ArchiveStore archive_;

  Network* net_;
  PeriodicTimer batch_timer_;
  uint32_t model_seq_ = 0;
  std::vector<Sample> batch_buffer_;  // local-time samples awaiting a batch flush
};

}  // namespace presto

#endif  // SRC_SENSOR_SENSOR_NODE_H_
