// Tiered sensor-network fabric: low-power wireless links between sensors and their
// proxy, wired links between proxies.
//
// Wireless transfers follow a B-MAC-style low-power-listening (LPL) MAC:
//  - Unpowered receivers sleep and sample the channel every `lpl_interval`; reaching one
//    costs the sender a preamble spanning that interval, and delivery waits for it.
//    This is the duty-cycling knob the PRESTO proxy tunes from query latency needs (§3).
//  - Powered receivers (tethered proxies) listen continuously; senders use a short
//    preamble.
//  - A message larger than one frame is sent as a burst; only the first frame pays the
//    rendezvous preamble, later frames ride the awake receiver. Fewer bursts and fewer
//    frames are exactly the per-packet overheads (preamble/header/ACK) that the paper's
//    Figure 2 attributes batching gains to.
//  - After a burst, an unpowered sender keeps its radio in receive mode for
//    `post_burst_listen`, giving the proxy a cheap rendezvous for feedback (model
//    parameters, reconfiguration, queries) — the paper's "active interaction" pattern.
//  - Frames are lost independently with a per-link probability; each frame is ACKed and
//    retried up to `max_retries`, after which the whole message is dropped.
//
// All sender/receiver energy is charged to the nodes' EnergyMeters; idle costs (sleep +
// LPL channel sampling) accrue per configured interval via SettleIdleEnergy().
//
// Shard-lane routing: every node carries a simulator lane (SetNodeLane; the
// deployment pins it to the node's acting owner's shard; unpinned nodes live on the
// control lane). Sends execute in the
// caller's lane and touch only sender-side state plus barrier-stable reads of the
// receiver (powered flag, LPL config, down flag); delivery executes as a typed kFrame
// event in the *receiver's* lane (via the simulator mailbox when lanes differ).
// Receiver-side radio effects of a cross-lane burst — listen/ACK energy and the
// post-burst listen window — ride the kFrame event instead of being applied at send
// time, and a cross-lane sender conservatively assumes an unpowered receiver is asleep
// (full-preamble rendezvous) rather than reading its live listen window. Loss draws,
// aggregate stats, and per-link coalescing state are all per-lane (independent seeded
// streams), so lane execution shares no mutable state and replays are bit-identical
// regardless of worker count.
//
// Lookups: the node, wired-link and link-loss tables are id-indexed flat hash tables
// (src/util/id_map.h, memory O(entries)), so a send costs O(1) table probes, not
// four tree walks. They change only in AttachNode, ConnectWired, SetLinkLoss and
// LoadState, all control context; lanes only read them (a node's own fields are
// written by the lane that owns it). Checkpoints and idle settlement walk nodes in
// ascending id order.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/net/energy.h"
#include "src/net/radio.h"
#include "src/sim/simulator.h"
#include "src/util/id_map.h"
#include "src/util/rng.h"

namespace presto {

using NodeId = uint32_t;

struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  uint16_t type = 0;  // application-defined discriminator
  std::vector<uint8_t> payload;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
};

// Implemented by anything attached to the network (sensors, proxies).
class NetNode {
 public:
  virtual ~NetNode() = default;
  virtual void OnMessage(const Message& message) = 0;
};

struct NodeRadioConfig {
  // Tethered: always listening, energy unmetered.
  bool powered = false;
  Duration lpl_interval = Seconds(1);       // LPL check period when unpowered
  Duration post_burst_listen = Seconds(5);  // stay-awake window after sending a burst
};

template <class S, class F, CkptSelf<S, NodeRadioConfig> = 0>
void CkptFields(S& v, F&& f) {
  f(v.powered);
  f(v.lpl_interval);
  f(v.post_burst_listen);
}

struct NetworkParams {
  RadioParams radio = Cc1000Radio();
  int max_retries = 5;
  // Per-frame loss probability unless SetLinkLoss overrides.
  double default_frame_loss = 0.0;
  Duration wired_latency = Millis(2);
  double wired_bit_rate_bps = 1e6;
  // SendBatched coalescing window: same-destination messages enqueued within this
  // epoch ride one radio transaction (one rendezvous preamble, one burst). 0 disables
  // coalescing — SendBatched degenerates to Send.
  Duration batch_epoch = 0;
};

template <class S, class F, CkptSelf<S, NetworkParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.radio);
  f(v.max_retries);
  f(v.default_frame_loss);
  f(v.wired_latency);
  f(v.wired_bit_rate_bps);
  f(v.batch_epoch);
}

// Network's construction rules (InvalidArgument when broken).
Status Validate(const NetworkParams& params);

struct NodeNetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t messages_dropped = 0;  // sent by this node, never delivered
  uint64_t bursts = 0;
  uint64_t frames_sent = 0;  // includes retransmissions
  uint64_t frame_retries = 0;
  uint64_t bytes_sent = 0;         // payload + per-frame overhead actually radiated
  uint64_t cross_lane_sends = 0;   // radio sends that crossed a lane boundary
};

template <class S, class F, CkptSelf<S, NodeNetStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.messages_sent);
  f(v.messages_received);
  f(v.messages_dropped);
  f(v.bursts);
  f(v.frames_sent);
  f(v.frame_retries);
  f(v.bytes_sent);
  f(v.cross_lane_sends);
}

struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t frames_sent = 0;
  uint64_t frame_retries = 0;
  uint64_t wired_messages = 0;
  uint64_t batch_flushes = 0;      // coalesced transactions actually radiated
  uint64_t batched_messages = 0;   // application messages that rode a shared flush
  uint64_t batches_abandoned = 0;  // pending batches dropped because an endpoint died
  uint64_t cross_lane_sends = 0;   // radio sends whose receiver lived in another lane
};

template <class S, class F, CkptSelf<S, NetStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.messages_sent);
  f(v.messages_delivered);
  f(v.messages_dropped);
  f(v.frames_sent);
  f(v.frame_retries);
  f(v.wired_messages);
  f(v.batch_flushes);
  f(v.batched_messages);
  f(v.batches_abandoned);
  f(v.cross_lane_sends);
}

class Network : public EventSink {
 public:
  // Lane contexts are sized off `sim`'s lane count.
  Network(Simulator* sim, NetworkParams params, uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a node. `meter` may be null (energy not tracked, e.g. powered proxies).
  // `node` must outlive the network or be detached before destruction.
  void AttachNode(NodeId id, NetNode* node, const NodeRadioConfig& config,
                  EnergyMeter* meter);

  // Pins the node's events (deliveries, receive-side radio effects) to a simulator
  // lane. The deployment assigns lane = home shard at build time; a long-lived
  // ownership change re-binds the lane at a barrier with RebindNodeLane (short-lived
  // failover traffic simply crosses lanes). Call from control context.
  void SetNodeLane(NodeId id, int lane);
  int NodeLane(NodeId id) const;

  // Barrier-time lane re-binding: re-pins the node to `new_lane` and hands pending
  // work over — queued/undrained kFrame deliveries for the node move lane
  // (preserving delivery times), and coalescing batches the node opened in its old
  // lane context migrate with their flush times intact. Control context only.
  void RebindNodeLane(NodeId id, int new_lane);

  // Declares a wired (tethered) pair; messages between them use the wired path with
  // `latency` propagation delay (< 0: the params_.wired_latency default).
  void ConnectWired(NodeId a, NodeId b, Duration latency = -1);

  // Minimum propagation latency over wired links whose live endpoints sit in
  // different lanes, or -1 when no such link exists (a single live proxy, or every
  // wired pair sharing a lane). This is the conservative lookahead bound for the
  // wired mesh: with sim epoch <= this, a barrier always lands between a cross-lane
  // wired send and its delivery, so the mailbox clamp never defers it (sub-epoch
  // latency stays faithful). Recomputed lazily; mutations (kill/revive/lane
  // re-bind/link change) invalidate the cache. Control context only.
  Duration MinCrossLaneWiredLatency() const;

  // Sets the symmetric per-frame loss probability between two nodes.
  void SetLinkLoss(NodeId a, NodeId b, double per_frame_loss);

  // Failure injection: a down node neither receives nor sends (sends are dropped after
  // the sender pays for its futile retries). Marking a node down abandons any pending
  // coalescing batches it is an endpoint of — their flush timers are cancelled so a
  // dead proxy's queued epoch traffic neither fires nor skews drop/fingerprint counts;
  // the batches are tallied under stats().batches_abandoned instead. Control/barrier
  // context only (mutations execute with every lane idle).
  void SetNodeDown(NodeId id, bool down);
  bool IsNodeDown(NodeId id) const;

  // Duty-cycle adaptation: changes a node's LPL check interval (charging idle energy
  // accrued so far at the old rate).
  void SetLplInterval(NodeId id, Duration interval);
  Duration LplInterval(NodeId id) const;

  // Sends `payload` from src to dst. Cost, loss, latency are simulated; on success
  // dst->OnMessage fires at the computed delivery time, in dst's lane.
  void Send(NodeId src, NodeId dst, uint16_t type, std::vector<uint8_t> payload);

  // Like Send, but same-(src,dst) messages enqueued within `params.batch_epoch` of the
  // first one coalesce into a single radio transaction: one preamble rendezvous, one
  // burst, one wired frame — exactly the per-transaction overheads the paper's Figure 2
  // attributes batching gains to. Delivery still invokes dst->OnMessage once per
  // application message, in enqueue order. With batch_epoch == 0 this is Send.
  // Coalescing state is per-lane: a link whose sends come from both a lane and the
  // control context (barrier-time snapshots) keeps independent windows per context.
  void SendBatched(NodeId src, NodeId dst, uint16_t type, std::vector<uint8_t> payload);

  // Charges sleep + LPL sampling energy up to Now for all unpowered nodes. Call before
  // reading meters at the end of a run (idempotent; may be called mid-run). Control
  // context only.
  void SettleIdleEnergy();

  // Deterministic closed-form estimate of the *sensor-side* radio energy one archive
  // pull costs: the expected LPL rendezvous on the request (half a preamble of
  // listening plus frame reception and ACK transmissions) plus the reply burst
  // (short-preamble transmission to the powered proxy, ACK listening, and the
  // post-burst stay-awake window). Loss-free expected value — it attributes energy
  // per query without perturbing any rng stream, so per-query accounting stays
  // replay-identical. Used by the query driver's J/query attribution.
  double EstimatePullEnergyJ(NodeId sensor_id, size_t request_bytes,
                             size_t reply_bytes) const;

  // Aggregated over all lane contexts. Control context only.
  const NetStats& stats() const;
  const NodeNetStats& node_stats(NodeId id) const;
  const NetworkParams& params() const { return params_; }

  void OnSimEvent(EventKind kind, EventPayload& payload) override;
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override;

  // Checkpoint: per-node radio state (down/lane/busy/listen windows/energy
  // checkpoints/stats), link tables, and every lane context (rng stream, stats,
  // open coalescing batches with their queued messages and absolute flush times).
  // In-flight kFrame deliveries live in the simulator's queues, not here; batch
  // flush handles are re-captured via OnEventRestored. Control context only.
  Status SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  struct NodeState {
    NetNode* handler = nullptr;
    NodeRadioConfig config;
    EnergyMeter* meter = nullptr;  // null => unmetered
    bool down = false;
    int lane = Simulator::kLaneControl;
    SimTime busy_until = 0;           // sender-side serialization of bursts
    SimTime listen_until = 0;         // end of current post-burst listen window
    SimTime listen_charged_until = 0; // listen energy already charged up to here
    SimTime idle_checkpoint = 0;      // idle energy settled up to here
    NodeNetStats stats;

    // The handler and meter are wiring, not state.
    template <class S, class F, CkptSelf<S, NodeState> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.config);
      f(v.down);
      f(v.lane);
      f(v.busy_until);
      f(v.listen_until);
      f(v.listen_charged_until);
      f(v.idle_checkpoint);
      f(v.stats);
    }
  };

  // A sub-message waiting in a per-link coalescing queue. `enqueued_at` rides the
  // batch frame so receivers see the original hand-over time as Message::sent_at —
  // time-sync beacons must not absorb coalescing queue delay as clock offset.
  struct QueuedMessage {
    uint16_t type = 0;
    std::vector<uint8_t> payload;
    SimTime enqueued_at = 0;

    template <class S, class F, CkptSelf<S, QueuedMessage> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.type);
      f(v.payload);
      f(v.enqueued_at);
    }
  };
  struct PendingBatch {
    std::vector<QueuedMessage> queued;
    // Not saved: stale until the simulator restores the kBatchFlush event and
    // OnEventRestored re-captures it.
    EventHandle flush;
    SimTime flush_at = 0;  // absolute flush time (preserved across lane re-binds)

    template <class S, class F, CkptSelf<S, PendingBatch> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.flush_at);
      f(v.queued);
    }
  };
  // Everything a concurrently executing lane mutates, sharded per lane so parallel
  // execution shares nothing: loss/rendezvous draws, aggregate counters, coalescing
  // windows. Index 0 is the control context.
  struct LaneCtx {
    Pcg32 rng;
    NetStats stats;
    std::map<std::pair<NodeId, NodeId>, PendingBatch> batches;
    explicit LaneCtx(Pcg32 r) : rng(r) {}

    template <class S, class F, CkptSelf<S, LaneCtx> = 0>
    friend void CkptFields(S& v, F&& f) {
      f(v.rng);
      f(v.stats);
      f(v.batches);
    }
  };

  NodeState& GetNode(NodeId id);
  const NodeState& GetNode(NodeId id) const;
  LaneCtx& Ctx();
  double LinkLoss(NodeId a, NodeId b) const;
  void ChargeIdle(NodeState& node);
  void ChargeListenWindow(NodeState& node, SimTime from, SimTime until);
  void SendWired(NodeState& src, NodeState& dst, Message message, Duration latency);
  void FlushBatch(NodeId src, NodeId dst);
  // Schedules the typed kFrame event that delivers `message` (and/or applies deferred
  // receiver-side radio effects) in dst's lane at `at`.
  void ScheduleFrame(NodeState& dst, Message message, SimTime at, bool deliver,
                     bool charge, double listen_s, double tx_s);
  // Hands a delivered message to the node, unpacking coalesced batch frames into their
  // constituent application messages (delivered in enqueue order).
  void Deliver(NodeState& dst, const Message& message);

  Simulator* sim_;
  NetworkParams params_;
  std::vector<LaneCtx> ctx_;  // [0] control, [1 + lane] per worker lane
  IdMap<NodeState> nodes_;
  // Keyed by LinkKey(a, b): the unordered pair, smaller id in the high half.
  IdMap<double> link_loss_;
  IdMap<Duration> wired_;  // propagation latency
  mutable Duration min_cross_lane_wired_ = -1;
  mutable bool min_wired_dirty_ = true;
  mutable NetStats stats_agg_;  // materialized by stats()
};

// Reserved message type for coalesced batch frames (application types stay below it).
constexpr uint16_t kBatchFrameType = 0xFFFF;

}  // namespace presto

#endif  // SRC_NET_NETWORK_H_
