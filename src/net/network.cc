#include "src/net/network.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "src/util/assert.h"
#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"

namespace presto {
namespace {

// Link-table key of an unordered node pair: smaller id high, so ascending keys walk
// the pairs in the order a std::map of ordered pairs does.
uint64_t LinkKey(NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

// The std::map a link table checkpoints as, and back.
template <typename V>
std::map<std::pair<NodeId, NodeId>, V> LinkMap(const IdMap<V>& table) {
  std::map<std::pair<NodeId, NodeId>, V> out;
  for (const uint64_t key : table.SortedKeys()) {
    out.emplace(std::make_pair(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key)),
                *table.Find(key));
  }
  return out;
}

template <typename V>
void ReadLinkTable(ByteReader& r, IdMap<V>& table) {
  std::map<std::pair<NodeId, NodeId>, V> links;
  CkptRead(r, links);
  if (!r.ok()) {
    return;
  }
  table.Clear();
  for (const auto& [pair, value] : links) {
    table[LinkKey(pair.first, pair.second)] = value;
  }
}

uint64_t PackIds(NodeId src, NodeId dst) {
  return static_cast<uint64_t>(src) | (static_cast<uint64_t>(dst) << 32);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// kFrame payload.b flag bits (above the 16-bit message type).
constexpr uint64_t kFrameDeliver = 1ull << 16;  // hand the message to the receiver
constexpr uint64_t kFrameCharge = 1ull << 17;   // apply deferred receiver radio costs

// One coalesced message of a kBatchFrameType frame; the frame's payload is a vector
// of these (varint count, then each record).
struct BatchEntry {
  uint16_t type = 0;
  Duration queue_delay = 0;  // how long it waited for the flush
  std::vector<uint8_t> payload;

  template <class S, class F, CkptSelf<S, BatchEntry> = 0>
  friend void CkptFields(S& v, F&& f) {
    f(CkptFixed(v.type));
    f(CkptVarBits(v.queue_delay));
    f(v.payload);
  }
};

}  // namespace

Status Validate(const NetworkParams& params) {
  if (params.max_retries < 0) {
    return InvalidArgumentError("net: max_retries must not be negative");
  }
  return OkStatus();
}

Network::Network(Simulator* sim, NetworkParams params, uint64_t seed)
    : sim_(sim), params_(params) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK_OK(Validate(params_));
  // ctx_[0] serves the control lane; each worker lane draws from its own stream,
  // fixed by lane index (not worker count).
  ctx_.emplace_back(Pcg32(seed, /*stream=*/0x4e4554));
  for (int lane = 0; lane < sim_->num_lanes(); ++lane) {
    ctx_.emplace_back(
        Pcg32(seed, /*stream=*/0x4e4554 + 0x100 + static_cast<uint64_t>(lane)));
  }
  sim_->RegisterSink(this);
}

Network::LaneCtx& Network::Ctx() {
  const int lane = sim_->CurrentLane();
  return ctx_[lane == Simulator::kLaneControl ? 0 : static_cast<size_t>(1 + lane)];
}

void Network::AttachNode(NodeId id, NetNode* node, const NodeRadioConfig& config,
                         EnergyMeter* meter) {
  PRESTO_CHECK(node != nullptr);
  NodeState state;
  state.handler = node;
  state.config = config;
  state.meter = meter;
  state.idle_checkpoint = sim_->Now();
  state.listen_charged_until = sim_->Now();
  const bool attached = nodes_.Emplace(id, std::move(state)).second;
  PRESTO_CHECK_MSG(attached, "duplicate node id");
}

void Network::SetNodeLane(NodeId id, int lane) {
  PRESTO_CHECK(lane == Simulator::kLaneControl ||
               (lane >= 0 && lane < sim_->num_lanes()));
  GetNode(id).lane = lane;
  min_wired_dirty_ = true;
}

int Network::NodeLane(NodeId id) const { return GetNode(id).lane; }

void Network::RebindNodeLane(NodeId id, int new_lane) {
  PRESTO_CHECK_MSG(sim_->CurrentLane() == Simulator::kLaneControl,
                   "lane re-binding only from control context");
  PRESTO_CHECK(new_lane == Simulator::kLaneControl ||
               (new_lane >= 0 && new_lane < sim_->num_lanes()));
  NodeState& node = GetNode(id);
  const int old_lane = node.lane;
  if (old_lane == new_lane) {
    return;
  }
  node.lane = new_lane;
  min_wired_dirty_ = true;
  if (old_lane < 0 || new_lane < 0) {
    return;  // control-lane nodes have no per-lane pending state to hand over
  }
  // Pending deliveries for this node all live in its old lane (scheduled there or
  // waiting in its undrained mailboxes): move them, preserving delivery times.
  sim_->RebindMatchingEvents(
      old_lane, new_lane,
      [this, id](EventKind kind, const EventSink* sink, const EventPayload& payload) {
        return kind == EventKind::kFrame && sink == this &&
               static_cast<NodeId>(payload.a >> 32) == id;
      });
  // Coalescing batches the node opened from its old lane migrate contexts so their
  // flushes execute (and their queues live) where the sender now runs. The flush
  // event is re-scheduled at its original absolute time in the new lane.
  LaneCtx& old_ctx = ctx_[static_cast<size_t>(1 + old_lane)];
  LaneCtx& new_ctx = ctx_[static_cast<size_t>(1 + new_lane)];
  for (auto it = old_ctx.batches.begin(); it != old_ctx.batches.end();) {
    if (it->first.first != id) {
      ++it;
      continue;
    }
    PendingBatch batch = std::move(it->second);
    batch.flush.Cancel();
    batch.flush_at = std::max(batch.flush_at, sim_->Now());
    EventPayload flush;
    flush.a = PackIds(it->first.first, it->first.second);
    batch.flush = sim_->ScheduleEventAt(batch.flush_at, EventKind::kBatchFlush, this,
                                        std::move(flush), new_lane);
    const bool inserted =
        new_ctx.batches.emplace(it->first, std::move(batch)).second;
    PRESTO_CHECK_MSG(inserted, "batch already open in the re-bind target lane");
    it = old_ctx.batches.erase(it);
  }
}

void Network::ConnectWired(NodeId a, NodeId b, Duration latency) {
  wired_[LinkKey(a, b)] = latency >= 0 ? latency : params_.wired_latency;
  min_wired_dirty_ = true;
}

Duration Network::MinCrossLaneWiredLatency() const {
  if (!min_wired_dirty_) {
    return min_cross_lane_wired_;
  }
  Duration best = -1;
  for (const uint64_t link : wired_.SortedKeys()) {
    const Duration latency = *wired_.Find(link);
    const NodeState* a = nodes_.Find(link >> 32);
    const NodeState* b = nodes_.Find(link & 0xffffffff);
    if (a == nullptr || b == nullptr) {
      continue;  // link declared before both endpoints attached
    }
    if (a->down || b->down) {
      continue;
    }
    if (a->lane == b->lane) {
      continue;
    }
    if (best < 0 || latency < best) {
      best = latency;
    }
  }
  min_cross_lane_wired_ = best;
  min_wired_dirty_ = false;
  return best;
}

void Network::SetLinkLoss(NodeId a, NodeId b, double per_frame_loss) {
  PRESTO_CHECK(per_frame_loss >= 0.0 && per_frame_loss < 1.0);
  link_loss_[LinkKey(a, b)] = per_frame_loss;
}

void Network::SetNodeDown(NodeId id, bool down) {
  NodeState& node = GetNode(id);
  if (!node.config.powered && !down && node.down) {
    // A rebooting node restarts idle accounting from now.
    node.idle_checkpoint = sim_->Now();
  }
  if (!node.config.powered && down) {
    ChargeIdle(node);
  }
  node.down = down;
  min_wired_dirty_ = true;
  if (down) {
    // Abandon coalescing batches this node is an endpoint of, in every lane context:
    // a dead node's queued epoch traffic must not fire its flush later (inflating
    // messages_dropped and the event fingerprint) — it never reached the radio in the
    // first place. Runs at barriers, so cancelling other lanes' flush events is safe.
    for (LaneCtx& ctx : ctx_) {
      for (auto it = ctx.batches.begin(); it != ctx.batches.end();) {
        if (it->first.first == id || it->first.second == id) {
          it->second.flush.Cancel();
          ++ctx.stats.batches_abandoned;
          it = ctx.batches.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

bool Network::IsNodeDown(NodeId id) const { return GetNode(id).down; }

void Network::SetLplInterval(NodeId id, Duration interval) {
  PRESTO_CHECK(interval > 0);
  NodeState& node = GetNode(id);
  ChargeIdle(node);  // settle at the old rate first
  node.config.lpl_interval = interval;
}

Duration Network::LplInterval(NodeId id) const { return GetNode(id).config.lpl_interval; }

Network::NodeState& Network::GetNode(NodeId id) {
  NodeState* node = nodes_.Find(id);
  PRESTO_CHECK_MSG(node != nullptr, "unknown node id");
  return *node;
}

const Network::NodeState& Network::GetNode(NodeId id) const {
  const NodeState* node = nodes_.Find(id);
  PRESTO_CHECK_MSG(node != nullptr, "unknown node id");
  return *node;
}

double Network::LinkLoss(NodeId a, NodeId b) const {
  const double* loss = link_loss_.Find(LinkKey(a, b));
  return loss != nullptr ? *loss : params_.default_frame_loss;
}

const NetStats& Network::stats() const {
  stats_agg_ = NetStats{};
  for (const LaneCtx& ctx : ctx_) {
    stats_agg_.messages_sent += ctx.stats.messages_sent;
    stats_agg_.messages_delivered += ctx.stats.messages_delivered;
    stats_agg_.messages_dropped += ctx.stats.messages_dropped;
    stats_agg_.frames_sent += ctx.stats.frames_sent;
    stats_agg_.frame_retries += ctx.stats.frame_retries;
    stats_agg_.wired_messages += ctx.stats.wired_messages;
    stats_agg_.batch_flushes += ctx.stats.batch_flushes;
    stats_agg_.batched_messages += ctx.stats.batched_messages;
    stats_agg_.batches_abandoned += ctx.stats.batches_abandoned;
    stats_agg_.cross_lane_sends += ctx.stats.cross_lane_sends;
  }
  return stats_agg_;
}

const NodeNetStats& Network::node_stats(NodeId id) const { return GetNode(id).stats; }

void Network::ChargeIdle(NodeState& node) {
  const SimTime now = sim_->Now();
  if (node.config.powered || node.meter == nullptr || node.down) {
    node.idle_checkpoint = now;
    return;
  }
  const Duration elapsed = now - node.idle_checkpoint;
  if (elapsed <= 0) {
    return;
  }
  // LPL channel sampling: one `lpl_sample` listen per `lpl_interval`.
  const double sample_fraction = static_cast<double>(params_.radio.lpl_sample) /
                                 static_cast<double>(node.config.lpl_interval);
  node.meter->Charge(EnergyComponent::kRadioListen,
                     ToSeconds(elapsed) * sample_fraction * params_.radio.listen_power_w);
  node.meter->Charge(EnergyComponent::kRadioSleep,
                     params_.radio.SleepEnergy(elapsed));
  node.idle_checkpoint = now;
}

void Network::ChargeListenWindow(NodeState& node, SimTime from, SimTime until) {
  if (node.config.powered || node.meter == nullptr) {
    return;
  }
  const SimTime start = std::max(from, node.listen_charged_until);
  if (until <= start) {
    return;
  }
  node.meter->Charge(EnergyComponent::kRadioListen,
                     params_.radio.ListenEnergy(until - start));
  node.listen_charged_until = until;
}

void Network::ScheduleFrame(NodeState& dst, Message message, SimTime at, bool deliver,
                            bool charge, double listen_s, double tx_s) {
  EventPayload payload;
  payload.a = PackIds(message.src, message.dst);
  payload.b = static_cast<uint64_t>(message.type) | (deliver ? kFrameDeliver : 0) |
              (charge ? kFrameCharge : 0);
  payload.c = static_cast<uint64_t>(message.sent_at);
  payload.d = static_cast<uint64_t>(message.delivered_at);
  payload.e = DoubleBits(listen_s);
  payload.f = DoubleBits(tx_s);
  payload.bytes = std::move(message.payload);
  sim_->ScheduleEventAt(at, EventKind::kFrame, this, std::move(payload), dst.lane);
}

void Network::OnSimEvent(EventKind kind, EventPayload& payload) {
  if (kind == EventKind::kBatchFlush) {
    FlushBatch(static_cast<NodeId>(payload.a & 0xffffffff),
               static_cast<NodeId>(payload.a >> 32));
    return;
  }
  PRESTO_CHECK(kind == EventKind::kFrame);
  NodeState& dst = GetNode(static_cast<NodeId>(payload.a >> 32));
  const SimTime burst_end = static_cast<SimTime>(payload.d);
  if ((payload.b & kFrameCharge) != 0 && dst.meter != nullptr &&
      !dst.config.powered && !dst.down) {
    // Receiver-side effects of a cross-lane burst, applied in the receiver's lane at
    // the burst's end: preamble/frame listen time, ACK transmissions, and the
    // post-burst stay-awake window.
    dst.meter->Charge(EnergyComponent::kRadioListen,
                      BitsDouble(payload.e) * params_.radio.listen_power_w);
    dst.meter->Charge(EnergyComponent::kRadioTx,
                      BitsDouble(payload.f) * params_.radio.tx_power_w);
    dst.listen_until =
        std::max(dst.listen_until, burst_end + dst.config.post_burst_listen);
    ChargeListenWindow(dst, burst_end, dst.listen_until);
  }
  if ((payload.b & kFrameDeliver) == 0) {
    return;
  }
  if (dst.down) {
    ++Ctx().stats.messages_dropped;
    return;
  }
  ++Ctx().stats.messages_delivered;
  ++dst.stats.messages_received;
  Message message;
  message.src = static_cast<NodeId>(payload.a & 0xffffffff);
  message.dst = static_cast<NodeId>(payload.a >> 32);
  message.type = static_cast<uint16_t>(payload.b & 0xffff);
  message.payload = std::move(payload.bytes);
  message.sent_at = static_cast<SimTime>(payload.c);
  message.delivered_at = burst_end;
  Deliver(dst, message);
}

void Network::SendWired(NodeState& src, NodeState& dst, Message message,
                        Duration latency) {
  const Duration serialization = static_cast<Duration>(
      static_cast<double>(message.payload.size()) * 8.0 / params_.wired_bit_rate_bps *
      static_cast<double>(kSecond));
  const SimTime deliver_at = sim_->Now() + latency + serialization;
  LaneCtx& ctx = Ctx();
  ++ctx.stats.wired_messages;
  ++ctx.stats.messages_sent;
  ++src.stats.messages_sent;
  message.delivered_at = deliver_at;
  ScheduleFrame(dst, std::move(message), deliver_at, /*deliver=*/true,
                /*charge=*/false, 0.0, 0.0);
}

void Network::Deliver(NodeState& dst, const Message& message) {
  if (message.type != kBatchFrameType) {
    dst.handler->OnMessage(message);
    return;
  }
  ByteReader reader(message.payload);
  std::vector<BatchEntry> entries;
  CkptRead(reader, entries);
  if (!reader.ok() || !reader.AtEnd()) {
    PLOG_WARN("net: undecodable batch frame from %u", message.src);
    return;
  }
  for (BatchEntry& entry : entries) {
    Message sub;
    sub.src = message.src;
    sub.dst = message.dst;
    sub.type = entry.type;
    sub.payload = std::move(entry.payload);
    // The sender handed this message over before the flush; surface that original
    // instant so receivers (e.g. time-sync beacons) don't see queue delay as latency.
    sub.sent_at = message.sent_at - entry.queue_delay;
    sub.delivered_at = message.delivered_at;
    dst.handler->OnMessage(sub);
  }
}

void Network::SendBatched(NodeId src_id, NodeId dst_id, uint16_t type,
                          std::vector<uint8_t> payload) {
  if (params_.batch_epoch <= 0) {
    Send(src_id, dst_id, type, std::move(payload));
    return;
  }
  PendingBatch& batch = Ctx().batches[{src_id, dst_id}];
  batch.queued.push_back(QueuedMessage{type, std::move(payload), sim_->Now()});
  if (batch.queued.size() == 1) {
    // The epoch opens at the first enqueue; later arrivals ride the same flush. The
    // flush fires in the scheduling lane, where this context's batch map lives.
    EventPayload flush;
    flush.a = PackIds(src_id, dst_id);
    batch.flush_at = sim_->Now() + params_.batch_epoch;
    batch.flush = sim_->ScheduleEventAt(batch.flush_at, EventKind::kBatchFlush, this,
                                        std::move(flush));
  }
}

void Network::FlushBatch(NodeId src_id, NodeId dst_id) {
  LaneCtx& ctx = Ctx();
  auto it = ctx.batches.find({src_id, dst_id});
  if (it == ctx.batches.end() || it->second.queued.empty()) {
    return;
  }
  auto queued = std::move(it->second.queued);
  it->second.flush.Cancel();
  ctx.batches.erase(it);
  if (queued.size() == 1) {
    Send(src_id, dst_id, queued[0].type, std::move(queued[0].payload));
    return;
  }
  std::vector<BatchEntry> entries;
  entries.reserve(queued.size());
  for (QueuedMessage& sub : queued) {
    entries.push_back(
        BatchEntry{sub.type, sim_->Now() - sub.enqueued_at, std::move(sub.payload)});
  }
  ByteWriter writer;
  CkptWrite(writer, entries);
  ++ctx.stats.batch_flushes;
  ctx.stats.batched_messages += queued.size();
  Send(src_id, dst_id, kBatchFrameType, writer.TakeBuffer());
}

void Network::Send(NodeId src_id, NodeId dst_id, uint16_t type,
                   std::vector<uint8_t> payload) {
  NodeState& src = GetNode(src_id);
  NodeState& dst = GetNode(dst_id);
  LaneCtx& ctx = Ctx();

  Message message;
  message.src = src_id;
  message.dst = dst_id;
  message.type = type;
  message.payload = std::move(payload);
  message.sent_at = sim_->Now();

  if (src.down) {
    // A dead node cannot transmit; silently drop (caller logic should not be reached).
    ++ctx.stats.messages_dropped;
    return;
  }

  if (const Duration* wired = wired_.Find(LinkKey(src_id, dst_id))) {
    SendWired(src, dst, std::move(message), *wired);
    return;
  }

  const RadioParams& radio = params_.radio;
  const double loss = LinkLoss(src_id, dst_id);
  // A send executing inside a worker lane may only touch the receiver's state if the
  // receiver lives in the same lane; otherwise receiver-side effects defer to the
  // kFrame event and the rendezvous is computed without reading the live receiver.
  const int current_lane = sim_->CurrentLane();
  const bool cross_lane =
      current_lane != Simulator::kLaneControl && dst.lane != current_lane;

  ++ctx.stats.messages_sent;
  ++src.stats.messages_sent;
  ++src.stats.bursts;
  if (cross_lane) {
    // The observable the re-binder drives to ~zero: a migrated sensor that has been
    // re-bound stops paying the conservative cross-lane rendezvous.
    ++ctx.stats.cross_lane_sends;
    ++src.stats.cross_lane_sends;
  }

  // Burst start: after any transmission already in progress from this sender.
  SimTime t = std::max(sim_->Now(), src.busy_until);

  // --- Rendezvous: how long a preamble must the first frame carry? ---
  // Cross-lane sends to an unpowered receiver conservatively assume it is asleep: its
  // live post-burst listen window belongs to another lane mid-epoch.
  bool receiver_awake =
      dst.config.powered || (!cross_lane && t < dst.listen_until);
  Duration preamble;
  Duration receiver_preamble_rx = 0;  // portion of the preamble the receiver listens to
  if (receiver_awake) {
    preamble = radio.TimeOnAir(radio.short_preamble_bytes);
    receiver_preamble_rx = preamble;
  } else {
    // B-MAC: preamble spans the receiver's LPL check interval; the receiver's periodic
    // channel sample catches it at a uniformly random point and stays on till the data.
    preamble = dst.config.lpl_interval;
    receiver_preamble_rx =
        static_cast<Duration>(ctx.rng.NextDouble() * static_cast<double>(preamble));
  }

  t += radio.turnaround;
  double src_tx_s = ToSeconds(preamble);
  double src_listen_s = 0.0;
  double dst_listen_s = ToSeconds(receiver_preamble_rx);
  double dst_tx_s = 0.0;
  t += preamble;

  // --- Frames ---
  const int total_bytes = static_cast<int>(message.payload.size());
  const int frames = radio.FramesFor(total_bytes);
  const Duration ack_time = radio.TimeOnAir(radio.ack_bytes);
  bool delivered = true;
  for (int f = 0; f < frames && delivered; ++f) {
    const int chunk = std::min(radio.max_payload_bytes,
                               total_bytes - f * radio.max_payload_bytes);
    const int frame_bytes = radio.frame_header_bytes + std::max(chunk, 0) +
                            radio.frame_crc_bytes +
                            (f > 0 ? radio.short_preamble_bytes : 0);
    const Duration frame_time = radio.TimeOnAir(frame_bytes);

    bool frame_acked = false;
    for (int attempt = 0; attempt <= params_.max_retries; ++attempt) {
      ++ctx.stats.frames_sent;
      ++src.stats.frames_sent;
      src.stats.bytes_sent += static_cast<uint64_t>(frame_bytes);
      if (attempt > 0) {
        ++ctx.stats.frame_retries;
        ++src.stats.frame_retries;
      }
      t += frame_time;
      src_tx_s += ToSeconds(frame_time);
      dst_listen_s += ToSeconds(frame_time);

      const bool frame_ok = !dst.down && !ctx.rng.Bernoulli(loss);
      // ACK exchange: receiver turns around and answers; ACKs are short, so give them a
      // quarter of the frame loss probability.
      t += radio.turnaround + ack_time;
      src_listen_s += ToSeconds(ack_time);
      dst_tx_s += ToSeconds(ack_time);
      const bool ack_ok = frame_ok && !ctx.rng.Bernoulli(loss / 4.0);
      if (ack_ok) {
        frame_acked = true;
        break;
      }
    }
    if (!frame_acked) {
      delivered = false;
    }
  }

  // --- Post-burst listen window (unpowered senders await proxy feedback) ---
  const SimTime burst_end = t;
  src.busy_until = burst_end;

  if (src.meter != nullptr && !src.config.powered) {
    src.meter->Charge(EnergyComponent::kRadioTx, src_tx_s * radio.tx_power_w);
    src.meter->Charge(EnergyComponent::kRadioListen, src_listen_s * radio.listen_power_w);
    src.listen_until = std::max(src.listen_until,
                                burst_end + src.config.post_burst_listen);
    ChargeListenWindow(src, burst_end, src.listen_until);
  }
  const bool dst_metered = dst.meter != nullptr && !dst.config.powered;
  if (!cross_lane && dst_metered && !dst.down) {
    dst.meter->Charge(EnergyComponent::kRadioListen, dst_listen_s * radio.listen_power_w);
    dst.meter->Charge(EnergyComponent::kRadioTx, dst_tx_s * radio.tx_power_w);
    // A receiver that was woken stays awake for its own feedback window, making an
    // immediate reply cheap (the "active interaction" in §2 of the paper).
    dst.listen_until = std::max(dst.listen_until,
                                burst_end + dst.config.post_burst_listen);
    ChargeListenWindow(dst, burst_end, dst.listen_until);
  }

  if (!delivered) {
    ++ctx.stats.messages_dropped;
    ++src.stats.messages_dropped;
    PLOG_DEBUG("net: message %u->%u type=%u dropped after retries", src_id, dst_id, type);
    if (cross_lane && dst_metered) {
      // The receiver still listened to the failed burst; charge it in its own lane.
      Message charge_only;
      charge_only.src = src_id;
      charge_only.dst = dst_id;
      charge_only.delivered_at = burst_end;
      ScheduleFrame(dst, std::move(charge_only), burst_end, /*deliver=*/false,
                    /*charge=*/true, dst_listen_s, dst_tx_s);
    }
    return;
  }

  message.delivered_at = burst_end;
  ScheduleFrame(dst, std::move(message), burst_end, /*deliver=*/true,
                /*charge=*/cross_lane && dst_metered, dst_listen_s, dst_tx_s);
}

Status Network::SaveState(ByteWriter& w) const {
  CkptWrite(w, static_cast<uint64_t>(nodes_.size()));
  for (const uint64_t id : nodes_.SortedKeys()) {
    CkptWrite(w, static_cast<NodeId>(id));
    CkptWrite(w, *nodes_.Find(id));
  }
  CkptWrite(w, LinkMap(link_loss_));
  CkptWrite(w, LinkMap(wired_));
  CkptWrite(w, static_cast<uint64_t>(ctx_.size()));
  for (const LaneCtx& ctx : ctx_) {
    CkptWrite(w, ctx);
  }
  return OkStatus();
}

// The node table and the lane contexts exist before a restore (wiring and lane
// count are construction), so they read in place, checked against the saved ids.
void Network::LoadState(ByteReader& r) {
  uint64_t node_count = 0;
  CkptRead(r, node_count);
  if (node_count != nodes_.size()) {
    return r.Fail(FailedPreconditionError("net restore: node table mismatch"));
  }
  for (const uint64_t id : nodes_.SortedKeys()) {
    NodeId saved_id = 0;
    CkptRead(r, saved_id);
    if (saved_id != id) {
      return r.Fail(FailedPreconditionError("net restore: node id mismatch"));
    }
    CkptRead(r, *nodes_.Find(id));
  }
  ReadLinkTable(r, link_loss_);
  ReadLinkTable(r, wired_);
  uint64_t ctx_count = 0;
  CkptRead(r, ctx_count);
  if (ctx_count != ctx_.size()) {
    return r.Fail(FailedPreconditionError("net restore: lane context count mismatch"));
  }
  for (LaneCtx& ctx : ctx_) {
    CkptRead(r, ctx);
  }
  min_wired_dirty_ = true;
}

void Network::OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                              const EventHandle& handle, int lane) {
  if (kind != EventKind::kBatchFlush) {
    return;  // kFrame deliveries carry no handle state
  }
  LaneCtx& ctx =
      ctx_[lane == Simulator::kLaneControl ? 0 : static_cast<size_t>(1 + lane)];
  const std::pair<NodeId, NodeId> pair{static_cast<NodeId>(payload.a & 0xffffffff),
                                       static_cast<NodeId>(payload.a >> 32)};
  auto it = ctx.batches.find(pair);
  if (it != ctx.batches.end()) {
    it->second.flush = handle;
    it->second.flush_at = t;
  }
}

void Network::SettleIdleEnergy() {
  for (const uint64_t id : nodes_.SortedKeys()) {
    ChargeIdle(*nodes_.Find(id));
  }
}

double Network::EstimatePullEnergyJ(NodeId sensor_id, size_t request_bytes,
                                    size_t reply_bytes) const {
  const NodeState& sensor = GetNode(sensor_id);
  if (sensor.config.powered) {
    return 0.0;  // tethered endpoints are unmetered
  }
  const RadioParams& radio = params_.radio;
  // Airtime of a loss-free burst carrying `bytes` of payload: per-frame header/CRC
  // overhead plus the continuation preamble on follow-up frames, and one ACK each.
  const auto burst = [&radio](size_t bytes, Duration& frames_time, Duration& acks_time) {
    const int total = static_cast<int>(bytes);
    const int frames = radio.FramesFor(total);
    frames_time = 0;
    for (int f = 0; f < frames; ++f) {
      const int chunk =
          std::min(radio.max_payload_bytes, total - f * radio.max_payload_bytes);
      frames_time += radio.TimeOnAir(radio.frame_header_bytes + std::max(chunk, 0) +
                                     radio.frame_crc_bytes +
                                     (f > 0 ? radio.short_preamble_bytes : 0));
    }
    acks_time = static_cast<Duration>(frames) * radio.TimeOnAir(radio.ack_bytes);
  };
  Duration request_frames = 0;
  Duration request_acks = 0;
  burst(request_bytes, request_frames, request_acks);
  Duration reply_frames = 0;
  Duration reply_acks = 0;
  burst(reply_bytes, reply_frames, reply_acks);
  // Request leg (proxy -> sleeping sensor): the sensor's channel sample catches the
  // long preamble at a uniformly random point — expected listen is half the LPL
  // interval — then it receives the frames and transmits the ACKs.
  const double request_j =
      radio.ListenEnergy(sensor.config.lpl_interval / 2 + request_frames) +
      radio.TxEnergy(request_acks);
  // Reply leg (sensor -> powered proxy): short-preamble rendezvous, frame
  // transmissions, ACK listening, then the post-burst stay-awake window.
  const double reply_j =
      radio.TxEnergy(radio.TimeOnAir(radio.short_preamble_bytes) + reply_frames) +
      radio.ListenEnergy(reply_acks + sensor.config.post_burst_listen);
  return request_j + reply_j;
}

}  // namespace presto
