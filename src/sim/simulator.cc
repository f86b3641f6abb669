#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/hash.h"

namespace presto {
namespace {

// Which lane (of which simulator) the calling thread is currently executing. The
// main thread between runs leaves this unset; barrier-time control-lane execution
// sets it to kLaneControl.
struct ThreadLaneContext {
  const Simulator* sim = nullptr;
  int lane = 0;  // external worker lane index
};
thread_local ThreadLaneContext tl_lane_ctx;

}  // namespace

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(lane_, slot_, gen_);
  }
}

Simulator::Simulator(int num_lanes, int threads, Duration epoch)
    : threads_(std::max(1, std::min(threads, num_lanes))), epoch_(epoch) {
  PRESTO_CHECK_MSG(num_lanes >= 0, "negative lane count");
  PRESTO_CHECK_MSG(epoch > 0, "lane epoch must be positive");
  lanes_.assign(static_cast<size_t>(num_lanes) + 1, Lane{});
  for (Lane& lane : lanes_) {
    lane.inbox.resize(static_cast<size_t>(num_lanes));
  }
  pool_ = std::make_unique<ClaimPool>(threads_);
}

void Simulator::SetEpoch(Duration epoch) {
  PRESTO_CHECK_MSG(epoch > 0, "lane epoch must be positive");
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl,
                   "epoch changes only from control context");
  if (epoch == epoch_) {
    return;
  }
  // Re-anchor the absolute grid at the current barrier: every lane has run through
  // global_now_, so barriers after it land on the new grid without ever moving a
  // barrier into the past.
  epoch_anchor_ = global_now_;
  epoch_ = epoch;
}

size_t Simulator::RebindMatchingEvents(
    int from_lane, int to_lane,
    const std::function<bool(EventKind, const EventSink*, const EventPayload&)>&
        match) {
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl,
                   "lane membership changes only at barriers, on the control lane");
  PRESTO_CHECK_MSG(from_lane >= 0 && from_lane < num_lanes(), "bad from_lane");
  PRESTO_CHECK_MSG(to_lane >= 0 && to_lane < num_lanes(), "bad to_lane");
  if (from_lane == to_lane) {
    return 0;
  }
  Lane& src = lanes_[static_cast<size_t>(from_lane)];
  Lane& dst = lanes_[static_cast<size_t>(to_lane)];
  size_t moved = 0;
  // Queue pass: take every entry in (time, seq) order, move matching live entries —
  // delivery times preserved, relative order preserved because the target assigns
  // fresh monotone seqs in that order — and re-link the rest with their original
  // seqs, in that same order, so the source's runs keep the run invariant.
  const std::vector<Pending> entries = InOrder(src);
  src.runs.clear();
  src.queued = 0;
  src.open_tail = kNoSlot;
  for (const Pending& entry : entries) {
    Event& event = src.pool[entry.slot];
    if (event.sink == nullptr) {
      src.free_slots.push_back(entry.slot);  // cancelled: drop it
      continue;
    }
    if (!match(event.kind, event.sink, event.payload)) {
      Link(src, entry.time, entry.slot);
      continue;
    }
    const EventKind kind = event.kind;
    EventSink* sink = event.sink;
    const bool has_payload = event.has_payload;
    EventPayload payload = std::move(event.payload);
    ReleaseSlot(src, entry.slot);  // bumps gen: stale handles become no-ops
    Enqueue(dst, entry.time, kind, sink, has_payload ? &payload : nullptr);
    ++moved;
  }
  // Mailbox pass: mail posted to the old lane during the just-finished epoch has
  // not drained yet (draining happens at the *opening* barrier). Append matching
  // entries to the new lane's same-source FIFO so the next drain delivers them
  // there, in the same (source, FIFO) order contract.
  for (size_t source = 0; source < src.inbox.size(); ++source) {
    std::vector<Mail>& box = src.inbox[source];
    std::vector<Mail> stay;
    for (Mail& mail : box) {
      if (match(mail.kind, mail.sink, mail.payload)) {
        dst.inbox[source].push_back(std::move(mail));
        ++moved;
      } else {
        stay.push_back(std::move(mail));
      }
    }
    box = std::move(stay);
  }
  if (moved > 0) {
    // The re-bind schedule is part of the replay contract, exactly like the
    // mailbox-drain schedule: fold (barrier, route, volume) into the barrier hash.
    MixFp(barrier_hash_, static_cast<uint64_t>(global_now_));
    MixFp(barrier_hash_, (static_cast<uint64_t>(from_lane) << 32) |
                             static_cast<uint64_t>(to_lane));
    MixFp(barrier_hash_, moved);
  }
  return moved;
}

int Simulator::CurrentLane() const {
  if (tl_lane_ctx.sim == this) {
    return tl_lane_ctx.lane;
  }
  return kLaneControl;
}

SimTime Simulator::Now() const {
  if (tl_lane_ctx.sim == this) {
    // kLaneControl is a sentinel, not an index: control events keep
    // CurrentLane() == kLaneControl but read the control lane's own clock, so a
    // control event observes its scheduled time rather than the barrier it
    // happens to execute at.
    const int lane =
        tl_lane_ctx.lane == kLaneControl ? ControlIndex() : tl_lane_ctx.lane;
    return lanes_[static_cast<size_t>(lane)].now;
  }
  return global_now_;
}

int Simulator::ResolveLane(int lane) const {
  if (lane == kLaneCurrent) {
    lane = CurrentLane();
  }
  if (lane == kLaneControl) {
    return ControlIndex();
  }
  PRESTO_CHECK_MSG(lane >= 0 && lane < num_lanes(), "bad lane index");
  return lane;
}

EventHandle Simulator::ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                                       EventPayload payload, int lane) {
  PRESTO_CHECK_MSG(t >= Now(), "cannot schedule into the past");
  PRESTO_CHECK(sink != nullptr);
  return Push(ResolveLane(lane), t, kind, sink, &payload);
}

EventHandle Simulator::ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                                       int lane) {
  PRESTO_CHECK_MSG(t >= Now(), "cannot schedule into the past");
  PRESTO_CHECK(sink != nullptr);
  return Push(ResolveLane(lane), t, kind, sink, nullptr);
}

EventHandle Simulator::Push(int internal_lane, SimTime t, EventKind kind,
                            EventSink* sink, EventPayload* payload) {
  const int current = CurrentLane();
  if (current != kLaneControl && internal_lane != current) {
    // Cross-lane post from a running worker: mailbox, drained (single-writer FIFO,
    // deterministic source order) at the next barrier. Not cancellable.
    Lane& target = lanes_[static_cast<size_t>(internal_lane)];
    target.inbox[static_cast<size_t>(current)].push_back(
        Mail{t, kind, sink, payload != nullptr ? std::move(*payload) : EventPayload{}});
    Lane& source = lanes_[static_cast<size_t>(current)];
    if (source.posted++ == 0 || t < source.earliest_post) {
      source.earliest_post = t;
    }
    return EventHandle();
  }
  if (current == kLaneControl && internal_lane != ControlIndex() && t < global_now_) {
    // A control event observes its own timestamp, which may trail the barrier —
    // but by the time control runs, worker lanes have already replayed up to it.
    // Deliveries into a worker lane clamp forward to the barrier so they can
    // never land in a lane's already-executed past. A lookahead no longer than the
    // delivery's delay keeps the barrier within reach, so the clamp never binds.
    t = global_now_;
  }
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  const uint32_t slot = Enqueue(lane, t, kind, sink, payload);
  return EventHandle(this, internal_lane, slot, lane.pool[slot].gen);
}

uint32_t Simulator::Enqueue(Lane& lane, SimTime t, EventKind kind, EventSink* sink,
                            EventPayload* payload) {
  uint32_t slot;
  if (!lane.free_slots.empty()) {
    slot = lane.free_slots.back();
    lane.free_slots.pop_back();
  } else {
    slot = static_cast<uint32_t>(lane.pool.size());
    lane.pool.emplace_back();
  }
  Event& event = lane.pool[slot];
  event.kind = kind;
  event.sink = sink;
  event.has_payload = payload != nullptr;
  if (event.has_payload) {
    event.payload = std::move(*payload);
  }
  event.seq = lane.next_seq++;
  Link(lane, t, slot);
  return slot;
}

void Simulator::Link(Lane& lane, SimTime t, uint32_t slot) {
  lane.pool[slot].next = kNoSlot;
  ++lane.queued;
  if (lane.open_tail != kNoSlot && lane.open_time == t) {
    lane.pool[lane.open_tail].next = slot;
  } else {
    lane.runs.push_back(Run{t, lane.pool[slot].seq, slot});
    std::push_heap(lane.runs.begin(), lane.runs.end(), RunAfter{});
    lane.open_time = t;
  }
  lane.open_tail = slot;
}

uint32_t Simulator::PopHead(Lane& lane) {
  Run& run = lane.runs.front();
  const uint32_t slot = run.head;
  const uint32_t next = lane.pool[slot].next;
  if (next != kNoSlot) {
    // The key stays (time, first_seq): every later run at this time started after
    // this run's entries were pushed, so its first seq still exceeds them all.
    run.head = next;
  } else {
    if (slot == lane.open_tail) {
      lane.open_tail = kNoSlot;
    }
    std::pop_heap(lane.runs.begin(), lane.runs.end(), RunAfter{});
    lane.runs.pop_back();
  }
  --lane.queued;
  return slot;
}

std::vector<Simulator::Pending> Simulator::InOrder(const Lane& lane) {
  std::vector<Run> runs = lane.runs;
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return RunAfter{}(b, a); });
  std::vector<Pending> entries;
  entries.reserve(lane.queued);
  for (const Run& run : runs) {
    for (uint32_t slot = run.head; slot != kNoSlot; slot = lane.pool[slot].next) {
      entries.push_back(Pending{run.time, slot});
    }
  }
  return entries;
}

void Simulator::CancelEvent(int internal_lane, uint32_t slot, uint32_t gen) {
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  if (slot >= lane.pool.size() || lane.pool[slot].gen != gen) {
    return;  // already fired, cancelled, or the slot moved on to a new generation
  }
  // The slot stays linked into its run until the queue reaches it (ExecuteOne frees
  // it then), so only the event is retired here.
  RetireEvent(lane.pool[slot]);
}

void Simulator::RetireEvent(Event& event) {
  ++event.gen;  // invalidates handles of the old generation
  event.sink = nullptr;
  if (event.has_payload) {
    // Back to EventPayload{}, releasing the buffer: retained capacity would only
    // pin the last frame's allocation.
    event.payload = EventPayload{};
    event.has_payload = false;
  }
}

void Simulator::ReleaseSlot(Lane& lane, uint32_t slot) {
  RetireEvent(lane.pool[slot]);
  lane.free_slots.push_back(slot);
}

void Simulator::MixFp(uint64_t& fp, uint64_t v) const { FnvMix(fp, v); }

bool Simulator::ExecuteOne(Lane& lane) {
  const SimTime time = lane.runs.front().time;
  const uint32_t slot = PopHead(lane);
  Event& event = lane.pool[slot];
  if (event.sink == nullptr) {
    lane.free_slots.push_back(slot);  // cancelled: already retired
    return false;
  }
  lane.now = time;
  ++lane.executed;
  MixFp(lane.fp, static_cast<uint64_t>(time));
  MixFp(lane.fp, event.seq);
  // Move the event out before dispatch: the handler may schedule into this lane and
  // reallocate the pool (and may legitimately reuse this very slot). A bare event
  // has nothing to move: its sink gets a fresh empty payload.
  const EventKind kind = event.kind;
  EventSink* sink = event.sink;
  EventPayload payload;
  if (event.has_payload) {
    payload = std::move(event.payload);
  }
  ReleaseSlot(lane, slot);
  sink->OnSimEvent(kind, payload);
  return true;
}

void Simulator::RunLaneTo(int internal_lane, SimTime end, bool inclusive) {
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  const ThreadLaneContext saved = tl_lane_ctx;
  // Control keeps the kLaneControl sentinel (CurrentLane() must keep reporting
  // control context for the barrier-only mutation checks); Now() maps it back to
  // the control lane's clock.
  tl_lane_ctx = ThreadLaneContext{
      this, internal_lane == ControlIndex() ? kLaneControl : internal_lane};
  while (!lane.runs.empty()) {
    const SimTime top = lane.runs.front().time;
    if (inclusive ? top > end : top >= end) {
      break;
    }
    ExecuteOne(lane);
  }
  tl_lane_ctx = saved;
}

void Simulator::RunEpoch(SimTime end, bool inclusive) {
  const SimTime start = global_now_;
  // 1) Drain mailboxes: for each target lane, source lanes in index order, FIFO
  //    within a source. Arrival times clamp to the barrier (cross-lane granularity).
  //    Sources that posted nothing have empty boxes everywhere and are skipped.
  uint64_t posted = 0;
  for (int source = 0; source < num_lanes(); ++source) {
    posted += lanes_[static_cast<size_t>(source)].posted;
  }
  if (posted > 0) {
    uint64_t drained = 0;
    for (Lane& target : lanes_) {
      for (int source = 0; source < num_lanes(); ++source) {
        if (lanes_[static_cast<size_t>(source)].posted == 0) {
          continue;
        }
        std::vector<Mail>& box = target.inbox[static_cast<size_t>(source)];
        for (Mail& mail : box) {
          Enqueue(target, std::max(mail.time, start), mail.kind, mail.sink,
                  &mail.payload);
        }
        drained += box.size();
        box.clear();
      }
    }
    PRESTO_CHECK(drained == posted);
    for (Lane& lane : lanes_) {
      lane.posted = 0;
    }
    // Barrier-sequence hash: which barrier took delivery of how much cross-lane
    // traffic is part of the replay contract.
    MixFp(barrier_hash_, static_cast<uint64_t>(start));
    MixFp(barrier_hash_, drained);
  }
  // 2) Pre-extend shared lazily-built world state so lanes only read it.
  if (barrier_hook_) {
    barrier_hook_(end);
  }
  // 3) Worker lanes with an event due before the closing barrier; the rest would
  //    find nothing to run.
  const auto due = [&](const Lane& lane) {
    return !lane.runs.empty() &&
           (inclusive ? lane.runs.front().time <= end : lane.runs.front().time < end);
  };
  due_.clear();
  for (int lane = 0; lane < num_lanes(); ++lane) {
    if (due(lanes_[static_cast<size_t>(lane)])) {
      due_.push_back(lane);
    }
  }
  if (!due_.empty()) {
    pool_->Run(static_cast<int>(due_.size()),
               [&](int i) { RunLaneTo(due_[static_cast<size_t>(i)], end, inclusive); });
  }
  // 4) Control lane: mutations and other serial work run at the closing barrier,
  //    with every worker idle and the global clock at `end`. An event scheduled for
  //    time T executes at the first barrier at-or-after T (never before it), but
  //    observes Now() == T — execution is barrier-batched, the logical clock is
  //    not. Deliveries it makes into worker lanes clamp forward to the barrier
  //    (see Push); control-to-control chains keep full time resolution.
  global_now_ = end;
  const Lane& control = lanes_[static_cast<size_t>(ControlIndex())];
  if (!control.runs.empty() && control.runs.front().time <= end) {
    RunLaneTo(ControlIndex(), end, /*inclusive=*/true);
  }
}

void Simulator::RecountPosts() {
  for (Lane& lane : lanes_) {
    lane.posted = 0;
  }
  for (const Lane& target : lanes_) {
    for (size_t source = 0; source < target.inbox.size(); ++source) {
      Lane& poster = lanes_[source];
      for (const Mail& mail : target.inbox[source]) {
        if (poster.posted++ == 0 || mail.time < poster.earliest_post) {
          poster.earliest_post = mail.time;
        }
      }
    }
  }
}

void Simulator::SetBarrierHook(std::function<void(SimTime)> hook) {
  PRESTO_CHECK_MSG(num_lanes() > 0, "a barrier hook needs worker lanes to guard");
  barrier_hook_ = std::move(hook);
}

bool Simulator::Step() {
  const SimTime next = NextEventTime();
  if (next < 0) {
    return false;
  }
  const SimTime target = std::max(next, global_now_);
  if (num_lanes() == 0) {
    // No worker lanes, no mail to clamp: nothing ties the step to the grid.
    RunEpoch(target, /*inclusive=*/true);
  } else {
    RunEpoch(GridEnd(target), /*inclusive=*/false);
  }
  return true;
}

void Simulator::RunUntil(SimTime t) {
  while (global_now_ <= t) {
    SimTime next = NextEventTime();
    if (next < 0) {
      global_now_ = t;
      return;
    }
    next = std::max(next, global_now_);
    if (next > t) {
      global_now_ = t;
      return;
    }
    // Skip empty grid cells: barriers only run where work (or mail) is waiting.
    // Without worker lanes there is no grid: one pass runs the control lane to t.
    const SimTime end = num_lanes() == 0 ? t : std::min(GridEnd(next), t);
    RunEpoch(end, /*inclusive=*/end == t);
    if (end == t) {
      return;
    }
  }
}

void Simulator::RunAll() {
  if (num_lanes() == 0) {
    // No grid and no mail: one control-lane pass drains everything, and the clock
    // stops at the last event.
    Lane& control = lanes_[static_cast<size_t>(ControlIndex())];
    RunLaneTo(ControlIndex(), std::numeric_limits<SimTime>::max(), /*inclusive=*/true);
    global_now_ = std::max(global_now_, control.now);
    return;
  }
  while (Step()) {
  }
}

uint64_t Simulator::events_executed() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.executed;
  }
  return total;
}

size_t Simulator::events_pending() const {
  size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.queued + lane.posted;
  }
  return total;
}

uint64_t Simulator::fingerprint() const {
  // Order-independent fold: lanes execute concurrently, so the combined fingerprint
  // must not encode an inter-lane *ordering* — but each stream is bound to its lane
  // identity before summing, so swapping two lanes' entire event streams (a lane
  // misrouting bug) still changes the result. The barrier hash pins the cross-lane
  // delivery schedule.
  uint64_t total = barrier_hash_;
  uint64_t index = 0;
  for (const Lane& lane : lanes_) {
    uint64_t term = lane.fp;
    MixFp(term, index++);
    total += term * 0x9e3779b97f4a7c15ull;
  }
  return total;
}

SimTime Simulator::NextEventTime() const {
  SimTime best = -1;
  for (const Lane& lane : lanes_) {
    if (!lane.runs.empty()) {
      const SimTime t = lane.runs.front().time;
      if (best < 0 || t < best) {
        best = t;
      }
    }
    if (lane.posted > 0 && (best < 0 || lane.earliest_post < best)) {
      best = lane.earliest_post;
    }
  }
  return best;
}

uint64_t Simulator::RegisterSink(EventSink* sink) {
  PRESTO_CHECK(sink != nullptr);
  auto it = sink_ids_.find(sink);
  if (it != sink_ids_.end()) {
    return it->second;
  }
  const uint64_t id = sinks_.size();
  sink_ids_[sink] = id;
  sinks_.push_back(sink);
  return id;
}

Status Simulator::SaveState(ByteWriter& w) const {
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl,
                   "checkpoint only from control context");
  CkptWrite(w, static_cast<uint64_t>(lanes_.size()));
  CkptWrite(w, static_cast<uint64_t>(sinks_.size()));
  CkptWrite(w, epoch_);
  CkptWrite(w, epoch_anchor_);
  CkptWrite(w, global_now_);
  w.WriteU64(barrier_hash_);
  for (size_t li = 0; li < lanes_.size(); ++li) {
    const Lane& lane = lanes_[li];
    CkptWrite(w, lane.now);
    CkptWrite(w, lane.next_seq);
    CkptWrite(w, lane.executed);
    w.WriteU64(lane.fp);
    // Pending queue events, ascending (time, seq).
    std::vector<Pending> live = InOrder(lane);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](const Pending& entry) {
                                return lane.pool[entry.slot].sink == nullptr;
                              }),
               live.end());
    CkptWrite(w, static_cast<uint64_t>(live.size()));
    for (const Pending& entry : live) {
      const Event& event = lane.pool[entry.slot];
      auto sid = sink_ids_.find(event.sink);
      if (sid == sink_ids_.end()) {
        return FailedPreconditionError("checkpoint: unregistered sink in lane " +
                                       std::to_string(li));
      }
      CkptWrite(w, entry.time);
      CkptWrite(w, event.seq);
      CkptWrite(w, event.kind);
      CkptWrite(w, sid->second);
      CkptWrite(w, event.payload);
    }
    CkptWrite(w, static_cast<uint64_t>(lane.inbox.size()));
    for (const std::vector<Mail>& box : lane.inbox) {
      CkptWrite(w, static_cast<uint64_t>(box.size()));
      for (const Mail& mail : box) {
        auto sid = sink_ids_.find(mail.sink);
        if (sid == sink_ids_.end()) {
          return FailedPreconditionError(
              "checkpoint: unregistered mailbox sink in lane " + std::to_string(li));
        }
        CkptWrite(w, mail.time);
        CkptWrite(w, mail.kind);
        CkptWrite(w, sid->second);
        CkptWrite(w, mail.payload);
      }
    }
  }
  return OkStatus();
}

void Simulator::LoadState(ByteReader& r) {
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl, "restore only from control context");
  // However far the restore gets, the post counts describe the inboxes it leaves.
  struct Recount {
    Simulator* sim;
    ~Recount() { sim->RecountPosts(); }
  } recount{this};
  uint64_t lane_count = 0;
  uint64_t sink_count = 0;
  CkptRead(r, lane_count);
  CkptRead(r, sink_count);
  if (lane_count != lanes_.size()) {
    return r.Fail(FailedPreconditionError(
        "restore: lane configuration mismatch (checkpoint has " +
        std::to_string(lane_count) + " lanes, simulator has " +
        std::to_string(lanes_.size()) + ")"));
  }
  if (sink_count != sinks_.size()) {
    return r.Fail(FailedPreconditionError(
        "restore: sink table mismatch (checkpoint has " + std::to_string(sink_count) +
        " sinks, simulator has " + std::to_string(sinks_.size()) +
        "; construction order must match the saving run)"));
  }
  Duration epoch = 0;
  CkptRead(r, epoch);
  if (epoch <= 0) {
    return r.Fail(DataLossError("restore: invalid epoch"));
  }
  epoch_ = epoch;
  CkptRead(r, epoch_anchor_);
  CkptRead(r, global_now_);
  CkptRead(r, CkptFixed(barrier_hash_));
  // Restored events to announce once every lane's queues are rebuilt.
  struct Restored {
    int lane;
    SimTime time;
    EventKind kind;
    uint32_t slot;
  };
  std::vector<Restored> announce;
  for (size_t li = 0; li < lanes_.size() && r.ok(); ++li) {
    Lane& lane = lanes_[li];
    // Discard construction-time residue: the restoring run rebuilds queues from the
    // checkpoint; handle-holders re-capture via OnEventRestored below.
    lane.pool.clear();
    lane.free_slots.clear();
    lane.runs.clear();
    lane.queued = 0;
    lane.open_tail = kNoSlot;
    CkptRead(r, lane.now);
    CkptRead(r, lane.next_seq);
    CkptRead(r, lane.executed);
    CkptRead(r, CkptFixed(lane.fp));
    uint64_t pending = 0;
    CkptRead(r, pending);
    SimTime prev_time = 0;
    uint64_t prev_seq = 0;
    for (uint64_t i = 0; i < pending && r.ok(); ++i) {
      SimTime time = 0;
      uint64_t seq = 0;
      EventKind kind = EventKind::kTimer;
      uint64_t sink_id = 0;
      CkptRead(r, time);
      CkptRead(r, seq);
      // Event kinds are a closed set: a record naming any other kind (a corrupt
      // file, or a peer's bytes) is refused here, not at dispatch in a sink.
      CkptRead(r, kind);
      CkptRead(r, sink_id);
      if (!r.ok()) {
        return;
      }
      if (sink_id >= sinks_.size()) {
        return r.Fail(
            DataLossError("restore: invalid event record in lane " + std::to_string(li)));
      }
      // The run queue rebuilds its runs from records in (time, seq) order, and later
      // pushes must draw seqs past every restored one: refuse records that break
      // either rule (a saving run writes them strictly ascending, below next_seq).
      if (seq >= lane.next_seq ||
          (i > 0 && std::make_pair(time, seq) <= std::make_pair(prev_time, prev_seq))) {
        return r.Fail(DataLossError("restore: queue records out of (time, seq) order "
                                    "in lane " + std::to_string(li)));
      }
      prev_time = time;
      prev_seq = seq;
      const uint32_t slot = static_cast<uint32_t>(lane.pool.size());
      lane.pool.emplace_back();
      Event& event = lane.pool[slot];
      event.kind = kind;
      event.sink = sinks_[sink_id];
      event.has_payload = true;
      CkptRead(r, event.payload);
      // Original (time, seq): same-time tie-break order is part of the replay
      // contract, so events re-enter with the seqs they were scheduled under.
      event.seq = seq;
      Link(lane, time, slot);
      announce.push_back(Restored{static_cast<int>(li), time, kind, slot});
    }
    uint64_t box_count = 0;
    CkptRead(r, box_count);
    if (box_count != lane.inbox.size()) {
      return r.Fail(
          DataLossError("restore: mailbox table mismatch in lane " + std::to_string(li)));
    }
    for (std::vector<Mail>& box : lane.inbox) {
      box.clear();
      uint64_t mail_count = 0;
      CkptRead(r, mail_count);
      for (uint64_t i = 0; i < mail_count && r.ok(); ++i) {
        Mail mail{};
        uint64_t sink_id = 0;
        CkptRead(r, mail.time);
        CkptRead(r, mail.kind);
        CkptRead(r, sink_id);
        if (!r.ok()) {
          return;
        }
        if (sink_id >= sinks_.size()) {
          return r.Fail(DataLossError("restore: invalid mailbox record in lane " +
                                      std::to_string(li)));
        }
        mail.sink = sinks_[sink_id];
        CkptRead(r, mail.payload);
        box.push_back(std::move(mail));
      }
    }
  }
  if (!r.ok()) {
    return;
  }
  for (const Restored& item : announce) {
    Lane& lane = lanes_[static_cast<size_t>(item.lane)];
    Event& event = lane.pool[item.slot];
    const int external_lane = item.lane != ControlIndex() ? item.lane : kLaneControl;
    event.sink->OnEventRestored(item.time, item.kind, event.payload,
                                EventHandle(this, item.lane, item.slot, event.gen),
                                external_lane);
  }
}

size_t Simulator::PoolSlotsForTest(int lane) const {
  return lanes_[static_cast<size_t>(ResolveLane(lane))].pool.size();
}

size_t Simulator::FreeSlotsForTest(int lane) const {
  return lanes_[static_cast<size_t>(ResolveLane(lane))].free_slots.size();
}

}  // namespace presto
