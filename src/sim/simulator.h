// Discrete-event simulator with a parallel shard-lane execution engine.
//
// This is the testbed substitute for the paper's mote/proxy hardware: every radio
// transmission, flash operation, sensing tick, and query in PRESTO is an event here.
//
// One execution engine: shard lanes under an epoch-barrier schedule. A simulator
// has `num_lanes` worker lanes (fixed at construction; the deployment maps lane =
// home shard) plus a serial *control lane*, executed by a worker pool. Within an
// epoch [T, T+E) every worker lane runs its own events independently; an event that
// schedules into *another* lane posts to a per-lane mailbox instead, and mailboxes
// are drained serially at the next barrier (arrival times clamp forward to it). The
// control lane runs at barriers with no workers active — deployment mutations (kill /
// revive / promote / migrate / rebalance) and query drivers execute there so they
// may touch any lane's state; a control event observes its own timestamp, not the
// barrier it runs at. A bare Simulator has zero worker lanes: every event runs on the
// control lane in (time, seq) order, with ties broken by scheduling order.
//
// Conservative lookahead: the owner sets the epoch (SetEpoch) to the smallest latency
// any event can cross lanes with, so neither clamp ever binds and cross-lane latencies
// are delivered at their true times.
//
// Determinism contract: each lane keeps its own clock, sequence counter, and rolling
// FNV fingerprint; mailboxes are single-writer FIFOs drained in (source-lane, FIFO)
// order on a fixed absolute epoch grid, so per-lane event streams do not depend on the
// worker count. fingerprint() folds the per-lane fingerprints order-independently
// (commutative sum of mixed lane hashes) together with a barrier-sequence hash over
// (epoch start, mail count) of every draining barrier. threads=1 and threads=N
// produce identical fingerprints. All randomness is injected via seeded Pcg32 streams.
//
// Events are typed only: timer fires, radio frame deliveries, batch flushes, query
// stages, and topology mutations dispatch through an EventSink with a small POD
// payload (bulk frame bytes ride in the event itself), so a pooled event slot holds no
// closure state and every pending event can be checkpointed.
// Cancellation is generation-based: a handle names (lane, slot, generation) and a
// stale generation makes both Cancel() and queue pops no-ops.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "src/util/ckpt.h"
#include "src/util/claim_pool.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"

namespace presto {

class ByteReader;
class ByteWriter;
class EventHandle;
class Simulator;

// Typed event classes; every event dispatches through its EventSink. Value 0 is
// unused, and checkpoint restore rejects kinds outside [kTimer, kMutation].
enum class EventKind : uint8_t {
  kTimer = 1,      // PeriodicTimer fire
  kFrame = 2,      // Network frame delivery (message payload rides in the event)
  kBatchFlush = 3, // Network per-link coalescing flush
  kQuery = 4,      // query routing/completion stages, pull timeouts
  kMutation = 5,   // deployment topology mutation (control lane only)
};
constexpr bool CkptEnumValid(EventKind v) {
  return v >= EventKind::kTimer && v <= EventKind::kMutation;
}

// Small POD argument block for typed events. Meaning of a..f is sink-defined;
// `bytes` carries bulk payloads (radio frames) and its capacity is pooled.
struct EventPayload {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  uint64_t e = 0;
  uint64_t f = 0;
  std::vector<uint8_t> bytes;
};

template <class S, class F, CkptSelf<S, EventPayload> = 0>
void CkptFields(S& v, F&& f) {
  f(v.a);
  f(v.b);
  f(v.c);
  f(v.d);
  f(v.e);
  f(v.f);
  f(v.bytes);
}

// Receiver of typed events. Implemented by Network, UnifiedStore, ProxyNode,
// Deployment, and PeriodicTimer.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnSimEvent(EventKind kind, EventPayload& payload) = 0;

  // Checkpoint restore hook: Simulator::LoadState announces every restored queue
  // event to its sink (per lane, in (time, seq) order) so holders of cancellable
  // handles — timers, pull timeouts, batch flushes — re-capture them. `lane` is the
  // external designator the event lives in (a worker lane index, or kLaneControl for
  // the control lane) — sinks with per-lane state use it to find the owning
  // context. Mailbox entries are not announced (cross-lane posts never had handles).
  // Default no-op: sinks whose events carry no handle state ignore it.
  virtual void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                               const EventHandle& handle, int lane) {
    (void)t;
    (void)kind;
    (void)payload;
    (void)handle;
    (void)lane;
  }
};

// Handle to a scheduled event; allows cancellation (e.g. a retransmission timer being
// serviced by an ACK). Generation-based: cancelling after the event fired (or was
// cancelled, or its slot was reused) is a safe no-op. Cancel() must run either in the
// event's own lane, or from control context (barriers / between runs) — never from a
// concurrently executing other lane. Cross-lane (mailbox) schedules return an invalid
// handle: they cannot be cancelled once posted.
class EventHandle {
 public:
  EventHandle() = default;

  // Marks the event so the simulator skips it; safe to call multiple times or after
  // the event has fired.
  void Cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, int lane, uint32_t slot, uint32_t gen)
      : sim_(sim), lane_(lane), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  int lane_ = 0;  // internal lane index
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class Simulator {
 public:
  // Lane designators for the `lane` parameter of the Schedule* calls.
  static constexpr int kLaneCurrent = -2;  // the scheduling context's own lane
  static constexpr int kLaneControl = -1;  // serial barrier lane

  // `num_lanes` worker lanes (0: everything runs on the control lane) plus the
  // serial control lane, run by `threads` workers (clamped to [1, num_lanes]; the
  // calling thread is one of them) on an absolute epoch grid of length `epoch`
  // (> 0; unused without worker lanes).
  explicit Simulator(int num_lanes = 0, int threads = 1, Duration epoch = Millis(500));
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  int num_lanes() const { return static_cast<int>(lanes_.size()) - 1; }
  int threads() const { return threads_; }
  // The current epoch-barrier grid length (changes only through SetEpoch).
  Duration epoch() const { return epoch_; }

  // Sets the epoch (> 0) and re-anchors the absolute grid at the current barrier.
  // Cross-lane deliveries clamp forward to the next barrier, so an epoch no longer
  // than the smallest cross-lane delay (the conservative lookahead) keeps every
  // clamped arrival time equal to its true arrival time. Control context only
  // (between runs or at a barrier, on the control lane). Deterministic: the call
  // sites are themselves control-lane events, so the epoch-length schedule replays
  // identically across worker counts.
  void SetEpoch(Duration epoch);

  // Barrier-time lane re-binding: moves every *live* pending event and undrained
  // mailbox entry of `from_lane` that `match`es to `to_lane`, preserving delivery
  // times and relative order ((time, seq) order; mailbox entries keep their source
  // FIFO attribution). Control context only — lane membership changes only at
  // barriers, on the control lane. Handles into moved events are invalidated (the
  // old slot's generation bumps), so handle-holders (timers, pull timeouts) must
  // re-bind cooperatively instead; this call is for handle-free events (frame
  // deliveries). The rebind is folded into the barrier hash (order-independent
  // per-lane fingerprints are unaffected until the events execute in their new
  // lane). Returns the number of events + mails moved.
  size_t RebindMatchingEvents(
      int from_lane, int to_lane,
      const std::function<bool(EventKind, const EventSink*, const EventPayload&)>&
          match);

  // The lane the calling context executes in: a worker lane index during lane event
  // execution, else kLaneControl.
  int CurrentLane() const;

  // Current simulated time: the executing lane's clock during event execution, the
  // global barrier clock otherwise.
  SimTime Now() const;

  // Schedules a typed event dispatched as sink->OnSimEvent(kind, payload) at
  // absolute time `t` (must be >= Now()) in `lane` (default: the scheduling
  // context's lane). Returns a cancellable handle, except for cross-lane posts from
  // a running lane (mailbox; invalid handle).
  EventHandle ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                              EventPayload payload, int lane = kLaneCurrent);
  // The same with an all-zero payload (timer fires), which never moves through the
  // event pool: the sink receives a fresh EventPayload{}.
  EventHandle ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                              int lane = kLaneCurrent);

  // Runs a barrier-time hook before each epoch's workers launch:
  // the deployment pre-extends shared lazily-built world state (e.g. the temperature
  // field's weather fronts) through `epoch_end` so lane execution only reads it.
  // Needs worker lanes: without them nothing runs concurrently to guard against.
  void SetBarrierHook(std::function<void(SimTime epoch_end)> hook);

  // Advances one epoch covering the next pending event (or returns false when
  // nothing is pending anywhere). With no worker lanes there is no grid to keep: the
  // step runs exactly the next pending timestamp and the clock stops there.
  bool Step();

  // Runs until pending work is exhausted or `t` is reached; the clock finishes at
  // exactly `t` if any events remain beyond it (they stay queued). Events scheduled
  // at exactly `t` execute (an inclusive bound). With no worker lanes the control
  // lane runs straight through `t` in one pass.
  void RunUntil(SimTime t);

  // Runs until every queue and mailbox drains.
  void RunAll();

  uint64_t events_executed() const;
  size_t events_pending() const;

  // Replay fingerprint: order-independent fold of the per-lane rolling FNV-1a hashes
  // over executed (time, seq) plus the barrier-sequence hash (see file header).
  // Equal across reruns and worker counts.
  uint64_t fingerprint() const;

  // Timestamp of the next queued event (in any lane or mailbox), or -1 when idle.
  // Cancelled events may still occupy queues, so this is a lower bound.
  SimTime NextEventTime() const;

  // Introspection for tests: live + free slot counts of one lane's event pool.
  size_t PoolSlotsForTest(int lane) const;
  size_t FreeSlotsForTest(int lane) const;

  // --- Checkpoint support ---------------------------------------------------
  // Registers `sink` in the deterministic sink table checkpoints use to name event
  // receivers. Idempotent; returns the sink's stable id. Subsystems register in
  // their constructors, so an identically configured restore run (same construction
  // order) assigns identical ids — the contract that lets serialized sink ids
  // resolve to live objects.
  uint64_t RegisterSink(EventSink* sink);
  size_t RegisteredSinkCount() const { return sinks_.size(); }

  // Serializes the complete engine state: clocks, epoch grid, per-lane sequence
  // counters and fingerprints, every pending queue event (original (time, seq) —
  // tie-break order is part of the replay contract) and undrained mailbox entry.
  // Control context only (between runs or at a barrier). Fails without side effects
  // if any pending event references an unregistered sink.
  Status SaveState(ByteWriter& w) const;

  // Restores state saved by SaveState into a freshly constructed, identically
  // configured simulator: same lane count — the thread count may differ (replay is
  // thread-count independent), and the epoch grid is restored with the state. Existing queues are discarded;
  // events re-enter their pools with their original (time, seq) keys and each is
  // announced via OnEventRestored. Call after every subsystem's own LoadState, so
  // re-captured handles land in fully restored objects.
  void LoadState(ByteReader& r);

 private:
  struct QueueEntry {
    SimTime time;
    uint64_t seq;  // tie-break: FIFO among same-time events within a lane
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  // A free slot's payload is EventPayload{}, and so is a bare event's (one scheduled
  // without a payload): only events with `has_payload` move theirs in and out.
  struct Event {
    EventKind kind = EventKind::kTimer;
    bool has_payload = false;
    uint32_t gen = 0;
    EventSink* sink = nullptr;
    EventPayload payload;
  };
  // A cross-lane schedule awaiting the next barrier. Lives in the *target* lane's
  // per-source FIFO, written only by the source lane's worker.
  struct Mail {
    SimTime time;
    EventKind kind;
    EventSink* sink;
    EventPayload payload;
  };
  struct Lane {
    SimTime now = 0;
    uint64_t next_seq = 0;
    uint64_t executed = 0;
    uint64_t fp = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    std::vector<Event> pool;
    std::vector<uint32_t> free_slots;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue;
    std::vector<std::vector<Mail>> inbox;  // [source worker lane] -> FIFO
  };

  friend class EventHandle;

  int ControlIndex() const { return static_cast<int>(lanes_.size()) - 1; }
  int ResolveLane(int lane) const;
  // `payload` null: a bare event.
  EventHandle Push(int internal_lane, SimTime t, EventKind kind, EventSink* sink,
                   EventPayload* payload);
  uint32_t Enqueue(Lane& lane, SimTime t, EventKind kind, EventSink* sink,
                   EventPayload* payload);
  void CancelEvent(int internal_lane, uint32_t slot, uint32_t gen);
  void ReleaseSlot(Lane& lane, uint32_t slot);
  // Executes queued events of `lane` with time < end (<= end when `inclusive`).
  void RunLaneTo(int internal_lane, SimTime end, bool inclusive);
  bool ExecuteOne(Lane& lane);
  // One barrier + one epoch [global_now_, end): drain mailboxes and run the hook,
  // execute the worker lanes through the epoch, then run due control-lane events at
  // the closing barrier (with the global clock at `end` and every worker idle).
  void RunEpoch(SimTime end, bool inclusive);
  void MixFp(uint64_t& fp, uint64_t v) const;
  // First barrier strictly after `t` on the current grid. The grid is anchored at
  // the barrier where the epoch length last changed (epoch_anchor_, 0 until a
  // SetEpoch), so changing the epoch mid-run keeps every subsequent barrier an
  // exact multiple away from a past barrier.
  SimTime GridEnd(SimTime t) const {
    return epoch_anchor_ + ((t - epoch_anchor_) / epoch_ + 1) * epoch_;
  }

  int threads_ = 1;
  Duration epoch_ = 0;
  SimTime epoch_anchor_ = 0;
  SimTime global_now_ = 0;
  uint64_t barrier_hash_ = 0xcbf29ce484222325ull;
  std::vector<Lane> lanes_;  // [0..L-1] workers, [L] control
  std::function<void(SimTime)> barrier_hook_;
  std::vector<EventSink*> sinks_;  // checkpoint sink table, construction order
  std::map<const EventSink*, uint64_t> sink_ids_;

  // Worker lanes' host threads.
  std::unique_ptr<ClaimPool> pool_;
};

}  // namespace presto

#endif  // SRC_SIM_SIMULATOR_H_
