// Tests for the discrete-event simulator: ordering, cancellation, timers, and the
// parallel shard-lane engine (determinism across worker counts, mailbox barriers,
// generation-based cancellation, event-pool reuse, the claim pool's handoffs).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "tests/read_status.h"

namespace presto {
namespace {

// Test-local typed sink: each event runs the closure registered for it (payload.a
// indexes the table). Lanes schedule concurrently, so registration is locked; a
// deque keeps registered closures in place while the table grows.
class Actions : public EventSink {
 public:
  explicit Actions(Simulator* sim) : sim_(sim) {}

  EventHandle At(SimTime t, std::function<void()> fn,
                 int lane = Simulator::kLaneCurrent) {
    EventPayload payload;
    {
      std::lock_guard<std::mutex> lock(m_);
      payload.a = fns_.size();
      fns_.push_back(std::move(fn));
    }
    return sim_->ScheduleEventAt(t, EventKind::kTimer, this, std::move(payload), lane);
  }

  EventHandle In(Duration delay, std::function<void()> fn,
                 int lane = Simulator::kLaneCurrent) {
    return At(sim_->Now() + delay, std::move(fn), lane);
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    (void)kind;
    std::function<void()>* fn;
    {
      std::lock_guard<std::mutex> lock(m_);
      fn = &fns_[static_cast<size_t>(payload.a)];
    }
    (*fn)();
  }

  // Re-bind predicate selecting this sink's events.
  std::function<bool(EventKind, const EventSink*, const EventPayload&)> Mine() const {
    return [this](EventKind, const EventSink* sink, const EventPayload&) {
      return sink == this;
    };
  }

 private:
  Simulator* sim_;
  std::mutex m_;
  std::deque<std::function<void()>> fns_;
};

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  Actions act(&sim);
  std::vector<int> order;
  act.At(Seconds(3), [&] { order.push_back(3); });
  act.At(Seconds(1), [&] { order.push_back(1); });
  act.At(Seconds(2), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(3));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  Actions act(&sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    act.At(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  Actions act(&sim);
  bool fired = false;
  EventHandle handle = act.In(Seconds(1), [&] { fired = true; });
  handle.Cancel();
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutOvershooting) {
  Simulator sim;
  Actions act(&sim);
  bool late_fired = false;
  act.At(Seconds(10), [&] { late_fired = true; });
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.RunUntil(Seconds(10));
  EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  Actions act(&sim);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      act.In(Seconds(1), recurse);
    }
  };
  act.In(Seconds(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, NextEventTime) {
  Simulator sim;
  Actions act(&sim);
  EXPECT_EQ(sim.NextEventTime(), -1);
  act.At(Seconds(4), [] {});
  EXPECT_EQ(sim.NextEventTime(), Seconds(4));
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  sim.RunUntil(Seconds(35));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(10), Seconds(20), Seconds(30)}));
}

TEST(PeriodicTimerTest, InitialDelayOverride) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10), Seconds(1));
  sim.RunUntil(Seconds(12));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(1), Seconds(11)}));
}

TEST(PeriodicTimerTest, SetPeriodTakesEffect) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  sim.RunUntil(Seconds(10));  // one fire at 10
  timer.SetPeriod(Seconds(2));
  sim.RunUntil(Seconds(15));
  // After the change at t=10, fires at 12 and 14.
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(10), Seconds(12), Seconds(14)}));
}

TEST(PeriodicTimerTest, StopIsIdempotentAndFinal) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(&sim, [&] { ++fires; });
  timer.Start(Seconds(1));
  sim.RunUntil(Seconds(2));
  timer.Stop();
  timer.Stop();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, RestartReschedules) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  timer.Start(Seconds(3));  // restart replaces the pending fire
  sim.RunUntil(Seconds(7));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(3), Seconds(6)}));
}

// ---------- shard-lane engine ----------

TEST(SimulatorTest, FingerprintIsScheduleSensitive) {
  auto run = [](bool swap) {
    Simulator sim;
    Actions act(&sim);
    act.At(Seconds(swap ? 2 : 1), [] {});
    act.At(Seconds(swap ? 1 : 2), [] {});
    sim.RunAll();
    return sim.fingerprint();
  };
  EXPECT_EQ(run(false), run(false));  // identical replays agree
  EXPECT_NE(run(false), run(true));   // a different event order does not
}

// ---------- the run queue against a heap model ----------

// A heap of single events keyed (time, seq): the order the run queue must reproduce.
struct ModelEntry {
  SimTime time;
  uint64_t seq;
  uint64_t id;
  bool movable;
  bool operator>(const ModelEntry& other) const {
    return time != other.time ? time > other.time : seq > other.seq;
  }
};
using ModelQueue =
    std::priority_queue<ModelEntry, std::vector<ModelEntry>, std::greater<ModelEntry>>;

// One lane of the model. During a run only the lane itself touches its entry, or
// the control lane while every worker is idle.
struct LaneModel {
  ModelQueue queue;
  uint64_t next_seq = 0;  // mirrors the lane's sequence counter
  std::set<uint64_t> cancelled;
  std::vector<std::pair<SimTime, uint64_t>> executed;  // (time, seq)
  std::vector<std::pair<uint64_t, EventHandle>> handles;  // cancellable events
  uint64_t mismatches = 0;
};

// Differential probe: every schedule goes through Push, which mirrors it into the
// model, and every execution pops the model and checks that it names the event the
// simulator ran, at the time it ran. Decisions draw from a Pcg32 stream per event
// id, so runs at any worker count make the same pushes and cancels.
class RunQueueProbe : public EventSink {
 public:
  static constexpr int kLanes = 4;
  static constexpr Duration kEpoch = Millis(2);
  static constexpr SimTime kStop = Millis(400);

  RunQueueProbe(Simulator* sim, std::vector<LaneModel>* model, uint64_t seed)
      : sim_(sim), model_(model), seed_(seed) {
    sim_->RegisterSink(this);
  }

  static size_t Index(int lane) {
    return lane == Simulator::kLaneControl ? kLanes : static_cast<size_t>(lane);
  }

  // payload: a = id, b = depth (0 for re-arming tickers), c = movable (rebinds
  // take it; handle-free), d = cancellable (its handle is kept).
  void Push(int lane, SimTime t, uint64_t depth, bool movable, bool cancellable) {
    LaneModel& m = (*model_)[Index(lane)];
    const uint64_t seq = m.next_seq++;
    const uint64_t id = (static_cast<uint64_t>(Index(lane)) << 40) | seq;
    EventPayload payload;
    payload.a = id;
    payload.b = depth;
    payload.c = movable ? 1 : 0;
    payload.d = cancellable ? 1 : 0;
    const EventHandle handle =
        sim_->ScheduleEventAt(t, EventKind::kTimer, this, std::move(payload), lane);
    m.queue.push(ModelEntry{t, seq, id, movable});
    if (cancellable) {
      m.handles.emplace_back(id, handle);
    }
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    (void)kind;
    const int lane = sim_->CurrentLane();
    LaneModel& m = (*model_)[Index(lane)];
    while (!m.queue.empty() && m.cancelled.count(m.queue.top().id) > 0) {
      m.queue.pop();
    }
    if (m.queue.empty()) {
      ++m.mismatches;
      return;
    }
    const ModelEntry want = m.queue.top();
    m.queue.pop();
    const SimTime now = sim_->Now();
    if (want.id != payload.a || want.time != now) {
      ++m.mismatches;
    }
    m.executed.emplace_back(want.time, want.seq);
    if (now >= kStop) {
      return;  // wind down: the queues drain
    }
    Pcg32 rng(seed_, payload.a);
    if (lane == Simulator::kLaneControl) {
      ControlStep(rng, now);
      return;
    }
    const uint64_t depth = payload.b;
    if (depth == 0) {
      // Tickers share a 1 ms phase, so their re-arms meet in runs.
      Push(lane, now + Millis(1 << (payload.a % 3)), 0, false, false);
    }
    if (rng.Bernoulli(0.35)) {
      // A burst at one time: at Now() (joining the run being popped when it is the
      // open run) below depth 2, else a few ms on.
      const SimTime at = depth < 2 && rng.Bernoulli(0.5)
                             ? now
                             : now + Millis(static_cast<double>(rng.UniformInt(1, 4)));
      const bool movable = rng.Bernoulli(0.4);
      const int n = static_cast<int>(rng.UniformInt(1, 5));
      const size_t first = m.handles.size();
      for (int i = 0; i < n; ++i) {
        Push(lane, at, depth + 1, movable, !movable);
      }
      if (!movable) {
        // Cancel the burst's head, middle or tail, or all of it (the last live
        // entry included), or none.
        const int64_t pick = rng.UniformInt(0, 4);
        for (int i = 0; i < n; ++i) {
          const bool hit = pick == 3 || (pick == 0 && i == 0) ||
                           (pick == 1 && i == n / 2) || (pick == 2 && i == n - 1);
          if (hit) {
            Cancel(m, first + static_cast<size_t>(i));
          }
        }
      }
    }
    if (!m.handles.empty() && rng.Bernoulli(0.25)) {
      Cancel(m, static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(m.handles.size()) - 1)));
    }
    if (m.handles.size() > 64) {
      m.handles.erase(m.handles.begin(), m.handles.begin() + 32);
    }
  }

  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override {
    (void)t;
    (void)kind;
    if (payload.d != 0) {
      (*model_)[Index(lane)].handles.emplace_back(payload.a, handle);
    }
  }

  // Moves every movable event of `from` to `to` in the simulator and the model;
  // returns whether both moved the same number.
  bool Rebind(int from, int to) {
    LaneModel& src = (*model_)[Index(from)];
    LaneModel& dst = (*model_)[Index(to)];
    ModelQueue keep;
    size_t moved = 0;
    for (; !src.queue.empty(); src.queue.pop()) {
      const ModelEntry& entry = src.queue.top();
      if (src.cancelled.count(entry.id) > 0) {
        continue;
      }
      if (entry.movable) {
        dst.queue.push(ModelEntry{entry.time, dst.next_seq++, entry.id, true});
        ++moved;
      } else {
        keep.push(entry);
      }
    }
    src.queue = std::move(keep);
    return sim_->RebindMatchingEvents(
               from, to, [](EventKind, const EventSink*, const EventPayload& payload) {
                 return payload.c != 0;
               }) == moved;
  }

 private:
  // Control posts into worker lanes, at least one epoch on so the barrier clamp
  // never binds, and cancels events of any lane (every worker is idle).
  void ControlStep(Pcg32& rng, SimTime now) {
    const int posts = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < posts; ++i) {
      const int lane = static_cast<int>(rng.UniformInt(0, kLanes - 1));
      const bool movable = rng.Bernoulli(0.5);
      Push(lane, now + kEpoch + Millis(static_cast<double>(rng.UniformInt(0, 2))), 1,
           movable, !movable);
    }
    LaneModel& victim =
        (*model_)[static_cast<size_t>(rng.UniformInt(0, kLanes - 1))];
    if (!victim.handles.empty()) {
      Cancel(victim, static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(victim.handles.size()) - 1)));
    }
    Push(Simulator::kLaneControl, now + Millis(3), 0, false, false);
  }

  static void Cancel(LaneModel& m, size_t i) {
    m.handles[i].second.Cancel();
    m.cancelled.insert(m.handles[i].first);
  }

  Simulator* sim_;
  std::vector<LaneModel>* model_;
  uint64_t seed_;
};

struct RunQueueOutcome {
  uint64_t fingerprint = 0;
  std::vector<std::vector<std::pair<SimTime, uint64_t>>> executed;  // per lane
  uint64_t mismatches = 0;
  size_t left_in_model = 0;
  bool rebinds_agree = true;
  uint64_t events_executed = 0;
};

// Four worker lanes of phase-aligned tickers with bursts and cancels, a control
// lane posting into them; between slices, two rebinds and a save/restore.
RunQueueOutcome RunQueueScenario(uint64_t seed, int threads) {
  constexpr int kLanes = RunQueueProbe::kLanes;
  std::vector<LaneModel> model(kLanes + 1);
  auto sim = std::make_unique<Simulator>(kLanes, threads, RunQueueProbe::kEpoch);
  auto probe = std::make_unique<RunQueueProbe>(sim.get(), &model, seed);
  for (int lane = 0; lane < kLanes; ++lane) {
    for (int i = 0; i < 6; ++i) {
      probe->Push(lane, Millis(1), 0, false, false);
    }
  }
  probe->Push(Simulator::kLaneControl, Millis(1), 0, false, false);
  RunQueueOutcome out;
  sim->RunUntil(Millis(101));
  out.rebinds_agree &= probe->Rebind(0, 1);
  sim->RunUntil(Millis(203));

  // Save and continue in a fresh simulator; handles re-capture from the restore.
  ByteWriter w;
  if (!sim->SaveState(w).ok()) {
    ADD_FAILURE() << "save failed";
    return out;
  }
  for (LaneModel& m : model) {
    m.handles.clear();
  }
  auto restored = std::make_unique<Simulator>(kLanes, threads, RunQueueProbe::kEpoch);
  auto restored_probe = std::make_unique<RunQueueProbe>(restored.get(), &model, seed);
  ByteReader r(w.buffer());
  if (!ReadStatus(r, *restored).ok() || restored->fingerprint() != sim->fingerprint()) {
    ADD_FAILURE() << "restore failed";
    return out;
  }
  restored->RunUntil(Millis(302));
  out.rebinds_agree &= restored_probe->Rebind(2, 3);
  restored->RunAll();

  out.fingerprint = restored->fingerprint();
  out.events_executed = restored->events_executed();
  for (LaneModel& m : model) {
    out.mismatches += m.mismatches;
    while (!m.queue.empty() && m.cancelled.count(m.queue.top().id) > 0) {
      m.queue.pop();
    }
    out.left_in_model += m.queue.size();
    out.executed.push_back(std::move(m.executed));
  }
  return out;
}

TEST(SimulatorTest, RunQueueMatchesHeapOrder) {
  for (const uint64_t seed : {1, 2, 3}) {
    const RunQueueOutcome one = RunQueueScenario(seed, 1);
    const RunQueueOutcome four = RunQueueScenario(seed, 4);
    for (const RunQueueOutcome* out : {&one, &four}) {
      EXPECT_EQ(out->mismatches, 0u) << "seed " << seed;
      EXPECT_EQ(out->left_in_model, 0u) << "seed " << seed;
      EXPECT_TRUE(out->rebinds_agree) << "seed " << seed;
      size_t executed = 0;
      for (const auto& lane : out->executed) {
        executed += lane.size();
      }
      EXPECT_EQ(executed, out->events_executed) << "seed " << seed;
      EXPECT_GT(executed, 5000u) << "seed " << seed;
    }
    EXPECT_EQ(one.executed, four.executed) << "seed " << seed;
    EXPECT_EQ(one.fingerprint, four.fingerprint) << "seed " << seed;
  }
}

// A synthetic multi-lane workload: every lane runs a self-rescheduling chain that
// periodically posts cross-lane work, exercising queues, mailboxes, and barriers.
// Padding keeps each lane's counter on its own cache line (the lanes genuinely run
// in parallel).
struct LaneCell {
  uint64_t count = 0;
  char pad[56];
};

uint64_t RunLaneWorkload(int threads, uint64_t* executed = nullptr) {
  constexpr int kLanes = 4;
  Simulator sim(kLanes, threads, Millis(100));
  Actions act(&sim);
  auto cells = std::make_shared<std::array<LaneCell, kLanes>>();
  std::function<void(int)> tick = [&sim, &act, cells, &tick](int lane) {
    LaneCell& cell = (*cells)[static_cast<size_t>(lane)];
    ++cell.count;
    if (cell.count % 3 == 0) {
      // Cross-lane post: lands via the mailbox, executes in the target's lane.
      const int target = (lane + 1) % kLanes;
      act.In(Millis(7),
             [cells, target] { ++(*cells)[static_cast<size_t>(target)].count; },
             target);
    }
    if (sim.Now() < Seconds(30)) {
      act.In(Millis(11 + lane), [&tick, lane] { tick(lane); });
    }
  };
  for (int lane = 0; lane < kLanes; ++lane) {
    act.At(Millis(1 + lane), [&tick, lane] { tick(lane); }, lane);
  }
  sim.RunUntil(Seconds(31));
  if (executed != nullptr) {
    *executed = sim.events_executed();
  }
  return sim.fingerprint();
}

TEST(LaneEngineTest, FingerprintIdenticalAcrossWorkerCounts) {
  uint64_t executed1 = 0;
  uint64_t executed2 = 0;
  uint64_t executed8 = 0;
  const uint64_t fp1 = RunLaneWorkload(1, &executed1);
  const uint64_t fp2 = RunLaneWorkload(2, &executed2);
  const uint64_t fp8 = RunLaneWorkload(8, &executed8);
  EXPECT_GT(executed1, 1000u);
  EXPECT_EQ(executed1, executed2);
  EXPECT_EQ(executed1, executed8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
  // Repeat runs replay bit-identically too.
  EXPECT_EQ(fp2, RunLaneWorkload(2));
  EXPECT_EQ(fp8, RunLaneWorkload(8));
}

TEST(LaneEngineTest, CrossLaneCancellation) {
  Simulator sim(4, 2, Millis(100));
  Actions act(&sim);
  bool fired = false;
  // Scheduled from control into lane 2, cancelled from control before it fires.
  EventHandle handle = act.At(Seconds(1), [&] { fired = true; }, 2);
  ASSERT_TRUE(handle.valid());
  handle.Cancel();
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(LaneEngineTest, CancellationIsGenerationScoped) {
  Simulator sim(2, 1, Millis(100));
  Actions act(&sim);
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = act.At(Seconds(1), [&] { a_fired = true; }, 0);
  a.Cancel();  // retires A; its slot frees when the queue reaches it
  sim.RunUntil(Seconds(1));
  // B reuses A's slot under a fresh generation.
  EventHandle b = act.At(Seconds(2), [&] { b_fired = true; }, 0);
  EXPECT_EQ(sim.PoolSlotsForTest(0), 1u);
  a.Cancel();  // stale generation: must NOT cancel B
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  b.Cancel();  // cancel-after-fire is a no-op
  bool c_fired = false;
  act.At(Seconds(3), [&] { c_fired = true; }, 0);
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(c_fired);
}

TEST(LaneEngineTest, MailboxOrderingAtBarriers) {
  // Lane 2 posts first in real order, lane 0 second — the barrier drains mailboxes
  // in source-lane order, so lane 0's mail arrives first, all clamped to the barrier.
  Simulator sim(3, 3, Millis(100));
  Actions act(&sim);
  auto log = std::make_shared<std::vector<std::pair<std::string, SimTime>>>();
  auto post = [&sim, &act, log](const char* tag) {
    act.In(Millis(1), [log, tag, &sim] { log->emplace_back(tag, sim.Now()); }, 1);
  };
  act.At(Millis(5), [&] {
    post("two-a");
    post("two-b");
  }, 2);
  act.At(Millis(9), [&] { post("zero"); }, 0);
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ((*log)[0].first, "zero");
  EXPECT_EQ((*log)[1].first, "two-a");
  EXPECT_EQ((*log)[2].first, "two-b");
  // All three were clamped to the next epoch barrier.
  EXPECT_EQ((*log)[0].second, Millis(100));
  EXPECT_EQ((*log)[1].second, Millis(100));
  EXPECT_EQ((*log)[2].second, Millis(100));
}

TEST(LaneEngineTest, EventPoolSlotsAreReused) {
  Simulator sim;  // no worker lanes: the control lane uses the same pool machinery
  Actions act(&sim);
  int remaining = 2000;
  std::function<void()> chain = [&] {
    if (--remaining > 0) {
      act.In(Millis(1), chain);
    }
  };
  act.In(Millis(1), chain);
  sim.RunAll();
  EXPECT_EQ(remaining, 0);
  // A chain keeps at most a couple of live events; the pool must not grow per event.
  EXPECT_LE(sim.PoolSlotsForTest(Simulator::kLaneControl), 4u);
}

TEST(LaneEngineTest, WorkerLaneKeepsTimeOrderAndFifoTies) {
  // The bare-simulator ordering and tie-break cases, inside a worker lane.
  Simulator sim(2, 2, Millis(100));
  Actions act(&sim);
  auto order = std::make_shared<std::vector<int>>();
  act.At(Millis(350), [order] { order->push_back(100); }, 1);
  for (int i = 0; i < 5; ++i) {
    act.At(Millis(120), [order, i] { order->push_back(i); }, 1);
  }
  act.At(Millis(50), [order] { order->push_back(-1); }, 1);
  sim.RunAll();
  EXPECT_EQ(*order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 100}));
  EXPECT_EQ(sim.Now(), Millis(400)) << "a lane run ends on the barrier grid";
}

TEST(LaneEngineTest, LookaheadKeepsControlIssuedDeliveriesExact) {
  // A control event runs at the barrier at-or-after its time, and its deliveries
  // into a worker lane clamp forward to that barrier. An epoch no longer than the
  // delivery delay (the lookahead) keeps the barrier within reach: no clamp.
  auto deliver = [](Duration epoch) {
    Simulator sim(1, 1, epoch);
    Actions act(&sim);
    auto seen = std::make_shared<SimTime>(-1);
    act.At(Millis(123), [&sim, &act, seen] {
      act.In(Millis(2), [&sim, seen] { *seen = sim.Now(); }, 0);
    }, Simulator::kLaneControl);
    sim.RunUntil(Seconds(5));
    return *seen;
  };
  EXPECT_EQ(deliver(Millis(2)), Millis(125));
  EXPECT_EQ(deliver(Seconds(2)), Seconds(2)) << "a 2 s epoch's barrier binds";
}

TEST(LaneEngineTest, SetEpochReanchorsTheGrid) {
  Simulator sim(2, 2, Millis(100));
  Actions act(&sim);
  EXPECT_EQ(sim.epoch(), Millis(100));
  sim.SetEpoch(Millis(30));
  EXPECT_EQ(sim.epoch(), Millis(30));
  // Cross-lane mail now clamps to the finer grid: posted at 6 ms, delivered at the
  // 30 ms barrier instead of 100 ms.
  auto log = std::make_shared<std::vector<SimTime>>();
  auto post = [&sim, &act, log](SimTime at) {
    act.At(at, [&sim, &act, log] {
      act.In(Millis(1), [log, &sim] { log->push_back(sim.Now()); }, 1);
    }, 0);
  };
  post(Millis(5));
  sim.RunUntil(Millis(200));
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ((*log)[0], Millis(30));
  // A change mid-run anchors the new grid at the current barrier (200 ms), not at
  // zero: mail posted at 205 ms lands on 270 ms, not on 210 ms.
  sim.SetEpoch(Millis(70));
  post(Millis(205));
  sim.RunUntil(Millis(400));
  ASSERT_EQ(log->size(), 2u);
  EXPECT_EQ((*log)[1], Millis(270));
}

TEST(LaneEngineTest, TimersFireInBoundLanes) {
  Simulator sim(2, 2, Millis(50));
  auto lanes_seen = std::make_shared<std::vector<int>>();
  PeriodicTimer timer(&sim, [&sim, lanes_seen] {
    lanes_seen->push_back(sim.CurrentLane());
  });
  timer.BindLane(1);
  timer.Start(Millis(30));
  sim.RunUntil(Millis(100));
  ASSERT_GE(lanes_seen->size(), 3u);
  for (int lane : *lanes_seen) {
    EXPECT_EQ(lane, 1);
  }
}

// ---------- barrier-time lane re-binding ----------

TEST(LaneRebindTest, PendingEventsHandOffPreservingDeliveryTimes) {
  Simulator sim(2, 2, Millis(100));
  Actions act(&sim);
  auto fires = std::make_shared<std::vector<std::pair<int, SimTime>>>();
  for (int i = 1; i <= 3; ++i) {
    act.At(Millis(250 * i), [&sim, fires] {
      fires->emplace_back(sim.CurrentLane(), sim.Now());
    }, 0);
  }
  sim.RunUntil(Millis(100));  // a barrier; nothing has fired yet
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, act.Mine()), 3u);
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(fires->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*fires)[static_cast<size_t>(i)].first, 1)
        << "moved events execute in the new lane";
    EXPECT_EQ((*fires)[static_cast<size_t>(i)].second, Millis(250 * (i + 1)))
        << "delivery times survive the move";
  }
}

TEST(LaneRebindTest, UndrainedMailFollowsTheRebind) {
  Simulator sim(2, 2, Millis(100));
  Actions act(&sim);
  auto lanes_seen = std::make_shared<std::vector<int>>();
  // A lane-1 event posts cross-lane work at lane 0 mid-epoch; that mail waits in
  // lane 0's inbox for the next opening barrier — exactly when a re-bind happens.
  act.At(Millis(5), [&sim, &act, lanes_seen] {
    act.In(Millis(1),
           [lanes_seen, &sim] { lanes_seen->push_back(sim.CurrentLane()); }, 0);
  }, 1);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, act.Mine()), 1u);
  sim.RunUntil(Millis(300));
  ASSERT_EQ(lanes_seen->size(), 1u);
  EXPECT_EQ((*lanes_seen)[0], 1) << "undrained mail must deliver into the new lane";
}

TEST(LaneRebindTest, StaleHandlesAfterRebindAreNoOps) {
  Simulator sim(2, 1, Millis(100));
  Actions act(&sim);
  bool moved_fired = false;
  bool other_fired = false;
  EventHandle handle = act.At(Seconds(1), [&] { moved_fired = true; }, 0);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, act.Mine()), 1u);
  // The move released the source slot under a fresh generation; a later event may
  // reuse it.
  act.At(Seconds(2), [&] { other_fired = true; }, 0);
  // The pre-move handle is stale: cancelling through it must affect neither the
  // moved event nor the slot's new occupant (generation-scoped, same as after any
  // cancel/reuse cycle).
  handle.Cancel();
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(moved_fired) << "a stale handle must not cancel the moved event";
  EXPECT_TRUE(other_fired) << "a stale handle must not cancel the slot's new tenant";
}

TEST(LaneRebindTest, TimerRebindPreservesPhase) {
  Simulator sim(2, 2, Millis(50));
  auto fires = std::make_shared<std::vector<std::pair<int, SimTime>>>();
  PeriodicTimer timer(&sim, [&sim, fires] {
    fires->emplace_back(sim.CurrentLane(), sim.Now());
  });
  timer.BindLane(0);
  timer.Start(Millis(30));
  sim.RunUntil(Millis(100));  // fires at 30, 60, 90 in lane 0
  timer.Rebind(1);            // cooperative half: the timer owns its handle
  sim.RunUntil(Millis(200));  // fires at 120, 150, 180 in lane 1
  ASSERT_EQ(fires->size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*fires)[i].first, i < 3 ? 0 : 1);
    EXPECT_EQ((*fires)[i].second, Millis(30 * (static_cast<int>(i) + 1)))
        << "the duty-cycle phase must not shift across the re-bind";
  }
}

// The fingerprint workload with mid-run control-lane re-binds folded in: chain
// events migrate between lanes every 5 simulated seconds. Chains touch only their
// own padded cell and cross-lane posts touch nothing shared, so chains stay
// race-free even when re-binding doubles them up in one lane.
uint64_t RunRebindWorkload(int threads, uint64_t* executed = nullptr,
                           bool with_rebinds = true) {
  constexpr int kLanes = 4;
  Simulator sim(kLanes, threads, Millis(100));
  Actions act(&sim);
  auto cells = std::make_shared<std::array<LaneCell, kLanes>>();
  std::function<void(int)> tick = [&sim, &act, cells, &tick](int chain) {
    LaneCell& cell = (*cells)[static_cast<size_t>(chain)];
    ++cell.count;
    if (cell.count % 3 == 0) {
      act.In(Millis(7), [] {}, (chain + 1) % kLanes);
    }
    if (sim.Now() < Seconds(30)) {
      // Current-lane reschedule: after a re-bind the chain keeps running wherever
      // it was moved to.
      act.In(Millis(11 + chain), [&tick, chain] { tick(chain); });
    }
  };
  for (int chain = 0; chain < kLanes; ++chain) {
    act.At(Millis(1 + chain), [&tick, chain] { tick(chain); }, chain);
  }
  for (int k = 0; with_rebinds && k < 5; ++k) {
    act.At(Seconds(5 * (k + 1)), [&sim, &act, k] {
      sim.RebindMatchingEvents(k % kLanes, (k + 1) % kLanes, act.Mine());
    }, Simulator::kLaneControl);
  }
  sim.RunUntil(Seconds(31));
  if (executed != nullptr) {
    *executed = sim.events_executed();
  }
  return sim.fingerprint();
}

TEST(LaneRebindTest, FingerprintIdenticalAcrossWorkerCountsWithRebinds) {
  uint64_t executed1 = 0;
  uint64_t executed2 = 0;
  uint64_t executed8 = 0;
  const uint64_t fp1 = RunRebindWorkload(1, &executed1);
  const uint64_t fp2 = RunRebindWorkload(2, &executed2);
  const uint64_t fp8 = RunRebindWorkload(8, &executed8);
  EXPECT_GT(executed1, 1000u);
  EXPECT_EQ(executed1, executed2);
  EXPECT_EQ(executed1, executed8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
  EXPECT_EQ(fp2, RunRebindWorkload(2));
  EXPECT_EQ(fp8, RunRebindWorkload(8));
  // Re-binds are part of the replay contract: the same workload *without* them
  // must not collide with the re-bound fingerprint.
  EXPECT_NE(fp1, RunRebindWorkload(1, nullptr, /*with_rebinds=*/false));
}

// ---------- checkpoint restore ----------

// Restore-test sink: an event with payload.b != 0 posts one event of kind payload.b
// into lane 1 (cross-lane from lane 0: mailbox).
class PostingSink : public EventSink {
 public:
  explicit PostingSink(Simulator* sim) : sim_(sim) { sim_->RegisterSink(this); }
  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    (void)kind;
    if (payload.b != 0) {
      sim_->ScheduleEventAt(sim_->Now() + Millis(1), static_cast<EventKind>(payload.b),
                            this, EventPayload{}, 1);
    }
  }

 private:
  Simulator* sim_;
};

// Saved state holding exactly one event of `kind`: queued in lane 0, or (`mailed`)
// waiting in lane 1's mailbox for the next barrier.
std::vector<uint8_t> SavedWithOneEvent(EventKind kind, bool mailed) {
  Simulator sim(2, 1, Millis(100));
  PostingSink sink(&sim);
  EventPayload payload;
  payload.b = mailed ? static_cast<uint64_t>(kind) : 0;
  sim.ScheduleEventAt(Millis(5), mailed ? EventKind::kTimer : kind, &sink,
                      std::move(payload), 0);
  if (mailed) {
    sim.RunUntil(Millis(10));
  }
  EXPECT_EQ(sim.events_pending(), 1u);
  ByteWriter w;
  EXPECT_TRUE(sim.SaveState(w).ok());
  return w.TakeBuffer();
}

Status RestoreInto(const std::vector<uint8_t>& bytes) {
  Simulator sim(2, 1, Millis(100));
  PostingSink sink(&sim);
  ByteReader r{span<const uint8_t>(bytes)};
  return ReadStatus(r, sim);
}

TEST(SimulatorCheckpointTest, RestoreRejectsOutOfRangeEventKinds) {
  for (const bool mailed : {false, true}) {
    std::vector<uint8_t> bytes = SavedWithOneEvent(EventKind::kTimer, mailed);
    const std::vector<uint8_t> other = SavedWithOneEvent(EventKind::kFrame, mailed);
    ASSERT_EQ(bytes.size(), other.size());
    // The kind is the only byte the two saves differ in.
    std::vector<size_t> diff;
    for (size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != other[i]) {
        diff.push_back(i);
      }
    }
    ASSERT_EQ(diff.size(), 1u);
    ASSERT_TRUE(RestoreInto(bytes).ok());
    for (const uint8_t kind : {0, 6, 127}) {
      bytes[diff[0]] = kind;
      const Status status = RestoreInto(bytes);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "kind " << int{kind} << (mailed ? " in a mailbox: " : " in a queue: ")
          << status.ToString();
    }
  }
}

// One lane-0 queue record of a PostingSink event (sink id 0, an all-zero payload) as
// SaveState writes it.
std::vector<uint8_t> QueueRecord(SimTime time, uint64_t seq) {
  ByteWriter w;
  CkptWrite(w, time);
  CkptWrite(w, seq);
  CkptWrite(w, EventKind::kTimer);
  CkptWrite(w, uint64_t{0});
  CkptWrite(w, EventPayload{});
  return w.TakeBuffer();
}

// The run queue rebuilds a lane's runs from its records in file order, so a lane
// whose records are not strictly ascending in (time, seq), or that holds a seq the
// lane's counter would hand out again, is refused rather than replayed out of order.
TEST(SimulatorCheckpointTest, RestoreRefusesOutOfOrderQueueRecords) {
  Simulator sim(2, 1, Millis(100));
  PostingSink sink(&sim);
  sim.ScheduleEventAt(Millis(5), EventKind::kTimer, &sink, EventPayload{}, 0);
  sim.ScheduleEventAt(Millis(5), EventKind::kTimer, &sink, EventPayload{}, 0);
  sim.ScheduleEventAt(Millis(7), EventKind::kTimer, &sink, EventPayload{}, 0);
  ByteWriter w;
  ASSERT_TRUE(sim.SaveState(w).ok());
  const std::vector<uint8_t> saved = w.TakeBuffer();
  ASSERT_TRUE(RestoreInto(saved).ok());

  const std::vector<uint8_t> a = QueueRecord(Millis(5), 0);
  const std::vector<uint8_t> b = QueueRecord(Millis(5), 1);
  const std::vector<uint8_t> c = QueueRecord(Millis(7), 2);
  std::vector<uint8_t> abc = a;
  abc.insert(abc.end(), b.begin(), b.end());
  abc.insert(abc.end(), c.begin(), c.end());
  const auto at = std::search(saved.begin(), saved.end(), abc.begin(), abc.end());
  ASSERT_NE(at, saved.end()) << "lane 0's three records are not where expected";
  const auto with_records =
      [&](std::initializer_list<const std::vector<uint8_t>*> records) {
        std::vector<uint8_t> bytes(saved.begin(), at);
        for (const std::vector<uint8_t>* record : records) {
          bytes.insert(bytes.end(), record->begin(), record->end());
        }
        bytes.insert(bytes.end(), at + static_cast<std::ptrdiff_t>(abc.size()),
                     saved.end());
        EXPECT_EQ(bytes.size(), saved.size());
        return bytes;
      };
  ASSERT_EQ(with_records({&a, &b, &c}), saved);
  const std::vector<uint8_t> c_at_next_seq = QueueRecord(Millis(7), 3);
  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
  } cases[] = {
      {"same-time pair swapped", with_records({&b, &a, &c})},
      {"times swapped", with_records({&a, &c, &b})},
      {"record repeated", with_records({&a, &a, &c})},
      {"seq at next_seq", with_records({&a, &b, &c_at_next_seq})},
  };
  for (const auto& item : cases) {
    const Status status = RestoreInto(item.bytes);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << item.what << ": "
                                                    << status.ToString();
  }
}

// Mail-count sink: an event with payload.b != 0 posts one event into lane payload.c,
// payload.b us later (cross-lane from a running lane: mailbox); every event logs the
// lane and time it ran at.
class MailLog : public EventSink {
 public:
  explicit MailLog(Simulator* sim) : sim_(sim) { sim_->RegisterSink(this); }
  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    (void)kind;
    {
      std::lock_guard<std::mutex> lock(m_);
      runs.emplace_back(sim_->CurrentLane(), sim_->Now());
    }
    if (payload.b != 0) {
      sim_->ScheduleEventAt(sim_->Now() + static_cast<Duration>(payload.b),
                            EventKind::kTimer, this, EventPayload{},
                            static_cast<int>(payload.c));
    }
  }
  void PostFrom(int lane, SimTime at, Duration delay, int target) {
    EventPayload payload;
    payload.b = static_cast<uint64_t>(delay);
    payload.c = static_cast<uint64_t>(target);
    sim_->ScheduleEventAt(at, EventKind::kTimer, this, std::move(payload), lane);
  }

  std::vector<std::pair<int, SimTime>> runs;

 private:
  Simulator* sim_;
  std::mutex m_;  // lanes run concurrently
};

// Restored mail counts as posted: the next-event time and the pending count see it,
// and the next barrier drains it. A restore that lost the count would report the
// simulator idle and never deliver the mail.
TEST(SimulatorCheckpointTest, RestoredMailIsDrained) {
  for (const int threads : {1, 4}) {
    Simulator sim(4, threads, Millis(100));
    MailLog log(&sim);
    log.PostFrom(0, Millis(5), Millis(245), 1);
    log.PostFrom(2, Millis(7), Millis(493), 1);
    sim.RunUntil(Millis(10));  // both posts wait in lane 1's inbox
    ASSERT_EQ(sim.events_pending(), 2u);
    ByteWriter w;
    ASSERT_TRUE(sim.SaveState(w).ok());
    sim.RunAll();

    Simulator restored(4, threads, Millis(100));
    MailLog restored_log(&restored);
    ByteReader r(w.buffer());
    ASSERT_TRUE(ReadStatus(r, restored).ok());
    EXPECT_EQ(restored.NextEventTime(), Millis(250)) << threads;
    EXPECT_EQ(restored.events_pending(), 2u) << threads;
    restored.RunAll();
    const std::vector<std::pair<int, SimTime>> want = {
        {1, Millis(250)},
        {1, Millis(500)},
    };
    EXPECT_EQ(restored_log.runs, want) << threads;
    EXPECT_EQ(restored.fingerprint(), sim.fingerprint()) << threads;
  }
}

// A rebind moves undrained mail to another target, never to another source, so the
// source's count still covers it: the next-event time still sees it, and the next
// barrier drains it into the new lane.
TEST(LaneRebindTest, RebindKeepsMailCounted) {
  for (const int threads : {1, 4}) {
    Simulator sim(4, threads, Millis(100));
    MailLog log(&sim);
    log.PostFrom(0, Millis(5), Millis(245), 1);
    sim.RunUntil(Millis(10));
    const auto all = [](EventKind, const EventSink*, const EventPayload&) {
      return true;
    };
    EXPECT_EQ(sim.RebindMatchingEvents(1, 2, all), 1u);
    EXPECT_EQ(sim.NextEventTime(), Millis(250));
    EXPECT_EQ(sim.events_pending(), 1u);
    sim.RunAll();
    const std::vector<std::pair<int, SimTime>> want = {{0, Millis(5)}, {2, Millis(250)}};
    EXPECT_EQ(log.runs, want) << threads;
    EXPECT_EQ(sim.events_pending(), 0u);
    EXPECT_EQ(sim.NextEventTime(), -1);
  }
}

// Back-to-back runs hand off while the helpers poll; gaps longer than the poll
// window park them, and slow items park the caller on the done count. Every item
// must run exactly once per run on every path.
TEST(ClaimPoolTest, EveryItemRunsOnceAcrossPollAndParkHandoffs) {
  ClaimPool pool(3);
  const auto park_gap = std::chrono::microseconds(4 * ClaimPool::kSpinWindow);
  for (int round = 0; round < 300; ++round) {
    const int n = round % 7;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    const bool slow = round % 10 == 3;
    pool.Run(n, [&](int i) {
      if (slow) {
        std::this_thread::sleep_for(park_gap);
      }
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "round " << round;
    }
    if (round % 25 == 0) {
      std::this_thread::sleep_for(park_gap);
    }
  }
}

}  // namespace
}  // namespace presto
