// Periodic timer built on the simulator, used for sensing loops, LPL wakeups, model
// refit schedules, and duty-cycle beacons. The period can be changed while running
// (query-sensor matching retunes sensors this way).
//
// Fires as a typed, pool-allocated kTimer event (no per-fire allocation). In lane
// mode the timer is bound to its owner's lane with BindLane() so that fires execute
// with the owner's other events; by default it fires in whatever lane Start() was
// called from (the control lane when started from outside the simulator).

#ifndef SRC_SIM_TIMER_H_
#define SRC_SIM_TIMER_H_

#include <functional>

#include "src/sim/simulator.h"

namespace presto {

class PeriodicTimer : public EventSink {
 public:
  // Does not start; call Start(). `sim` must outlive the timer.
  PeriodicTimer(Simulator* sim, std::function<void()> callback);
  ~PeriodicTimer() override { Stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  // Pins fires to `lane` (a worker lane index, or Simulator::kLaneControl). Call
  // before Start(); the deployment binds node timers to their shard's lane.
  void BindLane(int lane) { lane_ = lane; }

  // Moves a (possibly running) timer to `new_lane`: cancels the pending fire and
  // reschedules it at the same absolute fire time (clamped to now) in the new lane.
  // Control context only — this is the cooperative half of barrier-time lane
  // re-binding (the timer owns its handle, so Simulator::RebindMatchingEvents must
  // not move kTimer events out from under it).
  void Rebind(int new_lane);

  // Begins firing every `period`, first fire after `initial_delay` (defaults to one
  // period). Restarting a running timer reschedules it.
  void Start(Duration period, Duration initial_delay = -1);

  // Cancels the pending fire; idempotent.
  void Stop();

  // Changes the period. Takes effect for the *next* fire; the currently pending fire
  // is rescheduled relative to now.
  void SetPeriod(Duration period);

  bool running() const { return running_; }
  Duration period() const { return period_; }

  void OnSimEvent(EventKind kind, EventPayload& payload) override;

  // Checkpoint: period / running flag / absolute next-fire time. The pending fire
  // itself lives in the simulator's queue; LoadState drops the stale handle and
  // OnEventRestored re-captures it when the engine restores the kTimer event.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);
  void OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                       const EventHandle& handle, int lane) override;

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.period_);
    f(self.next_fire_at_);
    f(self.lane_);
    f(self.running_);
  }

  void Fire();
  void ScheduleNext(Duration delay);

  Simulator* sim_;
  std::function<void()> callback_;
  EventHandle pending_;
  Duration period_ = 0;
  SimTime next_fire_at_ = 0;  // absolute time of the pending fire (for Rebind)
  int lane_ = Simulator::kLaneCurrent;
  bool running_ = false;
};

}  // namespace presto

#endif  // SRC_SIM_TIMER_H_
