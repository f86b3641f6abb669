#include "src/sim/timer.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

PeriodicTimer::PeriodicTimer(Simulator* sim, std::function<void()> callback)
    : sim_(sim), callback_(std::move(callback)) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK(callback_ != nullptr);
  sim_->RegisterSink(this);
}

void PeriodicTimer::Start(Duration period, Duration initial_delay) {
  PRESTO_CHECK_MSG(period > 0, "timer period must be positive");
  Stop();
  period_ = period;
  running_ = true;
  ScheduleNext(initial_delay >= 0 ? initial_delay : period);
}

void PeriodicTimer::Stop() {
  pending_.Cancel();
  running_ = false;
}

void PeriodicTimer::SetPeriod(Duration period) {
  PRESTO_CHECK_MSG(period > 0, "timer period must be positive");
  period_ = period;
  if (running_) {
    pending_.Cancel();
    ScheduleNext(period_);
  }
}

void PeriodicTimer::Rebind(int new_lane) {
  if (lane_ == new_lane) {
    return;
  }
  lane_ = new_lane;
  if (!running_) {
    return;
  }
  // Preserve the absolute fire time across the move: duty-cycle phase must not
  // shift just because the owner changed lanes (clamp covers a fire that was due
  // exactly at this barrier).
  pending_.Cancel();
  next_fire_at_ = std::max(next_fire_at_, sim_->Now());
  pending_ = sim_->ScheduleEventAt(next_fire_at_, EventKind::kTimer, this, lane_);
}

void PeriodicTimer::OnSimEvent(EventKind kind, EventPayload& payload) {
  (void)kind;
  (void)payload;
  Fire();
}

void PeriodicTimer::Fire() {
  if (!running_) {
    return;
  }
  ScheduleNext(period_);
  callback_();
}

void PeriodicTimer::ScheduleNext(Duration delay) {
  next_fire_at_ = sim_->Now() + delay;
  pending_ = sim_->ScheduleEventAt(next_fire_at_, EventKind::kTimer, this, lane_);
}

void PeriodicTimer::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void PeriodicTimer::LoadState(ByteReader& r) {
  pending_ = EventHandle();  // stale pre-restore handle: drop without cancelling
  StateFields(*this, CkptReader(r));
}

void PeriodicTimer::OnEventRestored(SimTime t, EventKind kind,
                                    const EventPayload& payload,
                                    const EventHandle& handle, int lane) {
  (void)kind;
  (void)payload;
  next_fire_at_ = t;
  pending_ = handle;
  lane_ = lane;
}

}  // namespace presto
