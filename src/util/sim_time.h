// Simulated time.
//
// All PRESTO components express time as a SimTime: microseconds since the start of the
// simulation. Sensor-local (drifting) clocks are modeled separately in index/time_sync;
// everything else in the system operates on true simulation time.

#ifndef SRC_UTIL_SIM_TIME_H_
#define SRC_UTIL_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace presto {

// Absolute simulated time in microseconds. 2^63 us ~ 292k years; overflow is not
// a concern.
using SimTime = int64_t;

// A span of simulated time in microseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

constexpr Duration Micros(double us) { return static_cast<Duration>(us); }
constexpr Duration Millis(double ms) { return static_cast<Duration>(ms * kMillisecond); }
constexpr Duration Seconds(double s) { return static_cast<Duration>(s * kSecond); }
constexpr Duration Minutes(double m) { return static_cast<Duration>(m * kMinute); }
constexpr Duration Hours(double h) { return static_cast<Duration>(h * kHour); }
constexpr Duration Days(double d) { return static_cast<Duration>(d * kDay); }

constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }
constexpr double ToMillis(Duration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToMinutes(Duration d) { return static_cast<double>(d) / kMinute; }
constexpr double ToHours(Duration d) { return static_cast<double>(d) / kHour; }
constexpr double ToDays(Duration d) { return static_cast<double>(d) / kDay; }

// Advances `t` by `n` steps of `step` (both decoded from bytes); false, with `t`
// untouched, when the result would overflow SimTime — how a decoder bounds a time it
// rebuilds from a count and a period or from a delta.
inline bool AdvanceTime(SimTime& t, uint64_t n, Duration step) {
  int64_t span = 0;
  SimTime sum = 0;
  if (n > static_cast<uint64_t>(INT64_MAX) ||
      __builtin_mul_overflow(static_cast<int64_t>(n), step, &span) ||
      __builtin_add_overflow(t, span, &sum)) {
    return false;
  }
  t = sum;
  return true;
}

// Renders a time as "Nd HH:MM:SS.mmm" for logs and tables.
std::string FormatTime(SimTime t);

// Renders a duration compactly with an adaptive unit ("350ms", "16.5min", "1.2d").
std::string FormatDuration(Duration d);

}  // namespace presto

#endif  // SRC_UTIL_SIM_TIME_H_
