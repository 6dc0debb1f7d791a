// The service timers' clock arithmetic: a millisecond knob becomes a due
// time once, through DueAfter (a duration past the clock's range means
// "never"), and an interval is measured in milliseconds by MillisBetween.

#ifndef FRT_COMMON_DEADLINE_H_
#define FRT_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace frt {

/// The due time that never comes (`now >= kNever` never holds): what an
/// unarmed timer holds.
inline constexpr std::chrono::steady_clock::time_point kNever =
    std::chrono::steady_clock::time_point::max();

/// \brief `from` plus `ms` milliseconds, saturated at kNever: a sum past
/// the steady clock's range (about 292 years) means "never". A negative
/// `ms` counts as 0. `from` must not precede the clock's epoch.
inline std::chrono::steady_clock::time_point DueAfter(
    std::chrono::steady_clock::time_point from, int64_t ms) {
  if (ms <= 0) return from;
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(kNever - from);
  if (ms > headroom.count()) return kNever;
  return from + std::chrono::milliseconds(ms);
}

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
inline double MillisBetween(std::chrono::steady_clock::time_point from,
                            std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace frt

#endif  // FRT_COMMON_DEADLINE_H_
