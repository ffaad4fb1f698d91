// Simulated wall clock.
//
// The paper's ethics constraints are *time* constraints — 500 ms between
// requests to a host, 60 min / 50 MB caps per host, scans spread over 24 h.
// The simulation reproduces them against this clock instead of real time,
// so a full weekly sweep of the synthetic Internet runs in seconds while
// still exercising the same budget logic.
#pragma once

#include <cstdint>

#include "util/date.hpp"

namespace opcua_study {

class SimClock {
 public:
  /// Time starts at `start_days` (days since 1970) midnight.
  explicit SimClock(std::int64_t start_days = days_from_civil({2020, 2, 9}))
      : start_days_(start_days), micros_(0) {}

  void advance_us(std::uint64_t us) { micros_ += us; }
  void advance_ms(std::uint64_t ms) { micros_ += ms * 1000; }
  /// Move forward to an absolute timestamp; never goes backwards.
  void advance_to(std::uint64_t us) {
    if (us > micros_) micros_ = us;
  }

  std::uint64_t now_us() const { return micros_; }
  std::int64_t today_days() const {
    return start_days_ + static_cast<std::int64_t>(micros_ / (86400ULL * 1000000ULL));
  }
  /// OPC UA DateTime (FILETIME ticks) for "now".
  std::int64_t now_filetime() const {
    return filetime_from_days(start_days_) + static_cast<std::int64_t>(micros_) * 10;
  }

  void reset(std::int64_t start_days) {
    start_days_ = start_days;
    micros_ = 0;
  }

 private:
  std::int64_t start_days_;
  std::uint64_t micros_;
};

}  // namespace opcua_study
