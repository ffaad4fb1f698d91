// Event scheduler for the simulated Internet.
//
// The concurrent scan engine keeps hundreds of hosts in flight at once by
// modelling every pending action (a paced request, a task wake-up, a grab
// completion) as a timed event on a min-heap. Popping the earliest event
// advances the simulated clock to the event's timestamp, so simulated time
// is the max over all interleaved per-host timelines instead of their sum —
// exactly how the paper's zmap/zgrab2 deployment spreads thousands of
// in-flight hosts across a 24 h scan window (§A.2). See DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netsim/clock.hpp"

namespace opcua_study {

class EventScheduler {
 public:
  using Callback = std::function<void()>;

  explicit EventScheduler(SimClock& clock) : clock_(clock) {}

  /// Run `fn` once the clock reaches `at_us` (clamped to "not in the past").
  void schedule_at(std::uint64_t at_us, Callback fn);
  /// Run `fn` after `delay_us` microseconds of simulated time.
  void schedule_in(std::uint64_t delay_us, Callback fn);

  /// Pop the earliest event, advance the clock to its timestamp, run it.
  /// Returns false when no event is pending. Events scheduled for the same
  /// microsecond run in FIFO order.
  bool run_next();

  /// Drain the heap; returns the number of events executed.
  std::size_t run_until_idle();

  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    std::uint64_t at_us = 0;
    std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_us != b.at_us) return a.at_us > b.at_us;
      return a.seq > b.seq;
    }
  };

  SimClock& clock_;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;  // managed with std::push_heap / std::pop_heap
};

}  // namespace opcua_study
