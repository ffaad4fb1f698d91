#include "scanner/scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace opcua_study {

ScanScheduler::ScanScheduler(GrabberConfig config, Network& network, std::uint64_t seed,
                             std::size_t max_in_flight)
    : config_(std::move(config)),
      network_(network),
      seed_(seed),
      max_in_flight_(std::max<std::size_t>(1, max_in_flight)) {}

void ScanScheduler::enqueue(Ipv4 ip, std::uint16_t port, ProtocolId protocol) {
  pending_.push_back(Target{ip, port, protocol});
}

void ScanScheduler::launch_next() {
  if (pending_.empty()) return;
  const Target target = pending_.front();
  pending_.pop_front();
  const std::size_t result_index = next_result_++;
  // The id sequence is shared across backends, so a mixed fleet assigns
  // the same ids — and draws the same task-keyed RNG streams — as any
  // other launch of the same sweep.
  std::shared_ptr<ProbeTask> task = make_probe_task(target.protocol, config_, network_, seed_,
                                                    ++task_counter_, target.ip, target.port);
  obs::add(obs::Metric::scan_tasks_launched, 1, static_cast<unsigned>(target.protocol));
  obs::gauge_peak(obs::Metric::scheduler_in_flight_peak, next_result_ - completed_);
  // First step fires "now": the sweep already paid the probe cost.
  network_.scheduler().schedule_in(0, [this, task, result_index] {
    step_task(task, result_index);
  });
}

void ScanScheduler::step_task(const std::shared_ptr<ProbeTask>& task,
                              std::size_t result_index) {
  obs::add(obs::Metric::scan_task_wakeups);
  const ProbeTask::Step step = task->step();
  if (!step.done) {
    network_.scheduler().schedule_in(step.wait_us, [this, task, result_index] {
      step_task(task, result_index);
    });
    return;
  }
  // The grab completes wait_us in the future (the final exchanges' cost);
  // only then does its in-flight slot free up for the next pending host.
  network_.scheduler().schedule_in(step.wait_us, [this, task, result_index] {
    results_[result_index] = task->take_record();
    if (obs::enabled()) {
      const HostScanRecord& record = results_[result_index];
      // Task-local duration: invariant across in-flight windows and shard
      // layouts, unlike the global event-heap timeline.
      obs::observe_us(obs::Metric::scan_completion_us,
                      static_cast<std::uint64_t>(record.duration_seconds * 1e6),
                      static_cast<unsigned>(record.protocol));
    }
    if (obs::trace_enabled()) {
      const HostScanRecord& record = results_[result_index];
      obs::trace(obs::TraceEvent::host_complete, network_.clock().now_us(), record.ip,
                 record.port, static_cast<std::uint64_t>(record.completeness), record.retries);
    }
    ++completed_;
    launch_next();
  });
}

std::vector<HostScanRecord> ScanScheduler::drain() {
  results_.clear();
  results_.resize(pending_.size());
  next_result_ = 0;
  completed_ = 0;
  const std::size_t initial = std::min(max_in_flight_, pending_.size());
  for (std::size_t i = 0; i < initial; ++i) launch_next();
  while (completed_ < results_.size()) {
    if (!network_.scheduler().run_next()) break;  // heap drained unexpectedly
  }
  return std::move(results_);
}

}  // namespace opcua_study
