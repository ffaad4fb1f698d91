// The interleaved campaign scheduler — the zmap/zgrab2 "thousands of hosts
// in flight" model for the simulated Internet.
//
// Hosts are enqueued in sweep order; up to `max_in_flight` of them hold a
// live ProbeTask at any instant. Each task's pacing gaps (500 ms between
// requests, §A.2) become wake-up events on the Network's event heap instead
// of blocking clock advances, so the simulated wall-clock of a campaign is
// the *overlap* of the per-host timelines — the same reason the paper's
// weekly sweep fits a 24 h window despite 110 s average per-host time.
//
// Determinism: task ids are assigned in launch order (the RNG stream of a
// grab depends only on its id) and every budget decision is task-local, so
// the records a campaign produces are identical for any max_in_flight — a
// property the regression tests pin down. With max_in_flight = 1 the event
// timeline degenerates to the sequential scanner's, byte for byte.
//
// The scheduler is protocol-agnostic: every target names a protocol and
// the scheduler drives whatever ProbeTask make_probe_task builds for it.
// Heterogeneous targets (OPC UA + MQTT/TLS) share one event heap and one
// id sequence, so a mixed fleet interleaves deterministically under the
// same launch-order contract.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "scanner/protocol.hpp"

namespace opcua_study {

class ScanScheduler {
 public:
  ScanScheduler(GrabberConfig config, Network& network, std::uint64_t seed,
                std::size_t max_in_flight = 256);

  /// Queue a host for grabbing. Order matters: ids (and therefore RNG
  /// streams) are assigned in this order. `protocol` selects the backend
  /// that drives the grab.
  void enqueue(Ipv4 ip, std::uint16_t port, ProtocolId protocol = ProtocolId::opcua);

  /// Run until every queued host is done; returns records in enqueue
  /// order. May be called again after feeding more targets (the campaign's
  /// reference-following wave reuses the scheduler, continuing the id
  /// sequence exactly like the sequential scanner's grab counter did).
  std::vector<HostScanRecord> drain();

 private:
  struct Target {
    Ipv4 ip = 0;
    std::uint16_t port = 0;
    ProtocolId protocol = ProtocolId::opcua;
  };

  void launch_next();
  void step_task(const std::shared_ptr<ProbeTask>& task, std::size_t result_index);

  GrabberConfig config_;
  Network& network_;
  std::uint64_t seed_;
  std::size_t max_in_flight_;
  std::uint64_t task_counter_ = 0;

  std::deque<Target> pending_;
  std::vector<HostScanRecord> results_;
  std::size_t next_result_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace opcua_study
