// The grab core of the scan engine, shared by every protocol backend.
//
// A ProbeTask is one resumable per-host grab that the ScanScheduler
// drives. The base class owns everything a grab does regardless of its
// protocol, once:
//   - the record and the connection;
//   - the task-local clock: each step() runs one unit of protocol work
//     against a deferred connection (netsim charges RTT and transfer time
//     to the connection, not to the global clock) and returns how much
//     simulated time must pass before the next step;
//   - dial(): connect, with SYN drops and listener flaps counted and
//     charged;
//   - fault banking, the retry budget, the endpoint-keyed
//     "retry-<ip>:<port>" backoff jitter, and worst-wins grading when the
//     budget runs out.
// A backend (HostGrabTask for OPC UA, MqttGrabTask for MQTT over TLS)
// keeps only its phases, the record fields a retry resets, and its own
// byte accounting. make_probe_task() picks the backend for a protocol id.
//
// Determinism contract for every backend: a task's record must be a pure
// function of (config, seed, task_id, ip, port) plus the simulated
// network's responses — never of scheduling order. RNG streams are keyed
// by task id (assigned in launch order) or by endpoint, like the OPC UA
// backend's "grab-N" and the shared "retry-<ip>:<port>" streams, so
// mixed-fleet campaigns interleave heterogeneous grabs and still
// reproduce the same bytes for any max_in_flight, thread count or shard
// layout. None of the fault machinery draws RNG or charges time on a
// fault-free network.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "netsim/network.hpp"
#include "scanner/grabber.hpp"
#include "scanner/record.hpp"
#include "util/rng.hpp"

namespace opcua_study {

class ProbeTask {
 public:
  struct Step {
    /// Simulated time consumed by this step plus the pacing delay before
    /// the next one: schedule the next step() this far in the future.
    std::uint64_t wait_us = 0;
    bool done = false;
  };

  virtual ~ProbeTask() = default;
  ProbeTask(const ProbeTask&) = delete;
  ProbeTask& operator=(const ProbeTask&) = delete;

  /// Run the current phase. A NetFault (timeout or reset) escaping it goes
  /// to the backend's on_net_fault().
  Step step();
  HostScanRecord take_record() { return std::move(record_); }

 protected:
  /// `config` must outlive the task (it holds the scanner identity —
  /// certificate + key — shared by every host in flight).
  ProbeTask(const GrabberConfig& config, Network& network, std::uint64_t seed, Ipv4 ip,
            std::uint16_t port, ProtocolId protocol);

  enum class Dial { open, refused, faulted };
  /// Connect to the task's endpoint. faulted: a SYN drop or listener flap,
  /// counted as one fault and charged the connect timeout or one RTT.
  /// refused: the port is closed, charged one RTT for the RST. open: the
  /// record is marked tcp_open, the connection gets the request timeout
  /// and the handshake is charged.
  Dial dial();
  /// Move the connection's deferred time into this step's consumption.
  void charge() { consumed_us_ += conn_->take_elapsed(); }
  /// End the step: attempt budget of the unit resets, consumed time plus
  /// `pace_us` is banked and reported.
  Step yield(std::uint64_t pace_us);
  /// End the grab: banks unaccounted faults (not bytes), drops the
  /// connection, and stamps the task-local duration when asked.
  Step finish(bool with_duration);

  /// True (and banks the count) when the connection saw injected faults
  /// not yet accounted — the signal that a bad status is retryable.
  bool fresh_fault();
  /// Charge the connection's time, bank its faults and bytes, drop it.
  void bank_connection();
  bool can_retry() const;
  /// Spend one retry: bank and drop the connection when `drop`, then wait
  /// out the backoff. The caller checks can_retry() and sets the phase.
  Step retry(bool drop);
  /// Worst-wins: the record keeps the most severe grade any phase earned.
  void degrade(ProbeOutcome grade);
  /// Retry budget spent: bank the connection and grade the record by
  /// phase_rank(), then finish.
  Step give_up();

  const GrabberConfig& config_;
  Network& network_;
  const Ipv4 ip_;
  const std::uint16_t port_;
  HostScanRecord record_;
  std::unique_ptr<NetConnection> conn_;
  std::uint64_t elapsed_us_ = 0;   // task-local clock
  std::uint64_t consumed_us_ = 0;  // charged during the current step

 private:
  /// The current phase's unit of work.
  virtual Step step_phase() = 0;
  /// A NetFault escaped the current phase: retry or give up.
  virtual Step on_net_fault() = 0;
  /// How far the grab got, for give_up(): 0 = first phase (unreachable,
  /// or degraded if the host already spoke the protocol), 1 = second
  /// phase (degraded), 2 = later (truncated).
  virtual int phase_rank() const = 0;
  /// Destroy the connection and anything holding a reference to it.
  virtual void drop_connection() { conn_.reset(); }

  void note_faults(std::uint32_t n);

  Rng retry_rng_;                       // only drawn when a retry happens
  int attempt_ = 0;                     // retries spent on the current unit
  std::uint32_t conn_faults_seen_ = 0;  // faults already banked on conn_
};

/// One scan target: which backend to drive against which port.
struct ProtocolTarget {
  ProtocolId protocol = ProtocolId::opcua;
  std::uint16_t port = kOpcUaDefaultPort;

  friend bool operator==(const ProtocolTarget&, const ProtocolTarget&) = default;
};

/// The grab of (ip, port) by `protocol`'s backend. `task_id` feeds the
/// per-grab RNG streams; the scheduler assigns ids in launch order. An
/// unknown id throws std::invalid_argument naming it.
std::unique_ptr<ProbeTask> make_probe_task(ProtocolId protocol, const GrabberConfig& config,
                                           Network& network, std::uint64_t seed,
                                           std::uint64_t task_id, Ipv4 ip, std::uint16_t port);

/// Scheme-aware endpoint URL parse result.
struct ParsedEndpoint {
  ProtocolId protocol = ProtocolId::opcua;
  Ipv4 ip = 0;
  std::uint16_t port = 0;

  friend bool operator==(const ParsedEndpoint&, const ParsedEndpoint&) = default;
};

/// Parse "opc.tcp://a.b.c.d[:port]/..." or "mqtts://a.b.c.d[:port]/..."
/// into (protocol, ip, port). The port default follows the scheme
/// (opc.tcp -> 4840, mqtts -> 8883). Rejects hostname URLs (the study
/// follows IPs only; a hostname that starts with a dotted quad is still a
/// hostname), unknown schemes, and ports that are not 1-65535 in decimal
/// digits alone.
std::optional<ParsedEndpoint> parse_endpoint_url(const std::string& url);

}  // namespace opcua_study
