// Resumable per-host grab — the zgrab2 OPC UA module as an explicit state
// machine.
//
// One task owns the full grab pipeline of a single host (paper §4):
// HEL → OPN(None) + GetEndpoints → secure-channel re-probe with the
// scanner's certificate → anonymous session → paced address-space
// traversal. Instead of blocking between paced requests, the task yields:
// step() executes one unit of protocol work against a *deferred*
// connection (netsim charges RTT + transfer time to the connection, not to
// the global clock) and returns how much simulated time must pass before
// the next step. The ScanScheduler converts those waits into events on the
// Network's event heap, keeping hundreds of hosts in flight at once.
//
// Every budget decision (500 ms pacing, 60 min / 50 MB caps, §A.2) is made
// against the task's *local* timeline, which makes a host's record — bytes,
// duration, truncation — independent of how many other hosts are in flight.
//
// On a fault-injected Network (netsim/faults.hpp) the task is resilient:
// every request runs under a per-request timeout budget, failures that the
// connection attributes to injected faults are retried with exponential
// backoff plus deterministic jitter (drawn from the endpoint-keyed
// "retry-<ip>:<port>" stream), a mid-assessment reset reconnects and
// resumes the traversal
// where it left off, and hosts that exhaust their retry budget finish with
// a graded ProbeOutcome instead of a crash. None of this machinery draws
// RNG or charges time on a fault-free network, so fault-free records stay
// byte-identical to the pre-fault engine.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>

#include "netsim/network.hpp"
#include "opcua/client.hpp"
#include "scanner/grabber.hpp"
#include "scanner/protocol.hpp"
#include "scanner/record.hpp"
#include "util/rng.hpp"

namespace opcua_study {

class HostGrabTask : public ProbeTask {
 public:
  using Step = ProbeTask::Step;

  /// `task_id` feeds the per-grab RNG streams ("grab-N" / "sess-N"); the
  /// scheduler assigns ids in launch order so a concurrent campaign draws
  /// the same nonces as the sequential one. `config` must outlive the task
  /// (it holds the scanner identity — certificate + key — shared by every
  /// host in flight).
  HostGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
               std::uint64_t task_id, Ipv4 ip, std::uint16_t port);
  ~HostGrabTask() override;

  HostGrabTask(const HostGrabTask&) = delete;
  HostGrabTask& operator=(const HostGrabTask&) = delete;

  /// Execute the next unit of work (everything up to the next pacing gap).
  Step step() override;

  bool done() const override { return phase_ == Phase::Done; }
  Ipv4 ip() const { return ip_; }
  std::uint16_t port() const { return port_; }
  /// Task-local simulated time since the task started.
  std::uint64_t elapsed_us() const { return elapsed_us_; }
  const HostScanRecord& record() const { return record_; }
  HostScanRecord take_record() override { return std::move(record_); }

 private:
  enum class Phase {
    Discovery,       // connect + HEL + OPN(None) + GetEndpoints
    SecureProbe,     // reconnect on the strongest endpoint + session
    ReadNamespaces,  // paced NamespaceArray read
    ReadVersion,     // paced SoftwareVersion read
    TraverseBrowse,  // paced Browse of the current node
    TraverseRead,    // paced UserAccessLevel / UserExecutable read
    Reconnect,       // re-establish channel + session, then resume_phase_
    Done,
  };

  Step step_discovery();
  Step step_secure_probe();
  Step step_read_namespaces();
  Step step_read_version();
  /// The breadth-first traversal loop; `browse_first` resumes after the
  /// paced Browse wake-up.
  Step traverse_loop(bool browse_first);
  Step step_traverse_read();
  Step step_reconnect();

  // ---- fault resilience (no-ops on a fault-free network) ----
  /// Schedule a retry of `next` after the backoff delay. When
  /// `drop_connection`, the current connection's time/bytes/faults are
  /// banked first and the client is torn down.
  Step retry_to(Phase next, bool drop_connection);
  /// A NetTimeout/NetReset escaped the current phase: pick the retry target
  /// (same phase, or Reconnect for mid-assessment faults) or give up.
  Step on_net_fault();
  /// Retry budget exhausted: grade the record by how far we got and finish.
  Step give_up();
  Step reconnect_failed();
  bool can_retry() const;
  std::uint64_t backoff_us();
  std::uint64_t connect_timeout_us() const;
  /// True (and banks the count) when the connection saw injected faults we
  /// have not yet accounted — the signal that a bad status is retryable.
  bool fresh_fault();
  void note_faults(std::uint32_t n);
  void degrade(ProbeOutcome grade);
  void reset_discovery_state();
  void reset_probe_state();

  /// Move the connection's deferred time into this step's consumption.
  void charge(NetConnection& conn) { consumed_us_ += conn.take_elapsed(); }
  /// End the step: bank consumed time (+ pacing) and report it to the caller.
  Step yield(std::uint64_t pace_us, Phase next);
  Step finish(bool with_duration);
  Step finish_assess();
  bool budget_exhausted() const;
  const EndpointObservation* strongest_endpoint() const;

  const GrabberConfig& config_;
  Network& network_;
  std::uint64_t seed_;
  std::uint64_t task_id_;
  Ipv4 ip_;
  std::uint16_t port_;
  std::string url_;

  Phase phase_ = Phase::Discovery;
  HostScanRecord record_;
  std::uint64_t elapsed_us_ = 0;        // task-local clock
  std::uint64_t consumed_us_ = 0;       // charged during the current step
  std::uint64_t assess_start_us_ = 0;   // elapsed_us_ when SecureProbe began

  // Retry state. retry_rng_ is the endpoint-keyed "retry-<ip>:<port>"
  // jitter stream; it is only ever drawn when a retry actually happens.
  Rng retry_rng_;
  int attempt_ = 0;                     // retries spent on the current unit
  Phase resume_phase_ = Phase::Done;    // where Reconnect returns to
  std::uint32_t conn_faults_seen_ = 0;  // faults already banked on conn_
  std::uint32_t reconnects_ = 0;        // feeds the re-probe RNG stream label

  std::unique_ptr<NetConnection> conn_;  // declared before client_: client
  std::unique_ptr<Client> client_;       // holds a reference to *conn_

  // Traversal state.
  std::deque<NodeId> queue_;
  std::set<NodeId> visited_;
  NodeId current_node_;
  std::vector<ReferenceDescription> refs_;
  std::size_t ref_index_ = 0;
  NodeObservation pending_obs_;
  AttributeId pending_attr_ = AttributeId::Value;
};

}  // namespace opcua_study
