// Resumable per-host grab — the zgrab2 OPC UA module as an explicit state
// machine, the OPC UA backend of the grab core (scanner/protocol.hpp).
//
// One task owns the full grab pipeline of a single host (paper §4):
// HEL → OPN(None) + GetEndpoints → secure-channel re-probe with the
// scanner's certificate → anonymous session → paced address-space
// traversal. Instead of blocking between paced requests, the task yields
// after each unit of work, so the ScanScheduler keeps hundreds of hosts
// in flight at once.
//
// Every budget decision (500 ms pacing, 60 min / 50 MB caps, §A.2) is made
// against the task's *local* timeline, which makes a host's record — bytes,
// duration, truncation — independent of how many other hosts are in flight.
//
// On a fault-injected Network (netsim/faults.hpp) a retryable failure
// re-runs its phase through the grab core's retry budget: discovery and
// the secure probe start over on a fresh connection, a read garbled on a
// live connection is retried in place, and a mid-assessment reset
// reconnects and resumes the traversal where it left off.
//
// Bytes: the task banks a connection's bytes itself, before the CLO
// goodbye, once the connection has produced its result (endpoints, a
// channel or session verdict, a finished traversal); a connection that
// ends early on a clean network banks none. A connection dropped for a
// retry or a give-up is banked whole by the grab core.
#pragma once

#include <deque>
#include <memory>
#include <set>

#include "opcua/client.hpp"
#include "scanner/protocol.hpp"

namespace opcua_study {

class HostGrabTask : public ProbeTask {
 public:
  /// `task_id` feeds the per-grab RNG streams ("grab-N" / "sess-N"); the
  /// scheduler assigns ids in launch order so a concurrent campaign draws
  /// the same nonces as the sequential one.
  HostGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
               std::uint64_t task_id, Ipv4 ip, std::uint16_t port);

 private:
  enum class Phase {
    Discovery,       // connect + HEL + OPN(None) + GetEndpoints
    SecureProbe,     // reconnect on the strongest endpoint + session
    ReadNamespaces,  // paced NamespaceArray read
    ReadVersion,     // paced SoftwareVersion read
    TraverseBrowse,  // paced Browse of the current node
    TraverseRead,    // paced UserAccessLevel / UserExecutable read
    Reconnect,       // re-establish channel + session, then resume_phase_
  };

  Step step_phase() override;
  Step on_net_fault() override;
  int phase_rank() const override;
  void drop_connection() override;

  Step step_discovery();
  Step step_secure_probe();
  Step step_read_namespaces();
  Step step_read_version();
  /// The breadth-first traversal loop; `browse_first` resumes after the
  /// paced Browse wake-up.
  Step traverse_loop(bool browse_first);
  Step step_traverse_read();
  Step step_reconnect();

  /// Retry `next` (reset what it re-measures, dropping the connection when
  /// `drop`) or, with the budget spent, give up.
  Step retry_or_give_up(Phase next, bool drop);
  Step yield(std::uint64_t pace_us, Phase next);
  Step finish_assess();
  bool budget_exhausted() const;
  const EndpointObservation* strongest_endpoint() const;

  const std::uint64_t seed_;
  const std::uint64_t task_id_;
  const std::string url_;

  Phase phase_ = Phase::Discovery;
  std::uint64_t assess_start_us_ = 0;  // elapsed_us_ when SecureProbe began
  Phase resume_phase_ = Phase::Discovery;  // where Reconnect returns to
  std::uint32_t reconnects_ = 0;           // feeds the re-probe RNG stream label

  std::unique_ptr<Client> client_;  // holds a reference to *conn_

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
