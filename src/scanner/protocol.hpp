// The protocol-plugin seam of the scan engine.
//
// A ProtocolProbe is one application-layer backend: a protocol id, a
// registry name, a default port profile, and a factory producing the
// resumable per-host state machine (ProbeTask) that the ScanScheduler
// drives. OPC UA is backend 0 — its task is the unmodified HostGrabTask,
// so a campaign routed through the registry produces byte-identical
// records and snapshots to the pre-registry engine (pinned by test).
// MQTT-over-TLS is backend 1, the proof that a second family slots in
// without touching the scheduler, the snapshot format's fixed columns, or
// the analysis layers above.
//
// Determinism contract for every backend: a task's record must be a pure
// function of (config, seed, task_id, ip, port) plus the simulated
// network's responses — never of scheduling order. RNG streams are keyed
// by task id (assigned in launch order) or by endpoint, exactly like the
// OPC UA engine's "grab-N" / "retry-<ip>:<port>" streams, so mixed-fleet
// campaigns interleave heterogeneous grabs and still reproduce the same
// bytes for any max_in_flight, thread count or shard layout.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "netsim/network.hpp"
#include "scanner/grabber.hpp"
#include "scanner/record.hpp"

namespace opcua_study {

/// A resumable per-host grab. step() performs one unit of protocol work
/// against a deferred connection and reports how much simulated time must
/// pass before the next step (see scanner/host_task.hpp for the model).
class ProbeTask {
 public:
  struct Step {
    /// Simulated time consumed by this step plus the pacing delay before
    /// the next one: schedule the next step() this far in the future.
    std::uint64_t wait_us = 0;
    bool done = false;
  };

  virtual ~ProbeTask() = default;
  virtual Step step() = 0;
  virtual bool done() const = 0;
  virtual HostScanRecord take_record() = 0;
};

/// One scan target: which backend to drive against which port.
struct ProtocolTarget {
  ProtocolId protocol = ProtocolId::opcua;
  std::uint16_t port = kOpcUaDefaultPort;

  friend bool operator==(const ProtocolTarget&, const ProtocolTarget&) = default;
};

/// One registered protocol backend.
class ProtocolProbe {
 public:
  virtual ~ProtocolProbe() = default;
  virtual ProtocolId id() const = 0;
  /// Stable registry name, equal to protocol_name(id()).
  virtual std::string_view name() const = 0;
  virtual std::uint16_t default_port() const = 0;
  /// Build the state machine for one host. `task_id` feeds the per-grab
  /// RNG streams; the scheduler assigns ids in launch order.
  virtual std::unique_ptr<ProbeTask> make_task(const GrabberConfig& config, Network& network,
                                               std::uint64_t seed, std::uint64_t task_id,
                                               Ipv4 ip, std::uint16_t port) const = 0;
};

/// Registry lookups. An unknown id is a programming error: protocol_probe
/// throws std::invalid_argument naming the id. find_protocol_probe returns
/// nullptr for names no backend claims.
const ProtocolProbe& protocol_probe(ProtocolId id);
const ProtocolProbe* find_protocol_probe(std::string_view name);
/// Every built-in backend, in id order.
const std::vector<const ProtocolProbe*>& protocol_registry();

/// Scheme-aware endpoint URL parse result.
struct ParsedEndpoint {
  ProtocolId protocol = ProtocolId::opcua;
  Ipv4 ip = 0;
  std::uint16_t port = 0;

  friend bool operator==(const ParsedEndpoint&, const ParsedEndpoint&) = default;
};

/// Parse "opc.tcp://a.b.c.d[:port]/..." or "mqtts://a.b.c.d[:port]/..."
/// into (protocol, ip, port). The port default follows the *scheme*
/// (opc.tcp -> 4840, mqtts -> 8883) instead of the old parser's blanket
/// OPC UA default. Rejects hostname URLs (the study follows IPs only; a
/// hostname that starts with a dotted quad is still a hostname), unknown
/// schemes, and ports that are not 1-65535 in decimal digits alone.
std::optional<ParsedEndpoint> parse_endpoint_url(const std::string& url);

}  // namespace opcua_study
