// Scan dataset records — the rows of the study's released dataset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opcua/messages.hpp"
#include "opcua/secpolicy.hpp"
#include "opcua/transport.hpp"
#include "util/ipv4.hpp"

namespace opcua_study {

/// Protocol family a record was measured with. OPC UA is backend 0 so a
/// default-constructed record — and every record written before the
/// protocol column existed — reads back as OPC UA.
enum class ProtocolId : std::uint8_t {
  opcua = 0,
  mqtt_tls = 1,
};

inline constexpr std::uint8_t kProtocolCount = 2;
inline constexpr std::uint16_t kMqttTlsDefaultPort = 8883;

/// Stable protocol name ("opcua", "mqtt-tls"); "protocol-<n>" for ids the
/// build does not know (forward-compat error messages).
std::string protocol_name(ProtocolId id);

/// One advertised endpoint, as seen in a GetEndpoints response.
struct EndpointObservation {
  std::string url;
  MessageSecurityMode mode = MessageSecurityMode::None;
  std::string policy_uri;
  /// Parsed from policy_uri; None if the URI was unknown.
  SecurityPolicy policy = SecurityPolicy::None;
  bool policy_known = false;
  std::vector<UserTokenType> token_types;
  Bytes certificate_der;  // empty if the endpoint carried none

  friend bool operator==(const EndpointObservation&, const EndpointObservation&) = default;
};

enum class ChannelOutcome {
  not_attempted,   // server only advertises None (no certificate exchanged)
  established,     // secure channel up (possibly policy None)
  cert_rejected,   // server refused the scanner's self-signed certificate
  failed,          // other transport/crypto failure
};

/// How completely a host was scanned once fault injection (netsim/faults.hpp)
/// is in play. Graded worst-wins: a record keeps the most severe grade any
/// phase earned. Fault-free scans always stay `complete` (and the snapshot
/// encoding omits the field entirely), so pre-fault outputs are unchanged.
enum class ProbeOutcome : std::uint8_t {
  complete = 0,     // every phase finished (possibly after retries)
  truncated = 1,    // assessment cut short by faults: partial traversal/reads
  degraded = 2,     // a whole phase (e.g. secure probe) lost to faults
  unreachable = 3,  // host answered the sweep but the grab never got through
};

enum class SessionOutcome {
  not_attempted,    // no anonymous token advertised, or no channel
  accessible,       // anonymous session activated; address space traversed
  auth_rejected,    // CreateSession/ActivateSession refused
  channel_rejected, // no session possible: secure channel was refused
};

/// One node seen during anonymous address-space traversal with the access
/// rights the *anonymous* user holds (Fig. 7 raw data).
struct NodeObservation {
  std::string browse_name;
  NodeClass node_class = NodeClass::Unspecified;
  bool readable = false;
  bool writable = false;
  bool executable = false;

  friend bool operator==(const NodeObservation&, const NodeObservation&) = default;
};

struct HostScanRecord {
  Ipv4 ip = 0;
  std::uint16_t port = kOpcUaDefaultPort;
  /// Backend that produced this record. opcua (0) for every record written
  /// before the protocol column existed.
  ProtocolId protocol = ProtocolId::opcua;
  std::uint32_t asn = 0;
  bool tcp_open = false;
  /// The host completed the probed protocol's application-layer handshake
  /// (named for the original OPC UA-only scanner; an MQTT record sets it
  /// when the broker finished the TLS + CONNECT exchange).
  bool speaks_opcua = false;
  bool found_via_reference = false;  // reached through a discovery server

  // Application identity (from endpoint descriptions).
  std::string application_uri;
  std::string product_uri;
  std::string application_name;
  ApplicationType application_type = ApplicationType::Server;
  std::string software_version;

  std::vector<EndpointObservation> endpoints;
  /// Endpoints announced for *other* hosts (discovery references).
  std::vector<std::pair<Ipv4, std::uint16_t>> referenced_targets;

  ChannelOutcome channel = ChannelOutcome::not_attempted;
  SecurityPolicy channel_policy = SecurityPolicy::None;
  MessageSecurityMode channel_mode = MessageSecurityMode::None;
  bool server_signature_valid = false;

  bool anonymous_offered = false;
  SessionOutcome session = SessionOutcome::not_attempted;
  std::vector<std::string> namespaces;
  std::vector<NodeObservation> nodes;
  bool traversal_truncated = false;

  // Scan-quality fields (all zero on a fault-free network; see ProbeOutcome).
  ProbeOutcome completeness = ProbeOutcome::complete;
  std::uint16_t retries = 0;       // retry attempts spent on this host
  std::uint16_t fault_events = 0;  // injected faults observed (saturating)

  std::uint64_t bytes_sent = 0;
  double duration_seconds = 0;

  /// True if this host is a discovery server (announces only foreign
  /// endpoints / reference implementation LDS).
  bool is_discovery_server() const {
    return application_type == ApplicationType::DiscoveryServer;
  }

  /// Security modes/policies advertised on the host's own endpoints.
  std::vector<MessageSecurityMode> advertised_modes() const;
  std::vector<SecurityPolicy> advertised_policies() const;
  std::vector<UserTokenType> advertised_token_types() const;
  /// Distinct certificates across endpoints.
  std::vector<Bytes> distinct_certificates() const;

  /// Full-record equality — the engine-equivalence tests assert that a
  /// concurrent campaign reproduces the sequential one field by field.
  friend bool operator==(const HostScanRecord&, const HostScanRecord&) = default;
};

/// One weekly measurement.
struct ScanSnapshot {
  int measurement_index = 0;
  std::int64_t date_days = 0;
  std::vector<HostScanRecord> hosts;  // only hosts that speak OPC UA

  std::uint64_t probes_sent = 0;       // sweep probes
  std::uint64_t tcp_open_count = 0;    // hosts with port 4840 open
  std::size_t server_count() const;
  std::size_t discovery_count() const;

  friend bool operator==(const ScanSnapshot&, const ScanSnapshot&) = default;
};

}  // namespace opcua_study
