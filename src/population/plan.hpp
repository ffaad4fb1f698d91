// Deployment plans: the ground-truth configuration of every simulated host.
//
// The generator emits *plans* (pure data, no crypto, no sockets) that the
// deployer later instantiates as real OPC UA servers. Keeping plans cheap
// lets the calibration tests assert every paper marginal without
// generating ~900 RSA keys.
//
// IMPORTANT: the analysis pipeline never reads plans — it only sees what
// the scanner measured over the wire. Plans are the "real Internet" the
// paper scanned; the assessment must *recover* these distributions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "opcua/messages.hpp"
#include "opcua/secpolicy.hpp"
#include "opcua/transport.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"

namespace opcua_study {

/// Paper's Table 2 accessibility outcome for a host.
enum class PlannedOutcome {
  accessible,        // anonymous session succeeds
  auth_rejected,     // session refused (no anonymous / faulty config)
  channel_rejected,  // server validates client certs strictly
};

/// Paper's §5.4 classification of accessible systems.
enum class PlannedClass { production, test, unclassified, not_applicable };

struct CertificatePlan {
  bool present = true;               // None-only endpoints sometimes carry no cert
  HashAlgorithm signature_hash = HashAlgorithm::sha256;
  std::size_t key_bits = 2048;
  /// >= 0: index of the reuse group this host's certificate belongs to
  /// (all members share one certificate + private key, §5.3).
  int reuse_group = -1;
  /// NotBefore (days since 1970) for the §5.5 longitudinal analysis.
  std::int64_t not_before_days = 0;
  /// Host presents a second, distinct certificate on one endpoint.
  bool dual_certificate = false;
  std::int64_t dual_not_before_days = 0;
  /// Certificate is regenerated (same key, fresh serial/NotBefore) at every
  /// measurement — the §5.5 churn population explaining 4296 total certs.
  bool ephemeral = false;
  /// CA-signed instead of self-signed (the paper found exactly 2).
  bool ca_signed = false;
};

/// Certificate change on a specific week (84 renewal events in the study).
struct RenewalPlan {
  int week = -1;                       // measurement index of the change
  HashAlgorithm old_hash = HashAlgorithm::sha1;  // class before renewal
  bool software_update = false;        // SoftwareVersion bump same week (9 cases)
  bool dual = false;                   // the change affects the second certificate
};

struct HostPlan {
  int index = 0;
  std::string cohort;          // calibration cohort tag (C0, C1, ... C7, DS)
  bool discovery = false;

  std::string manufacturer;    // cluster label (Fig. 2 / Fig. 8a)
  std::string application_uri;
  std::string product_uri;
  std::string application_name;
  std::string software_version = "1.2.0";

  std::uint16_t port = kOpcUaDefaultPort;
  std::uint32_t asn = 0;
  /// Only reachable through discovery references (non-default port, Fig. 2).
  bool via_reference_only = false;

  std::vector<MessageSecurityMode> modes;
  std::vector<SecurityPolicy> policies;
  std::vector<UserTokenType> tokens;

  CertificatePlan certificate;
  bool trust_all_client_certs = true;
  bool reject_anonymous_sessions = false;
  bool reject_all_sessions = false;

  PlannedOutcome outcome = PlannedOutcome::auth_rejected;
  PlannedClass classification = PlannedClass::not_applicable;

  // Address-space shape for accessible hosts (Fig. 7 raw distributions).
  int variable_count = 0;
  int method_count = 0;
  double readable_fraction = 1.0;
  double writable_fraction = 0.0;
  double executable_fraction = 0.0;

  // Longitudinal behaviour.
  int arrival_week = 0;                 // first measurement the host exists
  std::uint8_t absence_mask = 0;        // bit w set = offline in week w (flappers)
  bool dynamic_ip = false;              // new IP every measurement
  std::optional<RenewalPlan> renewal;

  bool anonymous_offered() const {
    for (UserTokenType t : tokens) {
      if (t == UserTokenType::Anonymous) return true;
    }
    return false;
  }
  bool present_in_week(int week) const {
    return week >= arrival_week && ((absence_mask >> week) & 1) == 0;
  }
  bool offers_none_mode() const {
    for (auto m : modes) {
      if (m == MessageSecurityMode::None) return true;
    }
    return false;
  }
  SecurityPolicy max_policy() const {
    SecurityPolicy best = SecurityPolicy::None;
    for (auto p : policies) {
      if (policy_info(p).rank > policy_info(best).rank) best = p;
    }
    return best;
  }
};

/// A simulated MQTT-over-TLS broker — the second protocol family of the
/// plugin scan layer (scanner/protocol.hpp). Brokers carry TLS posture,
/// not OPC UA endpoint lists, so they get their own plan type; the fleet
/// stays empty unless add_mqtt_population() is called, keeping the default
/// deployment byte-identical to the pre-registry population.
struct MqttHostPlan {
  int index = 0;
  std::uint32_t asn = 0;
  std::uint16_t port = 8883;  // kMqttTlsDefaultPort (scanner/record.hpp)
  /// >= 0: the broker presents the same certificate and private key as the
  /// OPC UA reuse group — one device image running both services. The
  /// deployer resolves this to the group's KeyFactory label, so the DER is
  /// byte-identical to the OPC UA fleet certificate.
  int reuse_group = -1;
  HashAlgorithm signature_hash = HashAlgorithm::sha256;
  std::size_t key_bits = 2048;
  std::int64_t not_before_days = 0;
  /// Only deprecated TLS suites — the posture analog of a deprecated
  /// OPC UA security policy (drives classify_deficiencies()).
  bool legacy_tls = false;
  bool anonymous_allowed = false;  // CONNECT succeeds without credentials
  bool client_cert_auth = false;   // accepts mutual-TLS authentication
  std::string software_version = "mosquitto/1.6.9";
  std::vector<std::string> topics;

  int arrival_week = 0;
  std::uint8_t absence_mask = 0;  // bit w set = offline in week w
  bool present_in_week(int week) const {
    return week >= arrival_week && ((absence_mask >> week) & 1) == 0;
  }
};

/// Reuse-group metadata (§5.3): group 0 is the 385-host / 24-AS cluster.
struct ReuseGroupPlan {
  int id = 0;
  HashAlgorithm signature_hash = HashAlgorithm::sha1;
  std::size_t key_bits = 2048;
  int as_spread = 1;  // number of distinct ASes the members must span
  std::string subject_organization;
};

struct PopulationPlan {
  std::vector<HostPlan> hosts;          // servers + discovery servers
  std::vector<ReuseGroupPlan> reuse_groups;
  /// discovery host index -> indices of hosts it references.
  std::vector<std::pair<int, int>> discovery_references;
  /// MQTT-over-TLS brokers; empty unless add_mqtt_population() was called.
  std::vector<MqttHostPlan> mqtt_hosts;
};

/// Weekly target totals (Fig. 2): found hosts = servers + discovery.
/// Derived ledger: 932 stable port-4840 servers + cumulative G0 arrivals
/// {0,22,49,77,102,115,134,137} + active departers {108,95,79,46,29,18,0,0}
/// − offline clean flappers {0,0,5,0,4,3,22,0} + 45 referenced hosts (w≥3).
struct WeeklyTargets {
  int servers_found[kNumMeasurements] = {1040, 1049, 1055, 1100, 1104, 1107, 1089, 1114};
  int discovery_found[kNumMeasurements] = {721, 744, 781, 773, 798, 962, 878, 807};
  int total(int w) const { return servers_found[w] + discovery_found[w]; }
};

/// Build the full calibrated population (1114 servers + discovery fleet).
PopulationPlan build_population_plan(std::uint64_t seed);

/// Grow `count` MQTT-over-TLS brokers into plan.mqtt_hosts (deterministic
/// in `seed`). A slice of the fleet shares certificates with the OPC UA
/// reuse groups already in the plan — the cross-protocol device images the
/// matcher must *not* link (series/matcher.cpp) — the rest get their own
/// keys with a deterministic mix of legacy TLS, anonymous access, and
/// arrival/flap behaviour.
void add_mqtt_population(PopulationPlan& plan, std::uint64_t seed, int count);

}  // namespace opcua_study
