// Result types of the paper's §5 analyses, one struct per table or
// figure, plus the record-level helpers the streaming Aggregator
// (analysis/aggregator.cpp) applies to each host: manufacturer clustering
// and namespace classification.
//
// Everything here describes data measured over the wire; the population
// plans are never consulted.
#pragma once

#include <map>
#include <set>
#include <string>

#include "crypto/x509.hpp"
#include "scanner/record.hpp"

namespace opcua_study {

/// Manufacturer clustering of ApplicationURI values (the paper clustered
/// these manually; we match the URI prefixes of the known vendors).
std::string manufacturer_cluster(const std::string& application_uri);

// ------------------------------------------------------------- Fig. 3 ----

struct ModePolicyStats {
  int servers = 0;
  std::map<MessageSecurityMode, int> mode_support, mode_least, mode_most;
  std::map<SecurityPolicy, int> policy_support, policy_least, policy_most;
  int none_only = 0;             // only security mode None (270)
  int secure_mode_capable = 0;   // Sign or SignAndEncrypt available (844)
  int deprecated_supported = 0;  // supports D1 or D2 (786)
  int deprecated_max = 0;        // strongest policy deprecated (280)
  int strong_enforcing = 0;      // weakest policy in {S1,S2,S3} (16)
  int strong_capable = 0;        // strongest policy in {S1,S2,S3} (564)

  friend bool operator==(const ModePolicyStats&, const ModePolicyStats&) = default;
};

// ------------------------------------------------------------- Fig. 4 ----

struct CertClassKey {
  HashAlgorithm hash = HashAlgorithm::sha1;
  std::size_t key_bits = 0;
  auto operator<=>(const CertClassKey&) const = default;
};

struct CertConformanceStats {
  /// Per announced policy: hosts delivering a certificate, by class.
  std::map<SecurityPolicy, std::map<CertClassKey, int>> class_counts;
  std::map<SecurityPolicy, int> announced_with_cert;
  std::map<SecurityPolicy, int> too_weak;    // S2: 409, S1: 7
  std::map<SecurityPolicy, int> too_strong;  // D1: 75, D2: 5
  /// Certificate weaker than the host's strongest announced policy (591).
  int weaker_than_max = 0;
  int hosts_with_cert = 0;
  int ca_signed = 0;  // paper: 99 % self-signed, 2 CA-signed

  friend bool operator==(const CertConformanceStats&, const CertConformanceStats&) = default;
};

// ------------------------------------------------------------- Fig. 5 ----

struct ReuseCluster {
  std::string fingerprint_hex;  // SHA-1 thumbprint
  int host_count = 0;
  std::set<std::uint32_t> ases;
  std::string subject_organization;

  friend bool operator==(const ReuseCluster&, const ReuseCluster&) = default;
};

struct ReuseStats {
  std::vector<ReuseCluster> clusters;  // sorted by host_count descending
  int clusters_ge3 = 0;                // certificates on >= 3 hosts (9)
  int hosts_in_ge3 = 0;
  int distinct_certificates = 0;

  friend bool operator==(const ReuseStats&, const ReuseStats&) = default;
};

// ------------------------------------------------------------- §5.3 ----

struct SharedPrimeStats {
  std::size_t distinct_moduli = 0;
  std::size_t moduli_with_shared_prime = 0;  // paper found none

  friend bool operator==(const SharedPrimeStats&, const SharedPrimeStats&) = default;
};

// ---------------------------------------------------- Fig. 6 / Table 2 ----

enum class SystemClass { production, test, unclassified };

/// Namespace-based classification (§5.4): vendor/standards namespaces →
/// production; example-application namespaces → test; ns0-only →
/// unclassified.
SystemClass classify_namespaces(const std::vector<std::string>& namespaces);

struct AuthRow {
  bool anonymous = false, credentials = false, certificate = false, token = false;
  int production = 0, test = 0, unclassified = 0;
  int auth_rejected = 0, channel_rejected = 0;
  int total() const { return production + test + unclassified + auth_rejected + channel_rejected; }
  auto key() const { return std::tie(anonymous, credentials, certificate, token); }

  friend bool operator==(const AuthRow&, const AuthRow&) = default;
};

struct AuthStats {
  std::vector<AuthRow> rows;  // sorted by token combination
  int servers = 0;
  int channel_capable = 0;    // secure channel possible (1034)
  int channel_rejected = 0;   // certificate not accepted (80)
  int anonymous_offered = 0;  // 572
  int anonymous_channel_capable = 0;  // anonymous & channel ok (563)
  int anonymous_secure_only = 0;  // anonymous on hosts forcing security (71)
  int accessible = 0;         // 493
  int auth_rejected = 0;      // 541
  int production = 0, test = 0, unclassified = 0;  // 295 / 42 / 156

  friend bool operator==(const AuthStats&, const AuthStats&) = default;
};

// ------------------------------------------------------------- Fig. 7 ----

struct AccessRightsStats {
  std::vector<double> read_fractions;   // per accessible host
  std::vector<double> write_fractions;
  std::vector<double> exec_fractions;
  /// Fraction of hosts whose fraction exceeds `threshold`.
  static double hosts_above(const std::vector<double>& fractions, double threshold);
  /// 1-CDF sample points for rendering.
  static std::vector<std::pair<double, double>> survival_curve(std::vector<double> fractions);

  friend bool operator==(const AccessRightsStats&, const AccessRightsStats&) = default;
};

// ------------------------------------------------------------- Fig. 8 ----

struct DeficitBreakdown {
  // Deficit class -> (manufacturer or AS label) -> host count.
  std::map<std::string, std::map<std::string, int>> by_manufacturer;
  std::map<std::string, std::map<std::uint32_t, int>> by_as;
  int none_only = 0;        // 270
  int deprecated_only = 0;  // strongest policy deprecated (280)
  int weak_certificate = 0; // cert weaker than strongest policy (591)
  int cert_reuse = 0;       // hosts sharing a certificate with >= 2 others
  int anonymous_access = 0; // anonymous offered (572)
  int deficient_total = 0;  // 1025 = 92.0 %
  int servers = 0;

  friend bool operator==(const DeficitBreakdown&, const DeficitBreakdown&) = default;
};

// ------------------------------------------------------ Fig. 2 / §5.5 ----

struct WeeklyObservation {
  int measurement_index = 0;
  std::int64_t date_days = 0;
  int servers = 0;
  int discovery = 0;
  int via_reference = 0;
  int non_default_port = 0;
  int deficient = 0;
  double deficient_pct = 0;
  std::map<std::string, int> by_manufacturer;
  int reuse_devices = 0;  // hosts sharing one of the big-cluster certs

  friend bool operator==(const WeeklyObservation&, const WeeklyObservation&) = default;
};

struct RenewalEvent {
  Ipv4 ip = 0;
  int week = 0;  // measurement where the new certificate first appeared
  bool software_update = false;
  bool sha1_replaced = false;   // security increased (7 cases)
  bool downgraded_to_sha1 = false;  // 1 case

  friend bool operator==(const RenewalEvent&, const RenewalEvent&) = default;
};

struct LongitudinalStats {
  std::vector<WeeklyObservation> weeks;
  double deficiency_avg = 0, deficiency_std = 0, deficiency_min = 0, deficiency_max = 0;
  std::size_t total_distinct_certificates = 0;  // 4296
  std::size_t sha1_after_2017 = 0;              // 2174
  std::size_t sha1_after_2019 = 0;              // 1923
  std::vector<RenewalEvent> renewals;           // 84 on static IPs
  int renewals_with_software_update = 0;        // 9
  int sha1_upgrades = 0;                        // 7
  int downgrades = 0;                           // 1

  friend bool operator==(const LongitudinalStats&, const LongitudinalStats&) = default;
};

// --------------------------------------------- cross-protocol populations ----

/// One measurement's per-protocol record counts. Covers *every* record
/// (discovery servers included), like the scan-quality tallies: the row
/// measures what the scan engine talked to, not the server population.
struct ProtocolWeek {
  int measurement_index = 0;
  std::map<ProtocolId, std::uint64_t> hosts;

  friend bool operator==(const ProtocolWeek&, const ProtocolWeek&) = default;
};

/// Per-protocol population split along the ProtocolProbe registry
/// dimension. The final-measurement maps count servers only (discovery
/// filtered, like the figures). A pure OPC UA study yields a single
/// ProtocolId::opcua key everywhere, so pre-registry outputs stay
/// comparable.
struct ProtocolStats {
  std::vector<ProtocolWeek> weeks;
  std::map<ProtocolId, std::uint64_t> servers;    // final measurement
  std::map<ProtocolId, std::uint64_t> deficient;  // servers with a §5.2 deficit
  std::map<ProtocolId, std::uint64_t> anonymous;  // anonymous_offered servers

  friend bool operator==(const ProtocolStats&, const ProtocolStats&) = default;
};

}  // namespace opcua_study
