// Canonical text of the nine §5 result structs of a StudyAnalysis: Fig. 3
// modes, Fig. 4 certificates, Fig. 5 reuse, §5.3 shared primes, Fig. 6 /
// Table 2 auth, Fig. 7 access rights, Fig. 8 deficits, Fig. 2 / §5.5
// longitudinal and the per-protocol split. Every field is rendered: one
// line per field, or per element of a vector of structs. Two dumps are
// equal exactly when the structs are. The golden tests compare it with
// the figures.*.txt files under tests/data/.
#pragma once

#include <algorithm>
#include <cstdio>
#include <ranges>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "analysis/analysis.hpp"

namespace opcua_study::figure_dump {

inline std::string name(MessageSecurityMode v) { return security_mode_name(v); }
inline std::string name(SecurityPolicy v) { return std::string(policy_info(v).name); }
inline std::string name(HashAlgorithm v) { return hash_name(v); }
inline std::string name(ProtocolId v) { return protocol_name(v); }

/// One value: integers and bools in decimal, doubles at 17 significant
/// digits, strings quoted, enums by name, map entries as key=value and
/// containers as [item item ...].
template <typename T>
std::string text(const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return '"' + v + '"';
  } else if constexpr (std::is_enum_v<T>) {
    return name(v);
  } else if constexpr (std::is_same_v<T, CertClassKey>) {
    return name(v.hash) + "/" + std::to_string(v.key_bits);
  } else if constexpr (requires { v.first; v.second; }) {
    return text(v.first) + "=" + text(v.second);
  } else if constexpr (std::ranges::range<T>) {
    std::string out = "[";
    for (const auto& item : v) {
      if (out.size() > 1) out += ' ';
      out += text(item);
    }
    return out + "]";
  } else {
    return std::to_string(v);
  }
}

/// Pops the next name off a stringized argument list ("a.modes.servers,
/// a.modes.none_only") and drops its first component ("modes.servers").
inline std::string_view next_name(std::string_view& names) {
  const std::size_t comma = std::min(names.find(','), names.size());
  std::string_view name = names.substr(0, comma);
  names.remove_prefix(std::min(comma + 1, names.size()));
  while (name.front() == ' ') name.remove_prefix(1);
  return name.substr(name.find('.') + 1);
}

/// "<name> <value>" lines, one per value.
template <typename... T>
void lines(std::ostream& out, std::string_view names, const T&... values) {
  ((out << next_name(names) << ' ' << text(values) << '\n'), ...);
}

/// One "<label> name=value name=value ..." line.
template <typename... T>
void row(std::ostream& out, const char* label, std::string_view names, const T&... values) {
  out << label;
  ((out << ' ' << next_name(names) << '=' << text(values)), ...);
  out << '\n';
}

}  // namespace opcua_study::figure_dump

namespace opcua_study {

inline std::string figure_dump_text(const StudyAnalysis& a) {
  std::ostringstream out;
  // The field names come from the argument text, so a line can never
  // carry another field's name.
#define FIELDS(...) figure_dump::lines(out, #__VA_ARGS__, __VA_ARGS__)
#define ROW(label, ...) figure_dump::row(out, label, #__VA_ARGS__, __VA_ARGS__)
  FIELDS(a.modes.servers, a.modes.mode_support, a.modes.mode_least, a.modes.mode_most,
         a.modes.policy_support, a.modes.policy_least, a.modes.policy_most, a.modes.none_only,
         a.modes.secure_mode_capable, a.modes.deprecated_supported, a.modes.deprecated_max,
         a.modes.strong_enforcing, a.modes.strong_capable);
  FIELDS(a.certificates.class_counts, a.certificates.announced_with_cert, a.certificates.too_weak,
         a.certificates.too_strong, a.certificates.weaker_than_max,
         a.certificates.hosts_with_cert, a.certificates.ca_signed);
  for (const ReuseCluster& c : a.reuse.clusters) {
    ROW("reuse.cluster", c.fingerprint_hex, c.host_count, c.ases, c.subject_organization);
  }
  FIELDS(a.reuse.clusters_ge3, a.reuse.hosts_in_ge3, a.reuse.distinct_certificates);
  FIELDS(a.shared_primes.distinct_moduli, a.shared_primes.moduli_with_shared_prime);
  for (const AuthRow& r : a.auth.rows) {
    ROW("auth.row", r.anonymous, r.credentials, r.certificate, r.token, r.production, r.test,
        r.unclassified, r.auth_rejected, r.channel_rejected);
  }
  FIELDS(a.auth.servers, a.auth.channel_capable, a.auth.channel_rejected, a.auth.anonymous_offered,
         a.auth.anonymous_channel_capable, a.auth.anonymous_secure_only, a.auth.accessible,
         a.auth.auth_rejected, a.auth.production, a.auth.test, a.auth.unclassified);
  FIELDS(a.access_rights.read_fractions, a.access_rights.write_fractions,
         a.access_rights.exec_fractions);
  FIELDS(a.deficits.by_manufacturer, a.deficits.by_as, a.deficits.none_only,
         a.deficits.deprecated_only, a.deficits.weak_certificate, a.deficits.cert_reuse,
         a.deficits.anonymous_access, a.deficits.deficient_total, a.deficits.servers);
  for (const WeeklyObservation& w : a.longitudinal.weeks) {
    ROW("longitudinal.week", w.measurement_index, w.date_days, w.servers, w.discovery,
        w.via_reference, w.non_default_port, w.deficient, w.deficient_pct, w.by_manufacturer,
        w.reuse_devices);
  }
  FIELDS(a.longitudinal.deficiency_avg, a.longitudinal.deficiency_std,
         a.longitudinal.deficiency_min, a.longitudinal.deficiency_max,
         a.longitudinal.total_distinct_certificates, a.longitudinal.sha1_after_2017,
         a.longitudinal.sha1_after_2019);
  for (const RenewalEvent& e : a.longitudinal.renewals) {
    ROW("longitudinal.renewal", e.ip, e.week, e.software_update, e.sha1_replaced,
        e.downgraded_to_sha1);
  }
  FIELDS(a.longitudinal.renewals_with_software_update, a.longitudinal.sha1_upgrades,
         a.longitudinal.downgrades);
  for (const ProtocolWeek& w : a.protocols.weeks) {
    ROW("protocols.week", w.measurement_index, w.hosts);
  }
  FIELDS(a.protocols.servers, a.protocols.deficient, a.protocols.anonymous);
#undef ROW
#undef FIELDS
  return out.str();
}

}  // namespace opcua_study
