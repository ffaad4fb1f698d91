// Canonical one-line text of a HostScanRecord: every field, in declaration
// order, as space-separated name=value tokens. Certificates are rendered
// by SHA-1 thumbprint, doubles at 17 significant digits, strings quoted,
// enums by name where the library has one and by number otherwise. Two
// lines are equal exactly when the records are. The grab golden tests
// compare these lines with the grab.*.txt files under tests/data/.
#pragma once

#include <cstdio>
#include <string>

#include "crypto/x509.hpp"
#include "scanner/record.hpp"
#include "util/hex.hpp"

namespace opcua_study::grab_dump {

inline std::string quoted(const std::string& s) { return '"' + s + '"'; }

inline std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename E>
std::string code(E v) {
  return std::to_string(static_cast<int>(v));
}

/// "[a b c]" of render(item) for each item.
template <typename Items, typename Render>
std::string list(const Items& items, Render render) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ' ';
    out += render(item);
  }
  return out + "]";
}

inline std::string endpoint(const EndpointObservation& ep) {
  std::string out = "{url=" + quoted(ep.url) + " mode=" + security_mode_name(ep.mode) +
                    " policy_uri=" + quoted(ep.policy_uri) +
                    " policy=" + std::string(policy_info(ep.policy).name) +
                    " policy_known=" + code(ep.policy_known) +
                    " tokens=" + list(ep.token_types, user_token_type_name) + " cert=";
  out += ep.certificate_der.empty() ? "-" : to_hex(x509_thumbprint(ep.certificate_der));
  return out + "}";
}

inline std::string node(const NodeObservation& n) {
  return "{" + quoted(n.browse_name) + " class=" + code(n.node_class) + " r=" + code(n.readable) +
         " w=" + code(n.writable) + " x=" + code(n.executable) + "}";
}

inline std::string line(const HostScanRecord& r) {
  std::string out = format_ipv4(r.ip) + ":" + std::to_string(r.port) + " " +
                    protocol_name(r.protocol) + " asn=" + std::to_string(r.asn) +
                    " tcp_open=" + code(r.tcp_open) + " speaks=" + code(r.speaks_opcua) +
                    " via_ref=" + code(r.found_via_reference) +
                    " app_uri=" + quoted(r.application_uri) +
                    " product_uri=" + quoted(r.product_uri) +
                    " app_name=" + quoted(r.application_name) +
                    " app_type=" + code(r.application_type) +
                    " version=" + quoted(r.software_version) +
                    " endpoints=" + list(r.endpoints, endpoint) + " refs=" +
                    list(r.referenced_targets, [](const auto& target) {
                      return format_ipv4(target.first) + ":" + std::to_string(target.second);
                    });
  out += " channel=" + code(r.channel) +
         " channel_policy=" + std::string(policy_info(r.channel_policy).name) +
         " channel_mode=" + security_mode_name(r.channel_mode) +
         " sig_valid=" + code(r.server_signature_valid) +
         " anonymous=" + code(r.anonymous_offered) + " session=" + code(r.session) +
         " namespaces=" + list(r.namespaces, quoted) + " nodes=" + list(r.nodes, node);
  return out + " truncated=" + code(r.traversal_truncated) +
         " completeness=" + code(r.completeness) + " retries=" + std::to_string(r.retries) +
         " faults=" + std::to_string(r.fault_events) +
         " bytes=" + std::to_string(r.bytes_sent) + " duration=" + number(r.duration_seconds);
}

}  // namespace opcua_study::grab_dump
