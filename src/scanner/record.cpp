#include "scanner/record.hpp"

#include <algorithm>

namespace opcua_study {

std::string protocol_name(ProtocolId id) {
  switch (id) {
    case ProtocolId::opcua: return "opcua";
    case ProtocolId::mqtt_tls: return "mqtt-tls";
  }
  return "protocol-" + std::to_string(static_cast<unsigned>(id));
}

std::vector<MessageSecurityMode> HostScanRecord::advertised_modes() const {
  std::vector<MessageSecurityMode> out;
  for (const auto& ep : endpoints) {
    if (std::find(out.begin(), out.end(), ep.mode) == out.end()) out.push_back(ep.mode);
  }
  return out;
}

std::vector<SecurityPolicy> HostScanRecord::advertised_policies() const {
  std::vector<SecurityPolicy> out;
  for (const auto& ep : endpoints) {
    if (!ep.policy_known) continue;
    if (std::find(out.begin(), out.end(), ep.policy) == out.end()) out.push_back(ep.policy);
  }
  return out;
}

std::vector<UserTokenType> HostScanRecord::advertised_token_types() const {
  std::vector<UserTokenType> out;
  for (const auto& ep : endpoints) {
    for (UserTokenType t : ep.token_types) {
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Bytes> HostScanRecord::distinct_certificates() const {
  std::vector<Bytes> out;
  for (const auto& ep : endpoints) {
    if (ep.certificate_der.empty()) continue;
    if (std::find(out.begin(), out.end(), ep.certificate_der) == out.end()) {
      out.push_back(ep.certificate_der);
    }
  }
  return out;
}

std::size_t ScanSnapshot::server_count() const {
  std::size_t n = 0;
  for (const auto& host : hosts) {
    if (!host.is_discovery_server()) ++n;
  }
  return n;
}

std::size_t ScanSnapshot::discovery_count() const {
  std::size_t n = 0;
  for (const auto& host : hosts) {
    if (host.is_discovery_server()) ++n;
  }
  return n;
}

}  // namespace opcua_study
