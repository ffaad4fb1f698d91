#include "scanner/protocol.hpp"

#include <charconv>
#include <stdexcept>

#include "scanner/host_task.hpp"
#include "scanner/mqtt_task.hpp"

namespace opcua_study {

namespace {

class OpcUaProbe final : public ProtocolProbe {
 public:
  ProtocolId id() const override { return ProtocolId::opcua; }
  std::string_view name() const override { return "opcua"; }
  std::uint16_t default_port() const override { return kOpcUaDefaultPort; }
  std::unique_ptr<ProbeTask> make_task(const GrabberConfig& config, Network& network,
                                       std::uint64_t seed, std::uint64_t task_id, Ipv4 ip,
                                       std::uint16_t port) const override {
    return std::make_unique<HostGrabTask>(config, network, seed, task_id, ip, port);
  }
};

class MqttTlsProbe final : public ProtocolProbe {
 public:
  ProtocolId id() const override { return ProtocolId::mqtt_tls; }
  std::string_view name() const override { return "mqtt-tls"; }
  std::uint16_t default_port() const override { return kMqttTlsDefaultPort; }
  std::unique_ptr<ProbeTask> make_task(const GrabberConfig& config, Network& network,
                                       std::uint64_t seed, std::uint64_t task_id, Ipv4 ip,
                                       std::uint16_t port) const override {
    return std::make_unique<MqttGrabTask>(config, network, seed, task_id, ip, port);
  }
};

const OpcUaProbe kOpcUaProbe;
const MqttTlsProbe kMqttTlsProbe;

}  // namespace

const std::vector<const ProtocolProbe*>& protocol_registry() {
  static const std::vector<const ProtocolProbe*> registry = {&kOpcUaProbe, &kMqttTlsProbe};
  return registry;
}

const ProtocolProbe& protocol_probe(ProtocolId id) {
  for (const ProtocolProbe* probe : protocol_registry()) {
    if (probe->id() == id) return *probe;
  }
  throw std::invalid_argument("unknown protocol backend: " + protocol_name(id));
}

const ProtocolProbe* find_protocol_probe(std::string_view name) {
  for (const ProtocolProbe* probe : protocol_registry()) {
    if (probe->name() == name) return probe;
  }
  return nullptr;
}

std::optional<ParsedEndpoint> parse_endpoint_url(const std::string& url) {
  const ProtocolProbe* probe = nullptr;
  std::string_view scheme;
  for (const auto& [candidate, backend] :
       {std::pair<std::string_view, const ProtocolProbe*>{"opc.tcp://", &kOpcUaProbe},
        std::pair<std::string_view, const ProtocolProbe*>{"mqtts://", &kMqttTlsProbe}}) {
    if (url.rfind(candidate, 0) == 0) {
      scheme = candidate;
      probe = backend;
      break;
    }
  }
  if (probe == nullptr) return std::nullopt;

  std::string rest = url.substr(scheme.size());
  const auto slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  const auto colon = rest.find(':');
  std::uint16_t port = probe->default_port();  // per-scheme default
  std::string host = rest;
  if (colon != std::string::npos) {
    host = rest.substr(0, colon);
    // Decimal digits only (from_chars takes no sign or space), 1-65535.
    const char* const digits = rest.data() + colon + 1;
    const char* const end = rest.data() + rest.size();
    unsigned parsed = 0;
    const auto [stop, error] = std::from_chars(digits, end, parsed);
    if (error != std::errc() || stop != end || parsed < 1 || parsed > 65535) return std::nullopt;
    port = static_cast<std::uint16_t>(parsed);
  }
  try {
    return ParsedEndpoint{probe->id(), parse_ipv4(host), port};
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // hostname-based URL; the study follows IPs only
  }
}

}  // namespace opcua_study
