// A simulated MQTT-over-TLS broker behind a netsim listener — the second
// protocol family of the plugin scan layer (scanner/protocol.hpp).
//
// The simulation keeps the TLS handshake at posture granularity: the
// broker answers a client hello with its certificate DER, its TLS profile
// (modern vs. legacy/deprecated suites) and the authentication methods it
// accepts — exactly the facts an Internet-wide TLS/MQTT scan records
// (cf. "Missed Opportunities", PAM 2022). The MQTT layer then accepts or
// refuses an anonymous CONNECT and, for accessible brokers, answers a
// $SYS read with its version banner and announced topic prefixes.
//
// Frames ride the existing message-per-roundtrip netsim transport, OPC UA
// binary primitive encoding (UaWriter/UaReader), each frame led by a
// 4-byte magic: MQHL/MQHA (hello), MQCO/MQCA (connect), MQSR/MQSV ($SYS).
#pragma once

#include <memory>

#include "netsim/network.hpp"
#include "opcua/encoding.hpp"

namespace opcua_study {

namespace mqtt_auth {
inline constexpr std::uint8_t kAnonymous = 1u << 0;
inline constexpr std::uint8_t kPassword = 1u << 1;
inline constexpr std::uint8_t kClientCert = 1u << 2;
}  // namespace mqtt_auth

/// The magic leading each frame, for the broker and the grab task alike.
namespace mqtt_frame {
inline constexpr std::uint32_t kHello = 0x4c48514du;     // 'MQHL'
inline constexpr std::uint32_t kHelloAck = 0x4148514du;  // 'MQHA'
inline constexpr std::uint32_t kConnect = 0x4f43514du;   // 'MQCO'
inline constexpr std::uint32_t kConnAck = 0x4143514du;   // 'MQCA'
inline constexpr std::uint32_t kSysRead = 0x5253514du;   // 'MQSR'
inline constexpr std::uint32_t kSysVal = 0x5653514du;    // 'MQSV'
}  // namespace mqtt_frame

/// Everything one simulated broker presents on the wire.
struct MqttBrokerConfig {
  Bytes certificate_der;
  /// true: only deprecated TLS suites (the posture analog of a deprecated
  /// OPC UA security policy).
  bool legacy_tls = false;
  std::uint8_t auth_mask = mqtt_auth::kPassword;
  std::string software_version = "mosquitto/1.6.9";
  /// Announced topic prefixes, returned on the $SYS read.
  std::vector<std::string> topics;
};

class MqttTlsService : public ConnectionHandler {
 public:
  explicit MqttTlsService(std::shared_ptr<const MqttBrokerConfig> config)
      : config_(std::move(config)) {}

  Bytes on_message(std::span<const std::uint8_t> request) override;
  bool closed() const override { return closed_; }

 private:
  std::shared_ptr<const MqttBrokerConfig> config_;
  bool hello_done_ = false;
  bool session_up_ = false;
  bool closed_ = false;
};

inline HandlerFactory make_mqtt_factory(std::shared_ptr<const MqttBrokerConfig> config) {
  return [config = std::move(config)]() -> std::unique_ptr<ConnectionHandler> {
    return std::make_unique<MqttTlsService>(config);
  };
}

}  // namespace opcua_study
