#include "netsim/mqtt_service.hpp"

namespace opcua_study {

namespace {

constexpr std::uint8_t kConnAccepted = 0;
constexpr std::uint8_t kConnNotAuthorized = 5;

}  // namespace

Bytes MqttTlsService::on_message(std::span<const std::uint8_t> request) {
  UaReader r(request);
  std::uint32_t magic = 0;
  try {
    magic = r.u32();
  } catch (const DecodeError&) {
    closed_ = true;
    return {};
  }

  if (magic == mqtt_frame::kHello && !hello_done_) {
    hello_done_ = true;
    UaWriter w;
    w.u32(mqtt_frame::kHelloAck);
    w.byte(config_->legacy_tls ? 1 : 0);
    w.byte(config_->auth_mask);
    w.byte_string(config_->certificate_der);
    w.string(config_->software_version);
    return w.take();
  }
  if (magic == mqtt_frame::kConnect && hello_done_ && !session_up_) {
    std::uint8_t credentials = 0;
    try {
      credentials = r.byte();
    } catch (const DecodeError&) {
      closed_ = true;
      return {};
    }
    UaWriter w;
    w.u32(mqtt_frame::kConnAck);
    if (credentials == 0 && (config_->auth_mask & mqtt_auth::kAnonymous) != 0) {
      session_up_ = true;
      w.byte(kConnAccepted);
    } else {
      // Anonymous refused (or credential auth, which the scanner never
      // attempts): answer then close, like a broker dropping the client.
      closed_ = true;
      w.byte(kConnNotAuthorized);
    }
    return w.take();
  }
  if (magic == mqtt_frame::kSysRead && session_up_) {
    UaWriter w;
    w.u32(mqtt_frame::kSysVal);
    w.string(config_->software_version);
    w.string_array(config_->topics);
    return w.take();
  }

  closed_ = true;  // protocol violation: hang up
  return {};
}

}  // namespace opcua_study
