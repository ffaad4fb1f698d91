#include "scanner/mqtt_task.hpp"

#include "netsim/mqtt_service.hpp"
#include "obs/metrics.hpp"
#include "opcua/secpolicy.hpp"

namespace opcua_study {

namespace {

// Phase-timing cells are keyed by protocol; this task is the MQTT backend.
constexpr unsigned kObsMqtt = static_cast<unsigned>(ProtocolId::mqtt_tls);

}  // namespace

MqttGrabTask::MqttGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
                           Ipv4 ip, std::uint16_t port)
    : ProbeTask(config, network, seed, ip, port, ProtocolId::mqtt_tls) {}

MqttGrabTask::Step MqttGrabTask::yield(std::uint64_t pace_us, Phase next) {
  phase_ = next;
  return ProbeTask::yield(pace_us);
}

MqttGrabTask::Step MqttGrabTask::finish_banked(bool with_duration) {
  bank_connection();
  return finish(with_duration);
}

MqttGrabTask::Step MqttGrabTask::retry_hello(bool drop) {
  if (!can_retry()) return give_up();
  // Every retry re-runs the whole exchange from the hello: the handshake
  // is two roundtrips, so resuming mid-session buys nothing.
  record_.speaks_opcua = false;
  record_.endpoints.clear();
  record_.anonymous_offered = false;
  record_.channel = ChannelOutcome::not_attempted;
  record_.channel_policy = SecurityPolicy::None;
  record_.channel_mode = MessageSecurityMode::None;
  record_.server_signature_valid = false;
  record_.session = SessionOutcome::not_attempted;
  record_.namespaces.clear();
  phase_ = Phase::Hello;
  return retry(drop);
}

MqttGrabTask::Step MqttGrabTask::on_net_fault() { return retry_hello(/*drop=*/true); }

MqttGrabTask::Step MqttGrabTask::step_phase() {
  try {
    switch (phase_) {
      case Phase::Hello: return step_hello();
      case Phase::Connect: return step_connect();
      case Phase::SysRead: return step_sys_read();
    }
  } catch (const DecodeError&) {
    // Garbled reply: treat like a protocol reset (retryable under faults,
    // final on a clean network where it means "not an MQTT broker").
    if (fresh_fault()) return on_net_fault();
    return finish_banked(/*with_duration=*/record_.tcp_open);
  }
  return Step{0, true};  // unreachable: every phase is handled above
}

MqttGrabTask::Step MqttGrabTask::step_hello() {
  switch (dial()) {
    case Dial::faulted: return retry_hello(/*drop=*/false);
    case Dial::refused: return finish(/*with_duration=*/false);
    case Dial::open: break;
  }
  obs::observe_us(obs::Metric::phase_connect_us, consumed_us_, kObsMqtt);

  UaWriter hello;
  hello.u32(mqtt_frame::kHello);
  hello.u16(0x0303);
  const std::uint64_t hello_start_us = consumed_us_;
  const Bytes reply = conn_->roundtrip(hello.take());
  charge();
  obs::observe_us(obs::Metric::phase_hello_us, consumed_us_ - hello_start_us, kObsMqtt);
  UaReader r(reply);
  if (reply.empty() || r.u32() != mqtt_frame::kHelloAck) {
    // Whatever answered is not our broker (dummy service / port reuse).
    return finish_banked(/*with_duration=*/true);
  }
  const bool legacy_tls = r.byte() != 0;
  const std::uint8_t auth_mask = r.byte();
  Bytes cert_der = r.byte_string();
  const std::string banner = r.string();

  record_.speaks_opcua = true;  // completed the probed protocol's handshake
  record_.application_uri = "urn:mqtt:" + banner.substr(0, banner.find('/'));
  record_.application_name = "MQTT broker";
  record_.application_type = ApplicationType::Server;
  record_.software_version = banner;

  EndpointObservation ep;
  ep.url = "mqtts://" + format_ipv4(ip_) + ":" + std::to_string(port_) + "/";
  ep.mode = MessageSecurityMode::SignAndEncrypt;  // TLS on the wire
  // TLS profile -> policy bucket: legacy suites map onto the deprecated
  // policy class, modern suites onto the secure one, so the shared
  // deficiency taxonomy (deprecated-only, weak certificate, anonymous
  // access) applies unchanged.
  ep.policy = legacy_tls ? SecurityPolicy::Basic128Rsa15 : SecurityPolicy::Basic256Sha256;
  ep.policy_known = true;
  ep.policy_uri = std::string(policy_info(ep.policy).uri);
  if ((auth_mask & mqtt_auth::kAnonymous) != 0) ep.token_types.push_back(UserTokenType::Anonymous);
  if ((auth_mask & mqtt_auth::kPassword) != 0) ep.token_types.push_back(UserTokenType::UserName);
  if ((auth_mask & mqtt_auth::kClientCert) != 0) {
    ep.token_types.push_back(UserTokenType::Certificate);
  }
  ep.certificate_der = std::move(cert_der);
  record_.endpoints.push_back(std::move(ep));

  record_.channel = ChannelOutcome::established;
  record_.channel_mode = MessageSecurityMode::SignAndEncrypt;
  record_.channel_policy = record_.endpoints.front().policy;
  record_.server_signature_valid = true;
  record_.anonymous_offered = (auth_mask & mqtt_auth::kAnonymous) != 0;

  if (!record_.anonymous_offered) {
    record_.session = SessionOutcome::not_attempted;
    return finish_banked(/*with_duration=*/true);
  }
  return yield(config_.budget.inter_request_ms * 1000, Phase::Connect);
}

MqttGrabTask::Step MqttGrabTask::step_connect() {
  UaWriter connect;
  connect.u32(mqtt_frame::kConnect);
  connect.byte(0);  // anonymous
  const Bytes reply = conn_->roundtrip(connect.take());
  charge();
  obs::observe_us(obs::Metric::phase_auth_probe_us, consumed_us_, kObsMqtt);
  UaReader r(reply);
  if (reply.empty() || r.u32() != mqtt_frame::kConnAck) {
    return finish_banked(/*with_duration=*/true);
  }
  if (r.byte() != 0) {
    record_.session = SessionOutcome::auth_rejected;
    return finish_banked(/*with_duration=*/true);
  }
  record_.session = SessionOutcome::accessible;
  if (!config_.traverse_address_space) return finish_banked(/*with_duration=*/true);
  return yield(config_.budget.inter_request_ms * 1000, Phase::SysRead);
}

MqttGrabTask::Step MqttGrabTask::step_sys_read() {
  UaWriter read;
  read.u32(mqtt_frame::kSysRead);
  const Bytes reply = conn_->roundtrip(read.take());
  charge();
  UaReader r(reply);
  if (reply.empty() || r.u32() != mqtt_frame::kSysVal) {
    return finish_banked(/*with_duration=*/true);
  }
  record_.software_version = r.string();
  record_.namespaces = r.string_array();
  return finish_banked(/*with_duration=*/true);
}

}  // namespace opcua_study
