#include "scanner/mqtt_task.hpp"

#include "netsim/mqtt_service.hpp"
#include "obs/metrics.hpp"
#include "opcua/secpolicy.hpp"

namespace opcua_study {

namespace {

// Phase-timing cells are keyed by protocol; this task is the MQTT backend.
constexpr unsigned kObsMqtt = static_cast<unsigned>(ProtocolId::mqtt_tls);

constexpr std::uint32_t kHello = 0x4c48514du;     // 'MQHL'
constexpr std::uint32_t kHelloAck = 0x4148514du;  // 'MQHA'
constexpr std::uint32_t kConnect = 0x4f43514du;   // 'MQCO'
constexpr std::uint32_t kConnAck = 0x4143514du;   // 'MQCA'
constexpr std::uint32_t kSysRead = 0x5253514du;   // 'MQSR'
constexpr std::uint32_t kSysVal = 0x5653514du;    // 'MQSV'

}  // namespace

MqttGrabTask::MqttGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
                           std::uint64_t task_id, Ipv4 ip, std::uint16_t port)
    : config_(config),
      network_(network),
      seed_(seed),
      task_id_(task_id),
      ip_(ip),
      port_(port),
      // Endpoint-keyed like the OPC UA task's jitter stream: retry timing
      // must not depend on sweep order or shard layout.
      retry_rng_(Rng(seed).child("retry-" + format_ipv4(ip) + ":" + std::to_string(port))) {
  record_.ip = ip;
  record_.port = port;
  record_.protocol = ProtocolId::mqtt_tls;
  record_.asn = network_.as_db().asn_of(ip);
}

MqttGrabTask::~MqttGrabTask() = default;

MqttGrabTask::Step MqttGrabTask::yield(std::uint64_t pace_us, Phase next) {
  attempt_ = 0;
  const std::uint64_t wait = consumed_us_ + pace_us;
  elapsed_us_ += wait;
  consumed_us_ = 0;
  phase_ = next;
  return Step{wait, false};
}

void MqttGrabTask::bank_connection() {
  if (conn_ == nullptr) return;
  charge(*conn_);
  const std::uint32_t faults = conn_->faults_injected();
  if (faults > conn_faults_seen_) note_faults(faults - conn_faults_seen_);
  record_.bytes_sent += conn_->bytes_sent();
  conn_.reset();
  conn_faults_seen_ = 0;
}

MqttGrabTask::Step MqttGrabTask::finish(bool with_duration) {
  bank_connection();
  const std::uint64_t wait = consumed_us_;
  elapsed_us_ += wait;
  consumed_us_ = 0;
  if (with_duration) record_.duration_seconds = static_cast<double>(elapsed_us_) / 1e6;
  phase_ = Phase::Done;
  return Step{wait, true};
}

void MqttGrabTask::note_faults(std::uint32_t n) {
  const std::uint32_t total = record_.fault_events + n;
  record_.fault_events = total > 0xffff ? 0xffff : static_cast<std::uint16_t>(total);
}

void MqttGrabTask::degrade(ProbeOutcome grade) {
  if (static_cast<std::uint8_t>(grade) > static_cast<std::uint8_t>(record_.completeness)) {
    record_.completeness = grade;
  }
}

bool MqttGrabTask::can_retry() const {
  return attempt_ + 1 < config_.retry.max_attempts &&
         record_.retries < config_.retry.max_host_retries;
}

std::uint64_t MqttGrabTask::backoff_us() {
  const RetryPolicy& policy = config_.retry;
  double ms = static_cast<double>(policy.backoff_base_ms);
  for (int i = 1; i < attempt_; ++i) ms *= policy.backoff_multiplier;
  const std::uint64_t jitter_ms =
      policy.backoff_jitter_ms > 0 ? retry_rng_.below(policy.backoff_jitter_ms + 1) : 0;
  return static_cast<std::uint64_t>(ms * 1000.0) + jitter_ms * 1000;
}

std::uint64_t MqttGrabTask::connect_timeout_us() const {
  const FaultPlan* plan = network_.fault_plan();
  return plan != nullptr ? plan->profile().connect_timeout_us : 5'000'000;
}

MqttGrabTask::Step MqttGrabTask::give_up() {
  bank_connection();
  switch (phase_) {
    case Phase::Hello:
      degrade(record_.speaks_opcua ? ProbeOutcome::degraded : ProbeOutcome::unreachable);
      return finish(/*with_duration=*/record_.tcp_open);
    case Phase::Connect:
      degrade(ProbeOutcome::degraded);
      return finish(/*with_duration=*/true);
    default:
      degrade(ProbeOutcome::truncated);
      return finish(/*with_duration=*/true);
  }
}

MqttGrabTask::Step MqttGrabTask::on_net_fault() {
  if (!can_retry()) return give_up();
  bank_connection();
  ++attempt_;
  if (record_.retries < 0xffff) ++record_.retries;
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
  const std::uint64_t wait = consumed_us_ + backoff_us();
  elapsed_us_ += wait;
  consumed_us_ = 0;
  phase_ = Phase::Hello;
  return Step{wait, false};
}

MqttGrabTask::Step MqttGrabTask::step() {
  try {
    switch (phase_) {
      case Phase::Hello: return step_hello();
      case Phase::Connect: return step_connect();
      case Phase::SysRead: return step_sys_read();
      case Phase::Done: break;
    }
  } catch (const NetFault&) {
    return on_net_fault();
  } catch (const DecodeError&) {
    // Garbled reply: treat like a protocol reset (retryable under faults,
    // final on a clean network where it means "not an MQTT broker").
    if (conn_ != nullptr && conn_->faults_injected() > conn_faults_seen_) {
      return on_net_fault();
    }
    return finish(/*with_duration=*/record_.tcp_open);
  }
  return Step{0, true};
}

MqttGrabTask::Step MqttGrabTask::step_hello() {
  ConnectFault connect_fault = ConnectFault::None;
  conn_ = network_.connect(ip_, port_, &connect_fault);
  if (!conn_) {
    if (connect_fault != ConnectFault::None) {
      note_faults(1);
      consumed_us_ += connect_fault == ConnectFault::SynDrop ? connect_timeout_us()
                                                             : network_.rtt_us(ip_);
      if (can_retry()) {
        ++attempt_;
        if (record_.retries < 0xffff) ++record_.retries;
        const std::uint64_t wait = consumed_us_ + backoff_us();
        elapsed_us_ += wait;
        consumed_us_ = 0;
        return Step{wait, false};
      }
      return give_up();
    }
    consumed_us_ += network_.rtt_us(ip_);  // RST after one RTT
    return finish(/*with_duration=*/false);
  }
  record_.tcp_open = true;
  conn_faults_seen_ = 0;
  conn_->set_request_timeout_us(config_.retry.request_timeout_ms * 1000);
  charge(*conn_);  // three-way handshake
  obs::observe_us(obs::Metric::phase_connect_us, consumed_us_, kObsMqtt);

  UaWriter hello;
  hello.u32(kHello);
  hello.u16(0x0303);
  const std::uint64_t hello_start_us = consumed_us_;
  const Bytes reply = conn_->roundtrip(hello.take());
  charge(*conn_);
  obs::observe_us(obs::Metric::phase_hello_us, consumed_us_ - hello_start_us, kObsMqtt);
  UaReader r(reply);
  if (reply.empty() || r.u32() != kHelloAck) {
    // Whatever answered is not our broker (dummy service / port reuse).
    return finish(/*with_duration=*/true);
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
    return finish(/*with_duration=*/true);
  }
  return yield(config_.budget.inter_request_ms * 1000, Phase::Connect);
}

MqttGrabTask::Step MqttGrabTask::step_connect() {
  UaWriter connect;
  connect.u32(kConnect);
  connect.byte(0);  // anonymous
  const Bytes reply = conn_->roundtrip(connect.take());
  charge(*conn_);
  obs::observe_us(obs::Metric::phase_auth_probe_us, consumed_us_, kObsMqtt);
  UaReader r(reply);
  if (reply.empty() || r.u32() != kConnAck) return finish(/*with_duration=*/true);
  if (r.byte() != 0) {
    record_.session = SessionOutcome::auth_rejected;
    return finish(/*with_duration=*/true);
  }
  record_.session = SessionOutcome::accessible;
  if (!config_.traverse_address_space) return finish(/*with_duration=*/true);
  return yield(config_.budget.inter_request_ms * 1000, Phase::SysRead);
}

MqttGrabTask::Step MqttGrabTask::step_sys_read() {
  UaWriter read;
  read.u32(kSysRead);
  const Bytes reply = conn_->roundtrip(read.take());
  charge(*conn_);
  UaReader r(reply);
  if (reply.empty() || r.u32() != kSysVal) return finish(/*with_duration=*/true);
  record_.software_version = r.string();
  record_.namespaces = r.string_array();
  return finish(/*with_duration=*/true);
}

}  // namespace opcua_study
