#include "scanner/protocol.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

#include "scanner/host_task.hpp"
#include "scanner/mqtt_task.hpp"

namespace opcua_study {

ProbeTask::ProbeTask(const GrabberConfig& config, Network& network, std::uint64_t seed, Ipv4 ip,
                     std::uint16_t port, ProtocolId protocol)
    : config_(config),
      network_(network),
      ip_(ip),
      port_(port),
      // Keyed by endpoint, not task id: task ids depend on sweep order and
      // shard layout, and retry jitter must not (fault streams are
      // endpoint-keyed for the same reason, see netsim/faults.hpp).
      retry_rng_(Rng(seed).child("retry-" + format_ipv4(ip) + ":" + std::to_string(port))) {
  record_.ip = ip;
  record_.port = port;
  record_.protocol = protocol;
  record_.asn = network_.as_db().asn_of(ip);
}

ProbeTask::Step ProbeTask::step() {
  try {
    return step_phase();
  } catch (const NetFault&) {
    return on_net_fault();
  }
}

ProbeTask::Dial ProbeTask::dial() {
  ConnectFault fault = ConnectFault::None;
  conn_ = network_.connect(ip_, port_, &fault);
  if (!conn_) {
    if (fault == ConnectFault::None) {
      consumed_us_ += network_.rtt_us(ip_);  // RST after one RTT
      return Dial::refused;
    }
    // Only an installed FaultPlan reports a connect fault. A dropped SYN
    // costs the connect timeout, a flapped listener one RTT for its RST.
    note_faults(1);
    consumed_us_ += fault == ConnectFault::SynDrop
                        ? network_.fault_plan()->profile().connect_timeout_us
                        : network_.rtt_us(ip_);
    return Dial::faulted;
  }
  record_.tcp_open = true;
  conn_faults_seen_ = 0;
  conn_->set_request_timeout_us(config_.retry.request_timeout_ms * 1000);
  charge();  // three-way handshake
  return Dial::open;
}

ProbeTask::Step ProbeTask::yield(std::uint64_t pace_us) {
  attempt_ = 0;  // a unit of work completed: the per-unit retry budget resets
  const std::uint64_t wait = consumed_us_ + pace_us;
  elapsed_us_ += wait;
  consumed_us_ = 0;
  return Step{wait, false};
}

ProbeTask::Step ProbeTask::finish(bool with_duration) {
  if (conn_ != nullptr) {
    fresh_fault();  // bank any unaccounted injected faults
    drop_connection();
  }
  const std::uint64_t wait = consumed_us_;
  elapsed_us_ += wait;
  consumed_us_ = 0;
  if (with_duration) record_.duration_seconds = static_cast<double>(elapsed_us_) / 1e6;
  return Step{wait, true};
}

void ProbeTask::note_faults(std::uint32_t n) {
  const std::uint32_t total = record_.fault_events + n;
  record_.fault_events = total > 0xffff ? 0xffff : static_cast<std::uint16_t>(total);
}

bool ProbeTask::fresh_fault() {
  if (conn_ == nullptr) return false;
  const std::uint32_t now = conn_->faults_injected();
  if (now > conn_faults_seen_) {
    note_faults(now - conn_faults_seen_);
    conn_faults_seen_ = now;
    return true;
  }
  return false;
}

void ProbeTask::bank_connection() {
  if (conn_ == nullptr) return;
  charge();
  fresh_fault();
  record_.bytes_sent += conn_->bytes_sent();
  drop_connection();
  conn_faults_seen_ = 0;
}

bool ProbeTask::can_retry() const {
  return attempt_ + 1 < config_.retry.max_attempts &&
         record_.retries < config_.retry.max_host_retries;
}

ProbeTask::Step ProbeTask::retry(bool drop) {
  if (drop) bank_connection();
  ++attempt_;
  if (record_.retries < 0xffff) ++record_.retries;
  // Backoff for retry k of a unit: base * multiplier^(k-1) + jitter.
  const RetryPolicy& policy = config_.retry;
  double ms = static_cast<double>(policy.backoff_base_ms);
  for (int i = 1; i < attempt_; ++i) ms *= policy.backoff_multiplier;
  const std::uint64_t jitter_ms =
      policy.backoff_jitter_ms > 0 ? retry_rng_.below(policy.backoff_jitter_ms + 1) : 0;
  const std::uint64_t wait =
      consumed_us_ + static_cast<std::uint64_t>(ms * 1000.0) + jitter_ms * 1000;
  elapsed_us_ += wait;
  consumed_us_ = 0;
  return Step{wait, false};
}

void ProbeTask::degrade(ProbeOutcome grade) {
  if (static_cast<std::uint8_t>(grade) > static_cast<std::uint8_t>(record_.completeness)) {
    record_.completeness = grade;
  }
}

ProbeTask::Step ProbeTask::give_up() {
  bank_connection();
  switch (phase_rank()) {
    case 0:
      degrade(record_.speaks_opcua ? ProbeOutcome::degraded : ProbeOutcome::unreachable);
      return finish(/*with_duration=*/record_.tcp_open);
    case 1:
      degrade(ProbeOutcome::degraded);
      return finish(/*with_duration=*/true);
    default:
      // Mid-assessment: whatever was collected before the faults stands.
      degrade(ProbeOutcome::truncated);
      return finish(/*with_duration=*/true);
  }
}

std::unique_ptr<ProbeTask> make_probe_task(ProtocolId protocol, const GrabberConfig& config,
                                           Network& network, std::uint64_t seed,
                                           std::uint64_t task_id, Ipv4 ip, std::uint16_t port) {
  switch (protocol) {
    case ProtocolId::opcua:
      return std::make_unique<HostGrabTask>(config, network, seed, task_id, ip, port);
    case ProtocolId::mqtt_tls:
      return std::make_unique<MqttGrabTask>(config, network, seed, ip, port);
  }
  throw std::invalid_argument("unknown protocol backend: " + protocol_name(protocol));
}

std::optional<ParsedEndpoint> parse_endpoint_url(const std::string& url) {
  struct Scheme {
    std::string_view prefix;
    ProtocolId protocol;
    std::uint16_t default_port;
  };
  static constexpr Scheme kSchemes[] = {
      {"opc.tcp://", ProtocolId::opcua, kOpcUaDefaultPort},
      {"mqtts://", ProtocolId::mqtt_tls, kMqttTlsDefaultPort},
  };
  const Scheme* scheme = nullptr;
  for (const Scheme& candidate : kSchemes) {
    if (url.starts_with(candidate.prefix)) scheme = &candidate;
  }
  if (scheme == nullptr) return std::nullopt;

  std::string rest = url.substr(scheme->prefix.size());
  const auto slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  const auto colon = rest.find(':');
  std::uint16_t port = scheme->default_port;
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
    return ParsedEndpoint{scheme->protocol, parse_ipv4(host), port};
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // hostname-based URL; the study follows IPs only
  }
}

}  // namespace opcua_study
