#include "scanner/host_task.hpp"

#include "obs/metrics.hpp"

namespace opcua_study {

namespace {
// Phase-timing cells are keyed by protocol; this task is the OPC UA backend.
constexpr unsigned kObsOpcua = static_cast<unsigned>(ProtocolId::opcua);
}  // namespace

HostGrabTask::HostGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
                           std::uint64_t task_id, Ipv4 ip, std::uint16_t port)
    : ProbeTask(config, network, seed, ip, port, ProtocolId::opcua),
      seed_(seed),
      task_id_(task_id),
      url_("opc.tcp://" + format_ipv4(ip) + ":" + std::to_string(port) + "/") {}

HostGrabTask::Step HostGrabTask::yield(std::uint64_t pace_us, Phase next) {
  phase_ = next;
  return ProbeTask::yield(pace_us);
}

void HostGrabTask::drop_connection() {
  client_.reset();
  conn_.reset();
}

bool HostGrabTask::budget_exhausted() const {
  const double elapsed_s =
      static_cast<double>(elapsed_us_ + consumed_us_ - assess_start_us_) / 1e6;
  // Bytes banked by connections a fault dropped count as well as the live
  // one's, so a reconnect cannot restart the cap.
  const std::uint64_t bytes_sent = record_.bytes_sent - assess_start_bytes_ +
                                   (conn_ != nullptr ? conn_->bytes_sent() : 0);
  return elapsed_s > static_cast<double>(config_.budget.max_host_seconds) ||
         bytes_sent > config_.budget.max_host_bytes;
}

const EndpointObservation* HostGrabTask::strongest_endpoint() const {
  // The paper's scanner presents its self-signed certificate on the
  // strongest advertised (mode, policy) combination.
  const EndpointObservation* best = nullptr;
  for (const auto& ep : record_.endpoints) {
    if (!ep.policy_known) continue;
    if (best == nullptr || security_mode_rank(ep.mode) > security_mode_rank(best->mode) ||
        (security_mode_rank(ep.mode) == security_mode_rank(best->mode) &&
         policy_info(ep.policy).rank > policy_info(best->policy).rank)) {
      best = &ep;
    }
  }
  return best;
}

// ---------------------------------------------------------- fault plumbing

int HostGrabTask::phase_rank() const {
  switch (phase_) {
    case Phase::Discovery: return 0;
    case Phase::SecureProbe: return 1;
    default: return 2;
  }
}

HostGrabTask::Step HostGrabTask::retry_or_give_up(Phase next, bool drop) {
  if (!can_retry()) return give_up();
  if (next == Phase::Discovery) {
    record_.speaks_opcua = false;
    record_.endpoints.clear();
    record_.referenced_targets.clear();
    record_.application_uri.clear();
    record_.product_uri.clear();
    record_.application_name.clear();
    record_.application_type = ApplicationType::Server;
    record_.anonymous_offered = false;
  }
  if (next == Phase::SecureProbe) {
    record_.channel = ChannelOutcome::not_attempted;
    record_.channel_policy = SecurityPolicy::None;
    record_.channel_mode = MessageSecurityMode::None;
    record_.server_signature_valid = false;
    record_.session = SessionOutcome::not_attempted;
  }
  phase_ = next;
  return retry(drop);
}

HostGrabTask::Step HostGrabTask::on_net_fault() {
  switch (phase_) {
    case Phase::Discovery:
    case Phase::SecureProbe:
    case Phase::Reconnect: return retry_or_give_up(phase_, /*drop=*/true);
    default:
      // Mid-assessment: reconnect, then resume the interrupted phase.
      resume_phase_ = phase_;
      return retry_or_give_up(Phase::Reconnect, /*drop=*/true);
  }
}

HostGrabTask::Step HostGrabTask::step_phase() {
  switch (phase_) {
    case Phase::Discovery: return step_discovery();
    case Phase::SecureProbe: return step_secure_probe();
    case Phase::ReadNamespaces: return step_read_namespaces();
    case Phase::ReadVersion: return step_read_version();
    case Phase::TraverseBrowse: return traverse_loop(/*browse_first=*/true);
    case Phase::TraverseRead: return step_traverse_read();
    case Phase::Reconnect: return step_reconnect();
  }
  return Step{0, true};  // unreachable: every phase is handled above
}

HostGrabTask::Step HostGrabTask::step_discovery() {
  switch (dial()) {
    case Dial::faulted: return retry_or_give_up(Phase::Discovery, /*drop=*/false);
    case Dial::refused: return finish(/*with_duration=*/false);
    case Dial::open: break;
  }
  obs::observe_us(obs::Metric::phase_connect_us, consumed_us_, kObsOpcua);

  client_ = std::make_unique<Client>(config_.client, *conn_,
                                     Rng(seed_).child("grab-" + std::to_string(task_id_)));
  const std::uint64_t hello_start_us = consumed_us_;
  const StatusCode hello_status = client_->hello(url_);
  charge();
  obs::observe_us(obs::Metric::phase_hello_us, consumed_us_ - hello_start_us, kObsOpcua);
  if (hello_status != StatusCode::Good) {
    if (fresh_fault()) return retry_or_give_up(Phase::Discovery, /*drop=*/true);
    return finish(/*with_duration=*/true);  // not an OPC UA speaker
  }
  const StatusCode open_status =
      client_->open_channel(SecurityPolicy::None, MessageSecurityMode::None);
  charge();
  if (open_status != StatusCode::Good) {
    if (fresh_fault()) return retry_or_give_up(Phase::Discovery, /*drop=*/true);
    return finish(/*with_duration=*/false);
  }

  std::vector<EndpointDescription> endpoints;
  const std::uint64_t endpoints_start_us = consumed_us_;
  const StatusCode endpoints_status = client_->get_endpoints(url_, endpoints);
  charge();
  obs::observe_us(obs::Metric::phase_endpoints_us, consumed_us_ - endpoints_start_us);
  if (endpoints_status != StatusCode::Good) {
    if (fresh_fault()) return retry_or_give_up(Phase::Discovery, /*drop=*/true);
    return finish(/*with_duration=*/false);
  }
  record_.speaks_opcua = true;

  for (const auto& ep : endpoints) {
    // Only opc.tcp endpoints on another (ip, port) are references to follow.
    const auto target = parse_endpoint_url(ep.endpoint_url);
    const bool foreign = target && target->protocol == ProtocolId::opcua &&
                         (target->ip != ip_ || target->port != port_);
    if (foreign) {
      record_.referenced_targets.emplace_back(target->ip, target->port);
      continue;
    }
    EndpointObservation obs;
    obs.url = ep.endpoint_url;
    obs.mode = ep.security_mode;
    obs.policy_uri = ep.security_policy_uri;
    if (const auto policy = policy_from_uri(ep.security_policy_uri)) {
      obs.policy = *policy;
      obs.policy_known = true;
    }
    for (const auto& token : ep.user_identity_tokens) obs.token_types.push_back(token.token_type);
    obs.certificate_der = ep.server_certificate;
    record_.endpoints.push_back(std::move(obs));
    if (record_.application_uri.empty()) {
      record_.application_uri = ep.server.application_uri;
      record_.product_uri = ep.server.product_uri;
      record_.application_name = ep.server.application_name.text;
      record_.application_type = ep.server.application_type;
    }
  }
  record_.bytes_sent += conn_->bytes_sent();
  try {
    client_->close_channel();
  } catch (const NetFault&) {
    // A fault on the goodbye costs nothing: everything is already recorded.
  }
  charge();
  fresh_fault();
  drop_connection();

  for (const auto& ep : record_.endpoints) {
    for (UserTokenType t : ep.token_types) {
      if (t == UserTokenType::Anonymous) record_.anonymous_offered = true;
    }
  }

  if (!record_.endpoints.empty() && !record_.is_discovery_server() &&
      strongest_endpoint() != nullptr) {
    // The secure re-probe reconnects immediately (no pacing gap), but
    // yielding here lets the engine interleave other hosts.
    return yield(/*pace_us=*/0, Phase::SecureProbe);
  }
  return finish(/*with_duration=*/true);
}

HostGrabTask::SessionStep HostGrabTask::open_session(const std::string& rng_stream,
                                                     bool record_verdicts) {
  client_ = std::make_unique<Client>(config_.client, *conn_, Rng(seed_).child(rng_stream));
  const StatusCode hello_status = client_->hello(url_);
  charge();
  if (hello_status != StatusCode::Good) return SessionStep::hello;

  const EndpointObservation* best = strongest_endpoint();
  const StatusCode channel_status =
      client_->open_channel(best->policy, best->mode, best->certificate_der);
  charge();
  if (record_verdicts) {
    record_.channel_policy = best->policy;
    record_.channel_mode = best->mode;
  }
  if (is_bad(channel_status)) return SessionStep::channel;
  if (record_verdicts) record_.channel = ChannelOutcome::established;

  // An anonymous session on every reachable server: servers without an
  // anonymous token reject it, which is exactly the paper's "unaccessible,
  // reason: authentication" population (Table 2).
  Client::SessionInfo info;
  StatusCode status = client_->create_session(&info);
  charge();
  if (record_verdicts) record_.server_signature_valid = info.server_signature_valid;
  if (is_good(status)) {
    status = client_->activate_session_anonymous();
    charge();
  }
  return is_bad(status) ? SessionStep::session : SessionStep::open;
}

HostGrabTask::Step HostGrabTask::step_secure_probe() {
  assess_start_us_ = elapsed_us_;
  assess_start_bytes_ = record_.bytes_sent;

  switch (dial()) {
    case Dial::faulted: return retry_or_give_up(Phase::SecureProbe, /*drop=*/false);
    case Dial::refused: return finish(/*with_duration=*/true);
    case Dial::open: break;
  }
  const SessionStep stopped =
      open_session("sess-" + std::to_string(task_id_), /*record_verdicts=*/true);
  if (stopped == SessionStep::open) {
    record_.session = SessionOutcome::accessible;
    obs::observe_us(obs::Metric::phase_auth_probe_us, consumed_us_, kObsOpcua);
    // Namespaces (classification input) and software version (§5.5)
    // follow after the inter-request pause.
    return yield(config_.budget.inter_request_ms * 1000, Phase::ReadNamespaces);
  }
  if (fresh_fault()) return retry_or_give_up(Phase::SecureProbe, /*drop=*/true);
  if (stopped == SessionStep::hello) return finish(/*with_duration=*/true);
  if (stopped == SessionStep::channel) {
    record_.channel = record_.channel_policy == SecurityPolicy::None
                          ? ChannelOutcome::failed
                          : ChannelOutcome::cert_rejected;
    record_.session = SessionOutcome::channel_rejected;
  } else {
    record_.session = SessionOutcome::auth_rejected;
  }
  record_.bytes_sent += conn_->bytes_sent();
  obs::observe_us(obs::Metric::phase_auth_probe_us, consumed_us_, kObsOpcua);
  return finish(/*with_duration=*/true);
}

HostGrabTask::Step HostGrabTask::step_reconnect() {
  switch (dial()) {
    case Dial::faulted: return retry_or_give_up(Phase::Reconnect, /*drop=*/false);
    case Dial::refused:  // the listener is genuinely gone mid-assessment
      degrade(ProbeOutcome::truncated);
      return finish(/*with_duration=*/true);
    case Dial::open: break;
  }
  ++reconnects_;
  // Re-establish the anonymous session; the original probe's verdicts
  // (server_signature_valid, session outcome) are already recorded and are
  // deliberately not overwritten here.
  const std::string rng_stream =
      "sess-" + std::to_string(task_id_) + "-r" + std::to_string(reconnects_);
  if (open_session(rng_stream, /*record_verdicts=*/false) != SessionStep::open) {
    return fresh_fault() ? retry_or_give_up(Phase::Reconnect, /*drop=*/true) : give_up();
  }
  return yield(config_.budget.inter_request_ms * 1000, resume_phase_);
}

HostGrabTask::Step HostGrabTask::step_read_namespaces() {
  std::vector<std::string> namespaces;
  const StatusCode status = client_->read_string_array(node_ids::kNamespaceArray, namespaces);
  charge();
  if (status == StatusCode::Good) {
    record_.namespaces = std::move(namespaces);
  } else if (fresh_fault()) {
    // The connection survived (garbled reply): retry the read in place.
    return retry_or_give_up(Phase::ReadNamespaces, /*drop=*/false);
  }
  return yield(config_.budget.inter_request_ms * 1000, Phase::ReadVersion);
}

HostGrabTask::Step HostGrabTask::step_read_version() {
  DataValue sv;
  const StatusCode status = client_->read(node_ids::kSoftwareVersion, AttributeId::Value, sv);
  charge();
  if (status == StatusCode::Good && sv.value.is<std::string>()) {
    record_.software_version = sv.value.as<std::string>();
  } else if (status != StatusCode::Good && fresh_fault()) {
    return retry_or_give_up(Phase::ReadVersion, /*drop=*/false);
  }
  if (!config_.traverse_address_space) return finish_assess();

  // Breadth-first walk from the Objects folder, reading the anonymous
  // user's access rights for every variable/method. The scanner never
  // writes and never calls: rights are read from UserAccessLevel /
  // UserExecutable attributes (paper §A.1).
  queue_ = {node_ids::kObjectsFolder};
  visited_ = {node_ids::kObjectsFolder};
  return traverse_loop(/*browse_first=*/false);
}

HostGrabTask::Step HostGrabTask::traverse_loop(bool browse_first) {
  if (browse_first) {
    refs_.clear();
    ref_index_ = 0;
    const StatusCode status = client_->browse(current_node_, refs_, config_.browse_chunk);
    charge();
    if (status != StatusCode::Good) {
      refs_.clear();
      if (fresh_fault()) return retry_or_give_up(Phase::TraverseBrowse, /*drop=*/false);
    }
  }
  for (;;) {
    // Inner loop: walk the reference list of the current node.
    while (ref_index_ < refs_.size()) {
      const auto& ref = refs_[ref_index_];
      if (!visited_.insert(ref.node_id).second) {
        ++ref_index_;
        continue;
      }
      pending_obs_ = NodeObservation{};
      pending_obs_.browse_name = ref.browse_name.name;
      pending_obs_.node_class = ref.node_class;
      if (ref.node_class == NodeClass::Variable || ref.node_class == NodeClass::Method) {
        if (budget_exhausted()) {
          record_.traversal_truncated = true;
          return finish_assess();
        }
        pending_attr_ = ref.node_class == NodeClass::Variable ? AttributeId::UserAccessLevel
                                                              : AttributeId::UserExecutable;
        return yield(config_.budget.inter_request_ms * 1000, Phase::TraverseRead);
      }
      record_.nodes.push_back(pending_obs_);
      queue_.push_back(ref.node_id);
      ++ref_index_;
    }
    // Outer loop head: pick the next node to browse.
    if (queue_.empty()) return finish_assess();
    if (budget_exhausted()) {
      record_.traversal_truncated = true;
      return finish_assess();
    }
    current_node_ = queue_.front();
    queue_.pop_front();
    return yield(config_.budget.inter_request_ms * 1000, Phase::TraverseBrowse);
  }
}

HostGrabTask::Step HostGrabTask::step_traverse_read() {
  DataValue dv;
  const StatusCode status = client_->read(refs_[ref_index_].node_id, pending_attr_, dv);
  charge();
  if (status == StatusCode::Good) {
    if (pending_attr_ == AttributeId::UserAccessLevel && dv.value.is<std::uint32_t>()) {
      const auto level = dv.value.as<std::uint32_t>();
      pending_obs_.readable = level & access_level::kCurrentRead;
      pending_obs_.writable = level & access_level::kCurrentWrite;
    } else if (pending_attr_ == AttributeId::UserExecutable && dv.value.is<bool>()) {
      pending_obs_.executable = dv.value.as<bool>();
    }
  } else if (fresh_fault()) {
    return retry_or_give_up(Phase::TraverseRead, /*drop=*/false);
  }
  record_.nodes.push_back(pending_obs_);
  queue_.push_back(refs_[ref_index_].node_id);
  ++ref_index_;
  return traverse_loop(/*browse_first=*/false);
}

HostGrabTask::Step HostGrabTask::finish_assess() {
  record_.bytes_sent += conn_->bytes_sent();
  try {
    client_->close_channel();
  } catch (const NetFault&) {
    // Assessment is complete; a fault on the goodbye changes nothing.
  }
  charge();
  return finish(/*with_duration=*/true);
}

}  // namespace opcua_study
