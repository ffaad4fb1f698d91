#include "netsim/network.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {
// Cells of obs::Metric::net_faults_injected (see obs::kFaultCells).
constexpr unsigned kObsSynDrop = 0;
constexpr unsigned kObsListenerFlap = 1;
constexpr unsigned kObsReset = 2;
constexpr unsigned kObsStall = 3;
constexpr unsigned kObsTruncate = 4;
constexpr unsigned kObsTimeout = 5;
}  // namespace

Network::Network() = default;

void Network::listen(Ipv4 ip, std::uint16_t port, HandlerFactory factory) {
  listeners_[key(ip, port)] = std::move(factory);
}

void Network::close_listener(Ipv4 ip, std::uint16_t port) { listeners_.erase(key(ip, port)); }

bool Network::is_listening(Ipv4 ip, std::uint16_t port) const {
  return listeners_.contains(key(ip, port));
}

std::uint64_t Network::rtt_us(Ipv4 ip) const {
  // Deterministic 10..150 ms derived from the address (splitmix finalizer —
  // adjacent addresses must not share a path delay).
  std::uint64_t h = ip + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return 10000 + h % 140000;
}

bool Network::syn_probe(Ipv4 ip, std::uint16_t port) {
  // zmap-style stateless probe: one RTT worth of simulated time, amortized —
  // zmap keeps thousands of probes in flight, so we charge a microsecond.
  clock_.advance_us(1);
  return is_listening(ip, port);
}

std::unique_ptr<NetConnection> Network::connect(Ipv4 ip, std::uint16_t port,
                                                ConnectFault* fault) {
  if (fault != nullptr) *fault = ConnectFault::None;
  const auto it = listeners_.find(key(ip, port));
  if (it == listeners_.end()) return nullptr;
  FaultPlan::Endpoint* ep = nullptr;
  if (fault_plan_ != nullptr && fault_plan_->profile().enabled()) {
    ep = &fault_plan_->endpoint(ip, port);
    const FaultProfile& profile = fault_plan_->profile();
    if (ep->rng.chance(profile.connect_drop)) {
      obs::add(obs::Metric::net_faults_injected, 1, kObsSynDrop);
      if (fault != nullptr) *fault = ConnectFault::SynDrop;
      return nullptr;
    }
    if (ep->rng.chance(profile.listener_flap)) {
      obs::add(obs::Metric::net_faults_injected, 1, kObsListenerFlap);
      if (fault != nullptr) *fault = ConnectFault::Flap;
      return nullptr;
    }
  }
  auto conn = std::make_unique<NetConnection>(*this, ip, it->second());
  conn->charge(rtt_us(ip));  // three-way handshake
  if (ep != nullptr) {
    const FaultProfile& profile = fault_plan_->profile();
    conn->faults_ = ep;
    conn->fault_profile_ = &profile;
    if (ep->rng.chance(profile.reset)) {
      conn->reset_after_ = static_cast<std::uint32_t>(
          ep->rng.range(profile.reset_after_min, profile.reset_after_max));
    }
  }
  return conn;
}

std::vector<std::pair<Ipv4, std::uint16_t>> Network::bound_endpoints() const {
  std::vector<std::pair<Ipv4, std::uint16_t>> out;
  out.reserve(listeners_.size());
  for (const auto& [k, factory] : listeners_) {
    out.emplace_back(static_cast<Ipv4>(k >> 16), static_cast<std::uint16_t>(k & 0xffff));
  }
  return out;
}

NetConnection::NetConnection(Network& net, Ipv4 peer, std::unique_ptr<ConnectionHandler> handler)
    : net_(net), peer_(peer), handler_(std::move(handler)) {}

void NetConnection::charge(std::uint64_t us) { elapsed_us_ += us; }

Bytes NetConnection::roundtrip(const Bytes& request) {
  if (faults_ != nullptr && reset_after_ == 0) {
    handler_.reset();
    ++faults_injected_;
    obs::add(obs::Metric::net_faults_injected, 1, kObsReset);
    throw NetReset("connection reset by peer (injected fault)");
  }
  if (handler_ == nullptr || handler_->closed()) {
    throw DecodeError("connection closed by peer");
  }
  bytes_sent_ += request.size();
  net_.total_bytes_sent_ += request.size();
  std::uint64_t cost = net_.rtt_us(peer_) + request.size() / 10;  // ~10 MB/s path
  bool stall = false;
  bool truncate = false;
  if (faults_ != nullptr) {
    // Two draws per exchange, always, so the endpoint stream stays aligned
    // no matter which faults fire.
    stall = faults_->rng.chance(fault_profile_->stall);
    truncate = faults_->rng.chance(fault_profile_->truncate);
  }
  if (stall) {
    cost += fault_profile_->stall_us;
    obs::add(obs::Metric::net_faults_injected, 1, kObsStall);
  }
  if (request_timeout_us_ != 0 && cost > request_timeout_us_) {
    charge(request_timeout_us_);
    handler_.reset();  // the client aborts: the stream is desynced
    ++faults_injected_;
    obs::add(obs::Metric::net_faults_injected, 1, kObsTimeout);
    throw NetTimeout("request timed out after " + std::to_string(request_timeout_us_ / 1000) +
                     " ms");
  }
  charge(cost);
  Bytes response = handler_->on_message(request);
  if (response.empty()) {
    handler_.reset();
    throw DecodeError("connection closed by peer");
  }
  bytes_received_ += response.size();
  charge(response.size() / 10);
  if (truncate) {
    // Garble the reply down to a prefix too short for a UA message header:
    // the client always surfaces a decode failure, never bad data.
    const std::uint64_t cap = std::min<std::uint64_t>(response.size(), 15);
    response.resize(1 + static_cast<std::size_t>(faults_->rng.below(cap)));
    response[0] ^= 0xA5;
    ++faults_injected_;
    obs::add(obs::Metric::net_faults_injected, 1, kObsTruncate);
  }
  if (reset_after_ != kNoReset) --reset_after_;
  return response;
}

void NetConnection::send_oneway(const Bytes& message) {
  if (handler_ == nullptr) return;
  bytes_sent_ += message.size();
  net_.total_bytes_sent_ += message.size();
  charge(net_.rtt_us(peer_) / 2);
  handler_->on_message(message);
}

Bytes DummyBannerService::on_message(std::span<const std::uint8_t>) {
  served_ = true;
  return to_bytes("HTTP/1.0 400 Bad Request\r\nServer: " + banner_ + "\r\n\r\n");
}

}  // namespace opcua_study
