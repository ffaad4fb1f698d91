// The simulated IPv4 Internet.
//
// Hosts register listeners on (ip, port); the scanner probes and connects
// exactly as zmap/zgrab2 would. Connections are request/response byte pipes
// with a per-path RTT model and per-connection byte accounting (the paper
// reports 352 kB average outgoing traffic per host, §A.2).
//
// Connections never advance the global SimClock: each roundtrip charges
// its simulated cost (RTT + transfer time) to a per-connection accumulator
// (NetConnection::take_elapsed), so many connections can have requests in
// flight at once; the scan engine turns those costs into timed events on
// the Network's EventScheduler (see DESIGN.md).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "netsim/asdb.hpp"
#include "netsim/clock.hpp"
#include "netsim/event.hpp"
#include "netsim/faults.hpp"
#include "opcua/transport.hpp"
#include "util/ipv4.hpp"

namespace opcua_study {

/// Server side of one TCP connection.
class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;
  /// One message in, one message out. Empty = peer closed the connection.
  virtual Bytes on_message(std::span<const std::uint8_t> request) = 0;
  virtual bool closed() const { return false; }
};

using HandlerFactory = std::function<std::unique_ptr<ConnectionHandler>()>;

class NetConnection;

/// Why a connect() returned nullptr when a FaultPlan is active. The caller
/// needs the distinction: fault-driven refusals are retryable (the service
/// exists), a genuinely closed port is not.
enum class ConnectFault : std::uint8_t {
  None = 0,  // no fault: the nullptr means the port really is closed
  SynDrop,   // SYN silently dropped — costs the connect timeout
  Flap,      // listener flapped away — RST after one RTT
};

class Network {
 public:
  Network();

  // The scheduler holds a reference to clock_; copying would leave it
  // pointed at the original's clock.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  SimClock& clock() { return clock_; }
  EventScheduler& scheduler() { return scheduler_; }
  AsDatabase& as_db() { return as_db_; }
  const AsDatabase& as_db() const { return as_db_; }

  void listen(Ipv4 ip, std::uint16_t port, HandlerFactory factory);
  void close_listener(Ipv4 ip, std::uint16_t port);
  bool is_listening(Ipv4 ip, std::uint16_t port) const;

  /// SYN probe: advances the clock by the path RTT; true = SYN-ACK.
  bool syn_probe(Ipv4 ip, std::uint16_t port);

  /// TCP connect; nullptr when the port is closed. The handshake RTT is
  /// charged to the new connection's accumulator and the global clock is
  /// left untouched — a refused connect charges nothing, the caller
  /// accounts the RST RTT (or SYN timeout) itself.
  ///
  /// With a FaultPlan installed, a connect attempt may be dropped or
  /// refused by an injected fault; `fault` (when non-null) reports why.
  std::unique_ptr<NetConnection> connect(Ipv4 ip, std::uint16_t port,
                                         ConnectFault* fault = nullptr);

  /// Attach (or clear) a deterministic fault plan. Without one — or with a
  /// profile whose probabilities are all zero — no RNG stream is ever
  /// consulted and behavior is bit-identical to the fault-free network.
  void set_fault_plan(std::unique_ptr<FaultPlan> plan) { fault_plan_ = std::move(plan); }
  FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// All bound (ip, port) pairs — the "oracle sweep" ground truth used by
  /// the benches in place of a multi-minute 2^32 LFSR walk (see DESIGN.md).
  std::vector<std::pair<Ipv4, std::uint16_t>> bound_endpoints() const;
  std::size_t listener_count() const { return listeners_.size(); }

  /// Deterministic per-destination RTT in microseconds (10..150 ms).
  std::uint64_t rtt_us(Ipv4 ip) const;

  std::uint64_t total_bytes_sent() const { return total_bytes_sent_; }

 private:
  friend class NetConnection;
  static std::uint64_t key(Ipv4 ip, std::uint16_t port) {
    return (static_cast<std::uint64_t>(ip) << 16) | port;
  }

  SimClock clock_;
  EventScheduler scheduler_{clock_};
  AsDatabase as_db_;
  std::unordered_map<std::uint64_t, HandlerFactory> listeners_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::uint64_t total_bytes_sent_ = 0;
};

/// Client end of an established connection; implements the OPC UA client's
/// MessageTransport with clock + byte accounting.
class NetConnection : public MessageTransport {
 public:
  NetConnection(Network& net, Ipv4 peer, std::unique_ptr<ConnectionHandler> handler);

  Bytes roundtrip(const Bytes& request) override;
  void send_oneway(const Bytes& message) override;

  /// Outgoing traffic (scanner → host), the paper's per-host budget metric.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  bool peer_closed() const { return handler_ == nullptr || handler_->closed(); }
  Ipv4 peer() const { return peer_; }

  /// Simulated time charged since the last take. The scan engine drains
  /// this after every protocol exchange and converts it into event-heap
  /// wake-ups.
  std::uint64_t take_elapsed() {
    const std::uint64_t elapsed = elapsed_us_;
    elapsed_us_ = 0;
    return elapsed;
  }

  /// Per-request timeout budget: an exchange whose simulated cost would
  /// exceed this charges exactly the timeout and throws NetTimeout (the
  /// connection is then desynced and dead). 0 = no timeout.
  void set_request_timeout_us(std::uint64_t us) { request_timeout_us_ = us; }

  /// Number of injected faults that fired on this connection (resets,
  /// timeouts, truncated replies). Lets the scan task tell a fault-driven
  /// protocol failure (retryable) from a genuine rejection.
  std::uint32_t faults_injected() const { return faults_injected_; }

 private:
  friend class Network;  // pre-charges the handshake RTT
  static constexpr std::uint32_t kNoReset = 0xffffffff;
  void charge(std::uint64_t us);

  Network& net_;
  Ipv4 peer_;
  std::unique_ptr<ConnectionHandler> handler_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t elapsed_us_ = 0;
  FaultPlan::Endpoint* faults_ = nullptr;      // null = no injection
  const FaultProfile* fault_profile_ = nullptr;
  std::uint32_t reset_after_ = kNoReset;       // exchanges until injected RST
  std::uint64_t request_timeout_us_ = 0;
  std::uint32_t faults_injected_ = 0;
};

/// A non-OPC-UA service occupying port 4840 (the paper: only 0.5 ‰ of hosts
/// with an open port 4840 actually speak OPC UA). Replies with an HTTP-ish
/// banner to whatever it receives, then closes.
class DummyBannerService : public ConnectionHandler {
 public:
  explicit DummyBannerService(std::string banner) : banner_(std::move(banner)) {}
  Bytes on_message(std::span<const std::uint8_t>) override;
  bool closed() const override { return served_; }

 private:
  std::string banner_;
  bool served_ = false;
};

}  // namespace opcua_study
