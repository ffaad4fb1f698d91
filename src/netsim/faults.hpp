// Deterministic fault injection for the simulated Internet.
//
// A FaultPlan attaches to a Network and perturbs it the way a real scan
// target population would: dropped SYNs, listeners that flap away between
// discovery and grab, mid-session resets, response stalls long enough to
// trip client timeouts, and truncated/garbage replies. Every fault is drawn
// from a per-(ip, port) RNG stream derived from the plan seed, and each
// endpoint is only ever touched by its own (sequential) host task — so the
// injected fault sequence is a pure function of (seed, endpoint, the
// endpoint's own event order) and is bit-identical regardless of thread
// count, shard layout, or how many other hosts are in flight.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace opcua_study {

/// Base class for injected transport failures. Deliberately NOT a
/// DecodeError: the OPC UA Client converts DecodeError into status codes
/// (protocol-level rejection), while these must propagate to the scan task
/// so it can retry/reconnect.
class NetFault : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A request exceeded the connection's per-request timeout budget (e.g. an
/// injected response stall). The connection is desynced and unusable.
class NetTimeout : public NetFault {
  using NetFault::NetFault;
};

/// The peer reset the connection mid-session.
class NetReset : public NetFault {
  using NetFault::NetFault;
};

/// Fault probabilities and magnitudes. All probabilities default to zero:
/// a default-constructed profile is a no-op (and a Network without a plan
/// draws nothing at all, keeping fault-free runs byte-identical).
struct FaultProfile {
  /// P(connect attempt's SYN is dropped): the caller sees a timeout after
  /// connect_timeout_us instead of a SYN-ACK.
  double connect_drop = 0;
  /// P(listener refuses this attempt): service flapped — RST after one RTT
  /// even though the endpoint exists.
  double listener_flap = 0;
  /// P(an accepted connection is reset after N completed exchanges), with
  /// N drawn uniformly from [reset_after_min, reset_after_max].
  double reset = 0;
  std::uint32_t reset_after_min = 1;
  std::uint32_t reset_after_max = 4;
  /// P(a response stalls), adding stall_us of latency to the exchange. A
  /// stall longer than the client's request timeout surfaces as NetTimeout.
  double stall = 0;
  std::uint64_t stall_us = 30'000'000;  // 30 s — beyond any sane timeout
  /// P(a reply is truncated to a garbage prefix the client cannot decode).
  double truncate = 0;
  /// Simulated SYN retransmit window charged on a dropped connect.
  std::uint64_t connect_timeout_us = 5'000'000;

  bool enabled() const {
    return connect_drop > 0 || listener_flap > 0 || reset > 0 || stall > 0 || truncate > 0;
  }

  /// A moderately hostile network: every fault class fires, yet a bounded
  /// retry policy recovers the large majority of hosts. Used by the
  /// fault-injection tests.
  static FaultProfile hostile() {
    FaultProfile p;
    p.connect_drop = 0.08;
    p.listener_flap = 0.04;
    p.reset = 0.10;
    p.stall = 0.06;
    p.truncate = 0.06;
    return p;
  }
};

/// Seeded source of per-endpoint fault streams. Owned by a Network; the
/// stream for (ip, port) is created lazily on first contact and persists
/// for the Network's lifetime, so retries and later waves keep consuming
/// the same deterministic sequence.
class FaultPlan {
 public:
  struct Endpoint {
    Rng rng;
    explicit Endpoint(Rng r) : rng(r) {}
  };

  FaultPlan(std::uint64_t seed, FaultProfile profile)
      : seed_(seed), profile_(profile), root_(seed) {}

  std::uint64_t seed() const { return seed_; }
  const FaultProfile& profile() const { return profile_; }

  Endpoint& endpoint(Ipv4 ip, std::uint16_t port) {
    const std::uint64_t k = (static_cast<std::uint64_t>(ip) << 16) | port;
    auto it = endpoints_.find(k);
    if (it == endpoints_.end()) {
      it = endpoints_
               .emplace(k, Endpoint(root_.child("fault-" + format_ipv4(ip) + ":" +
                                                std::to_string(port))))
               .first;
    }
    return it->second;
  }

 private:
  std::uint64_t seed_;
  FaultProfile profile_;
  Rng root_;
  std::unordered_map<std::uint64_t, Endpoint> endpoints_;
};

}  // namespace opcua_study
