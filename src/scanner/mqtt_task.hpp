// Resumable per-host MQTT-over-TLS grab — the MQTT backend of the grab
// core (scanner/protocol.hpp).
//
// Pipeline per broker: TLS-posture hello (certificate, TLS profile, auth
// methods) → anonymous MQTT CONNECT when anonymous auth is advertised →
// $SYS read of the version banner and announced topic prefixes. Pacing,
// budgets, retries and grading are the grab core's, shared with the OPC UA
// backend. Every retry re-runs the exchange from the hello, and a broker's
// bytes are banked whole when its grab ends.
//
// Posture mapping onto the shared record schema: the TLS profile becomes
// the endpoint's security policy (modern suites -> Basic256Sha256,
// legacy/deprecated suites -> Basic128Rsa15, which the deficiency taxonomy
// already classes as deprecated), broker auth methods become user-token
// types, the broker certificate rides the usual certificate slot, and the
// $SYS topic prefixes land in `namespaces`. Cross-protocol analyses then
// fall out of the existing analysis/diff/series machinery with ProtocolId
// as the new dimension.
#pragma once

#include "scanner/protocol.hpp"

namespace opcua_study {

class MqttGrabTask : public ProbeTask {
 public:
  MqttGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed, Ipv4 ip,
               std::uint16_t port);

 private:
  enum class Phase {  // in phase_rank() order
    Hello,    // connect + TLS-posture hello
    Connect,  // paced anonymous MQTT CONNECT
    SysRead,  // paced $SYS version/topic read
  };

  Step step_phase() override;
  Step on_net_fault() override;
  int phase_rank() const override { return static_cast<int>(phase_); }

  Step step_hello();
  Step step_connect();
  Step step_sys_read();

  /// Start over from the hello (dropping the connection when `drop`), or
  /// give up when the retry budget is spent.
  Step retry_hello(bool drop);
  Step yield(std::uint64_t pace_us, Phase next);
  /// End the grab with the connection's time, faults and bytes banked.
  Step finish_banked(bool with_duration);

  Phase phase_ = Phase::Hello;
};

}  // namespace opcua_study
