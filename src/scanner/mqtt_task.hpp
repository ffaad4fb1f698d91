// Resumable per-host MQTT-over-TLS grab — backend 1 of the protocol
// registry (scanner/protocol.hpp).
//
// Pipeline per broker: TLS-posture hello (certificate, TLS profile, auth
// methods) → anonymous MQTT CONNECT when anonymous auth is advertised →
// $SYS read of the version banner and announced topic prefixes. Pacing,
// deferred-time accounting, budget decisions and fault resilience follow
// the OPC UA HostGrabTask model: every wait is task-local, retry jitter is
// drawn from the endpoint-keyed "retry-<ip>:<port>" stream, and nothing
// draws RNG on a fault-free network — so records are identical for any
// in-flight window, thread count or shard layout.
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

#include <memory>

#include "netsim/network.hpp"
#include "scanner/grabber.hpp"
#include "scanner/protocol.hpp"
#include "scanner/record.hpp"
#include "util/rng.hpp"

namespace opcua_study {

class MqttGrabTask : public ProbeTask {
 public:
  MqttGrabTask(const GrabberConfig& config, Network& network, std::uint64_t seed,
               std::uint64_t task_id, Ipv4 ip, std::uint16_t port);
  ~MqttGrabTask() override;

  MqttGrabTask(const MqttGrabTask&) = delete;
  MqttGrabTask& operator=(const MqttGrabTask&) = delete;

  Step step() override;
  bool done() const override { return phase_ == Phase::Done; }
  HostScanRecord take_record() override { return std::move(record_); }
  const HostScanRecord& record() const { return record_; }

 private:
  enum class Phase {
    Hello,    // connect + TLS-posture hello
    Connect,  // paced anonymous MQTT CONNECT
    SysRead,  // paced $SYS version/topic read
    Done,
  };

  Step step_hello();
  Step step_connect();
  Step step_sys_read();

  Step yield(std::uint64_t pace_us, Phase next);
  Step finish(bool with_duration);
  Step on_net_fault();
  Step give_up();
  bool can_retry() const;
  std::uint64_t backoff_us();
  std::uint64_t connect_timeout_us() const;
  void charge(NetConnection& conn) { consumed_us_ += conn.take_elapsed(); }
  void note_faults(std::uint32_t n);
  void bank_connection();
  void degrade(ProbeOutcome grade);

  const GrabberConfig& config_;
  Network& network_;
  std::uint64_t seed_;
  std::uint64_t task_id_;
  Ipv4 ip_;
  std::uint16_t port_;

  Phase phase_ = Phase::Hello;
  HostScanRecord record_;
  std::uint64_t elapsed_us_ = 0;
  std::uint64_t consumed_us_ = 0;

  Rng retry_rng_;
  int attempt_ = 0;
  std::uint32_t conn_faults_seen_ = 0;

  std::unique_ptr<NetConnection> conn_;
};

}  // namespace opcua_study
