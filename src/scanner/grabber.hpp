// Application-layer grab of one host — the zgrab2 OPC UA module analogue.
//
// Pipeline per host (paper §4):
//  1. connect + HEL; anything that does not speak UA-TCP is dropped
//     (only 0.5 ‰ of open port-4840 hosts run OPC UA),
//  2. OPN(None) + GetEndpoints → endpoint descriptions + certificates,
//  3. if Sign/SignAndEncrypt is advertised, re-connect and open a secure
//     channel presenting the scanner's self-signed certificate,
//  4. if anonymous access is advertised, create + activate a session,
//  5. traverse the address space (Browse + Read of access levels), pacing
//     500 ms between requests, capped at 60 min / 50 MB per host (§A.2).
//
// The pipeline itself lives in the resumable HostGrabTask state machine
// (scanner/host_task.hpp), driven by the campaign scheduler; this header
// holds the knobs every grab shares. A single-host assessment is a
// one-host Campaign (examples/assess_server.cpp).
#pragma once

#include <cstdint>

#include "opcua/client.hpp"

namespace opcua_study {

struct EthicsBudget {
  std::uint64_t inter_request_ms = 500;   // pause between requests to one host
  std::uint64_t max_host_seconds = 3600;  // 60 min limit
  std::uint64_t max_host_bytes = 50 * 1000 * 1000;  // 50 MB outgoing limit
};

/// Resilience knobs for fault-injected networks. Backoff for retry k
/// (1-based) is base * multiplier^(k-1) plus a deterministic jitter drawn
/// from the task's own RNG stream — identical across thread counts. On a
/// fault-free network none of this machinery ever engages.
struct RetryPolicy {
  int max_attempts = 4;                   // attempts per unit of work
  std::uint16_t max_host_retries = 16;    // total retry budget per host
  std::uint64_t request_timeout_ms = 10'000;  // per-request budget (task time)
  std::uint64_t backoff_base_ms = 250;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_jitter_ms = 100;  // uniform [0, jitter] added per retry
};

struct GrabberConfig {
  ClientConfig client;
  EthicsBudget budget;
  RetryPolicy retry;
  bool traverse_address_space = true;
  std::uint32_t browse_chunk = 64;  // max references per Browse answer
};

}  // namespace opcua_study
