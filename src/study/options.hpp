// The one scan-option set every campaign entry point shares: shards,
// worker threads, fault profile, in-flight window and protocol mix.
// ShardedStudy and run_full_study_streamed consume it directly, and
// make_sharded_config (study/sharded.hpp) turns it into the per-shard
// campaign config the sharded and checkpointed runners take.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netsim/faults.hpp"
#include "scanner/protocol.hpp"

namespace opcua_study {

struct ScanOptions {
  /// Population partitions scanned independently. Records are written
  /// shard-major, hosts sorted by (ip, port) inside each shard batch.
  int shards = 1;
  /// Worker threads for the sharded scan; 0 = hardware concurrency. The
  /// records are identical for any value.
  int threads = 0;
  /// Hosts concurrently in flight per campaign (CampaignConfig doc).
  std::size_t max_in_flight = 256;
  /// Fault injection installed on every deployed Network after deployment.
  /// Default-constructed = disabled (no plan attached, nothing drawn).
  FaultProfile faults;
  /// Seed of the per-endpoint fault streams; 0 = reuse the campaign seed.
  /// Streams are keyed by (ip, port), so the injected sequence is
  /// independent of the shard layout and thread count.
  std::uint64_t fault_seed = 0;
  /// Protocol mix of the campaign (CampaignConfig::protocols). Empty =
  /// the legacy single-profile OPC UA sweep, byte-identical to the
  /// pre-registry engine.
  std::vector<ProtocolTarget> protocols;
};

}  // namespace opcua_study
