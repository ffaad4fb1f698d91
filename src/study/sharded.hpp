// Sharded measurement runner: the simulated universe split across the
// worker pool.
//
// The concurrent engine removes simulated-time serialization (hosts
// interleave on one event heap); sharding removes *real*-time
// serialization: the population is partitioned into disjoint per-shard
// Networks (discovery-reference closures never straddle a partition, see
// ShardSpec) and each shard runs its own campaign as one util::ThreadPool
// iteration. Every runner here and in study/checkpoint.hpp is built from
// the same per-shard unit (deploy_shard + scan_shard), so a shard's
// records are a pure function of (seed, week, shard) whatever the runner,
// shard count or thread count. See DESIGN.md §Sharding.
#pragma once

#include "netsim/faults.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "study/options.hpp"
#include "study/study.hpp"

namespace opcua_study {

struct ShardedCampaignConfig {
  /// Per-shard campaign settings (seed, grabber, exclusions, max_in_flight).
  CampaignConfig campaign;
  int shards = 4;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  /// Fault injection installed on every shard Network after deployment.
  /// Default-constructed = disabled (no plan attached, nothing drawn).
  FaultProfile faults;
  /// Seed of the per-endpoint fault streams; 0 = reuse campaign.seed.
  /// Fault streams are keyed by (ip, port), so the injected sequence is
  /// independent of the shard layout and thread count.
  std::uint64_t fault_seed = 0;
};

/// Build the per-shard campaign config from the shared scan options.
ShardedCampaignConfig make_sharded_config(CampaignConfig campaign, const ScanOptions& options);

/// Attach the configured fault plan to a freshly deployed Network (no-op
/// when the profile is disabled).
void install_fault_plan(Network& net, const ShardedCampaignConfig& config);

/// The per-shard unit. deploy_shard builds `shard` of `week` on a fresh
/// Network with the configured fault plan; call it from one thread (the
/// Deployer memoises keys and certificates across shards). scan_shard runs
/// the shard's campaign under a (week, shard) trace scope and sorts its
/// hosts by (ip, port); it touches only `net`, so shards scan in parallel.
std::unique_ptr<Network> deploy_shard(Deployer& deployer, int week, int shard,
                                      const ShardedCampaignConfig& config);
ScanSnapshot scan_shard(const ShardedCampaignConfig& config, Network& net, int week, int shard);

struct ShardedRunStats {
  /// Simulated end-of-campaign clock per shard; the campaign's simulated
  /// wall-clock is the max (shards run concurrently in simulated time too).
  std::vector<std::uint64_t> shard_simulated_us;
  std::uint64_t max_simulated_us() const;
};

/// Deploy every shard, scan them on the pool, and merge the snapshots:
/// counters sum, hosts sort by (ip, port) across shards.
ScanSnapshot run_sharded_campaign(Deployer& deployer, int week,
                                  const ShardedCampaignConfig& config,
                                  ShardedRunStats* stats = nullptr);

/// Same campaign, but each finished shard's host batch is handed to
/// `writer` (one begin/end_snapshot pair for the measurement) — the
/// in-memory high-water mark is the shard batches of one window, never the
/// merged measurement. Canonical record order is shard-major: shard
/// batches in shard-index order, hosts sorted by (ip, port) inside each
/// batch, so the written bytes are identical for any worker-thread count.
/// The caller still owns begin-of-file and finish(). Returns the
/// measurement's meta.
SnapshotMeta run_sharded_campaign_streamed(Deployer& deployer, int week,
                                           const ShardedCampaignConfig& config,
                                           SnapshotWriter& writer,
                                           ShardedRunStats* stats = nullptr);

/// Shared setup for a study's weekly measurements: population plan,
/// deployer and campaign config built once from a StudyConfig and reused
/// across the eight weeks (key/cert memoisation lives in the deployer).
/// Every scan knob comes from `options`. Non-movable: the deployer
/// references the plan.
class ShardedStudy {
 public:
  ShardedStudy(const StudyConfig& config, const ScanOptions& options);
  ShardedStudy(const ShardedStudy&) = delete;
  ShardedStudy& operator=(const ShardedStudy&) = delete;

  Deployer& deployer() { return *deployer_; }
  const ShardedCampaignConfig& config() const { return config_; }

 private:
  PopulationPlan plan_;
  std::unique_ptr<Deployer> deployer_;
  ShardedCampaignConfig config_;
};

}  // namespace opcua_study
