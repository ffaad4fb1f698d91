#include "study/sharded.hpp"

#include <algorithm>
#include <functional>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

void sort_by_endpoint(std::vector<HostScanRecord>& hosts) {
  std::sort(hosts.begin(), hosts.end(), [](const HostScanRecord& a, const HostScanRecord& b) {
    return std::make_pair(a.ip, a.port) < std::make_pair(b.ip, b.port);
  });
}

/// The week core both runners share: deploy every shard, scan the shards
/// on the pool, and hand each shard batch to `take` in shard order as soon
/// as the completed prefix reaches it (parallel_for_merged), so what
/// `take` sees never depends on completion order and a batch dies once
/// taken. The week runs in windows of two worker widths: a straggling
/// shard holds back at most one window of finished batches, never the
/// whole measurement. Returns the measurement's merged counters.
SnapshotMeta run_week(Deployer& deployer, int week, const ShardedCampaignConfig& config,
                      ShardedRunStats* stats, const std::function<void(ScanSnapshot&)>& take) {
  const std::size_t shards = static_cast<std::size_t>(std::max(1, config.shards));
  std::vector<std::unique_ptr<Network>> networks;
  networks.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    networks.push_back(deploy_shard(deployer, week, static_cast<int>(s), config));
  }

  SnapshotMeta meta;
  meta.measurement_index = week;
  meta.date_days = measurement_days(week);
  const ThreadPool pool(config.threads);
  const std::size_t window = 2 * std::min(static_cast<std::size_t>(pool.size()), shards);
  std::vector<ScanSnapshot> batches(window);
  for (std::size_t first = 0; first < shards; first += window) {
    pool.parallel_for_merged(
        std::min(window, shards - first),
        [&](std::size_t i) {
          batches[i] = scan_shard(config, *networks[first + i], week, static_cast<int>(first + i));
        },
        [&](std::size_t i) {
          ScanSnapshot batch = std::move(batches[i]);
          // LFSR mode: every shard walks the identical universe, so one
          // shard's walk is the campaign's probe count, not their sum.
          if (config.campaign.oracle_sweep || first + i == 0) meta.probes_sent += batch.probes_sent;
          meta.tcp_open_count += batch.tcp_open_count;
          meta.host_count += batch.hosts.size();
          take(batch);
        });
  }

  if (stats != nullptr) {
    stats->shard_simulated_us.clear();
    for (const auto& net : networks) stats->shard_simulated_us.push_back(net->clock().now_us());
  }
  return meta;
}

}  // namespace

ShardedCampaignConfig make_sharded_config(CampaignConfig campaign, const ScanOptions& options) {
  ShardedCampaignConfig config;
  campaign.max_in_flight = options.max_in_flight;
  campaign.protocols = options.protocols;
  config.campaign = std::move(campaign);
  config.shards = options.shards;
  config.threads = options.threads;
  config.faults = options.faults;
  config.fault_seed = options.fault_seed;
  return config;
}

void install_fault_plan(Network& net, const ShardedCampaignConfig& config) {
  if (!config.faults.enabled()) return;
  const std::uint64_t seed = config.fault_seed != 0 ? config.fault_seed : config.campaign.seed;
  net.set_fault_plan(std::make_unique<FaultPlan>(seed, config.faults));
}

std::unique_ptr<Network> deploy_shard(Deployer& deployer, int week, int shard,
                                      const ShardedCampaignConfig& config) {
  auto net = std::make_unique<Network>();
  deployer.deploy_week(*net, week, ShardSpec{shard, std::max(1, config.shards)});
  install_fault_plan(*net, config);
  return net;
}

ScanSnapshot scan_shard(const ShardedCampaignConfig& config, Network& net, int week, int shard) {
  const obs::TraceScope scope(week, shard);
  Campaign campaign(config.campaign, net);
  ScanSnapshot snapshot = campaign.run(week);
  sort_by_endpoint(snapshot.hosts);
  return snapshot;
}

std::uint64_t ShardedRunStats::max_simulated_us() const {
  std::uint64_t max_us = 0;
  for (const std::uint64_t us : shard_simulated_us) max_us = std::max(max_us, us);
  return max_us;
}

ScanSnapshot run_sharded_campaign(Deployer& deployer, int week,
                                  const ShardedCampaignConfig& config,
                                  ShardedRunStats* stats) {
  ScanSnapshot merged;
  const SnapshotMeta meta = run_week(deployer, week, config, stats, [&](ScanSnapshot& batch) {
    for (auto& host : batch.hosts) merged.hosts.push_back(std::move(host));
  });
  merged.measurement_index = meta.measurement_index;
  merged.date_days = meta.date_days;
  merged.probes_sent = meta.probes_sent;
  merged.tcp_open_count = meta.tcp_open_count;
  // One global (ip, port) order: the merged snapshot is identical for any
  // shard count, not just any thread count.
  sort_by_endpoint(merged.hosts);
  return merged;
}

SnapshotMeta run_sharded_campaign_streamed(Deployer& deployer, int week,
                                           const ShardedCampaignConfig& config,
                                           SnapshotWriter& writer, ShardedRunStats* stats) {
  writer.begin_snapshot(week, measurement_days(week));
  const SnapshotMeta meta = run_week(deployer, week, config, stats, [&](ScanSnapshot& batch) {
    for (const auto& host : batch.hosts) writer.add_host(host);
  });
  writer.end_snapshot(meta.probes_sent, meta.tcp_open_count);
  return meta;
}

ShardedStudy::ShardedStudy(const StudyConfig& config, const ScanOptions& options)
    : plan_(build_population_plan(config.seed)) {
  DeployConfig deploy_config;
  deploy_config.seed = config.seed;
  deploy_config.dummy_hosts = config.dummy_hosts;
  deploy_config.key_threads = config.key_threads;
  deploy_config.key_cache_path = config.key_cache_path;
  deployer_ = std::make_unique<Deployer>(plan_, deploy_config);

  KeyFactory scanner_keys(config.seed, config.key_cache_path);
  CampaignConfig campaign;
  campaign.seed = config.seed;
  campaign.exclusions = deployer_->exclusion_list();
  campaign.grabber.client = make_scanner_identity(config.seed, scanner_keys);
  campaign.grabber.traverse_address_space = config.traverse_address_space;
  config_ = make_sharded_config(std::move(campaign), options);
}

}  // namespace opcua_study
