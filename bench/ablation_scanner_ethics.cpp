// Ablation (§A.2): scanner politeness — the 500 ms inter-request pacing and
// the 60 min / 50 MB per-host caps. With pacing on, per-host connection
// times reproduce the paper's reported scale (avg 110 s); with pacing off,
// the same traversals finish orders of magnitude faster, which is exactly
// the behaviour the guidelines forbid against resource-constrained devices.
//
// A second ablation covers the *campaign* dimension: pacing politely is only
// compatible with the paper's 24 h scan window because thousands of hosts
// are in flight at once — scanned lock-step, the same polite sweep would
// need days of scan time. The interleaved engine reproduces that window
// compression.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"
#include "obs/log.hpp"

using namespace opcua_study;

namespace {

struct TrafficStats {
  double avg_duration = 0, max_duration = 0, min_duration = 1e18;
  double avg_bytes = 0;
  std::uint64_t max_bytes = 0;
  int hosts = 0;
};

void add_host(TrafficStats& stats, const HostScanRecord& host) {
  ++stats.hosts;
  stats.avg_duration += host.duration_seconds;
  stats.max_duration = std::max(stats.max_duration, host.duration_seconds);
  stats.min_duration = std::min(stats.min_duration, host.duration_seconds);
  stats.avg_bytes += static_cast<double>(host.bytes_sent);
  stats.max_bytes = std::max(stats.max_bytes, host.bytes_sent);
}

TrafficStats traffic_of(const ScanSnapshot& snapshot) {
  TrafficStats stats;
  for (const auto& host : snapshot.hosts) add_host(stats, host);
  if (stats.hosts > 0) {
    stats.avg_duration /= stats.hosts;
    stats.avg_bytes /= stats.hosts;
  }
  return stats;
}

/// Traffic profile of the recorded final measurement, streamed from the
/// snapshot cache without materializing the dataset.
TrafficStats recorded_final_traffic() {
  const SnapshotReader reader(bench::ensure_snapshot_cache(), kStudySeed);
  TrafficStats stats;
  const std::size_t final_week = reader.snapshots().size() - 1;
  for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
    if (reader.chunks()[c].snapshot_ordinal != final_week) continue;
    for (const auto& host : reader.read_chunk(c)) add_host(stats, host);
  }
  if (stats.hosts > 0) {
    stats.avg_duration /= stats.hosts;
    stats.avg_bytes /= stats.hosts;
  }
  return stats;
}

}  // namespace

int main() {
  const TrafficStats polite = recorded_final_traffic();

  StudyConfig config;
  // One fresh week-7 world + campaign per ablation; `mutate` tweaks the
  // campaign config, the result carries the snapshot and the simulated
  // campaign window in hours.
  const auto run_fresh_campaign = [&config](auto&& mutate) {
    const PopulationPlan plan = build_population_plan(config.seed);
    DeployConfig deploy_config;
    deploy_config.seed = config.seed;
    deploy_config.dummy_hosts = config.dummy_hosts;
    Deployer deployer(plan, deploy_config);
    Network net;
    deployer.deploy_week(net, 7);
    KeyFactory keys(config.seed, config.key_cache_path);
    CampaignConfig campaign_config;
    campaign_config.seed = config.seed;
    campaign_config.exclusions = deployer.exclusion_list();
    campaign_config.grabber.client = make_scanner_identity(config.seed, keys);
    mutate(campaign_config);
    Campaign campaign(campaign_config, net);
    ScanSnapshot snapshot = campaign.run(7);
    return std::make_pair(std::move(snapshot),
                          static_cast<double>(net.clock().now_us()) / 3.6e9);
  };

  obs::logf(obs::LogLevel::info, "[bench] running the pacing-off ablation scan...");
  // Same world, pacing disabled (ablation: what the guidelines prevent).
  const ScanSnapshot impolite =
      run_fresh_campaign([](CampaignConfig& c) { c.grabber.budget.inter_request_ms = 0; }).first;
  const TrafficStats rude = traffic_of(impolite);

  std::puts("Ablation: scanner politeness (500 ms pacing + 60 min / 50 MB caps)\n");
  TextTable table;
  table.set_header({"metric", "pacing on (paper setup)", "pacing off (ablation)"});
  table.add_row({"avg connection time", fmt_double(polite.avg_duration, 1) + " s",
                 fmt_double(rude.avg_duration, 2) + " s"});
  table.add_row({"max connection time", fmt_double(polite.max_duration, 1) + " s",
                 fmt_double(rude.max_duration, 2) + " s"});
  table.add_row({"min connection time", fmt_double(polite.min_duration * 1000, 1) + " ms",
                 fmt_double(rude.min_duration * 1000, 2) + " ms"});
  table.add_row({"avg outgoing traffic", fmt_double(polite.avg_bytes / 1000.0, 1) + " kB",
                 fmt_double(rude.avg_bytes / 1000.0, 1) + " kB"});
  table.add_row({"max outgoing traffic", fmt_double(polite.max_bytes / 1e6, 2) + " MB",
                 fmt_double(static_cast<double>(rude.max_bytes) / 1e6, 2) + " MB"});
  std::fputs(table.str().c_str(), stdout);

  std::vector<ComparisonRow> rows = {
      {"avg connection time (paper: 110 s)", "~110 s", fmt_double(polite.avg_duration, 1) + " s",
       polite.avg_duration > 30 && polite.avg_duration < 250},
      {"max within 60-min cap (paper max: 5393 s)", "<= 3700 s",
       fmt_double(polite.max_duration, 1) + " s", polite.max_duration <= 3700},
      {"traffic within 50 MB cap", "<= 50 MB",
       fmt_double(static_cast<double>(polite.max_bytes) / 1e6, 2) + " MB",
       polite.max_bytes <= 50u * 1000 * 1000},
      // With pacing off, the per-request path RTT (10-150 ms) becomes the
      // floor, so the politeness overhead is bounded by ~500ms/RTT ≈ 5-10x.
      {"pacing dominates duration", ">5x speedup when off",
       fmt_double(polite.avg_duration / std::max(rude.avg_duration, 1e-9), 1) + "x",
       polite.avg_duration / std::max(rude.avg_duration, 1e-9) > 5},
  };
  bool ok = print_comparison(stdout, "Scanner ethics (§A.2) vs paper", rows);

  // ---- campaign scheduling ablation: lock-step vs interleaved scan window.
  obs::logf(obs::LogLevel::info, "[bench] measuring the interleaved scan window (fresh campaign)...");
  // Pacing on, default max_in_flight = 256.
  const double interleaved_hours = run_fresh_campaign([](CampaignConfig&) {}).second;
  // Scanned one host at a time, the polite sweep needs at least the sum of
  // the per-host connection times.
  const double lock_step_hours = polite.avg_duration * polite.hosts / 3600.0;

  std::puts("\nAblation: campaign scheduling (lock-step vs 256 hosts in flight)\n");
  TextTable window;
  window.set_header({"schedule", "simulated scan window"});
  window.add_row({"lock-step, one host at a time (lower bound)",
                  fmt_double(lock_step_hours, 1) + " h"});
  window.add_row({"interleaved, 256 in flight", fmt_double(interleaved_hours, 1) + " h"});
  std::fputs(window.str().c_str(), stdout);

  std::vector<ComparisonRow> window_rows = {
      {"polite weekly sweep fits the paper's scan window", "<= 24 h",
       fmt_double(interleaved_hours, 1) + " h", interleaved_hours <= 24.0},
      // Lock-step, the polite sweep consumes nearly the whole window for
      // ~1/20 of the paper's server population — interleaving is what makes
      // polite Internet-wide scanning feasible at all.
      {"interleaving compresses the scan window", "> 20x",
       fmt_double(lock_step_hours / std::max(interleaved_hours, 1e-9), 0) + "x",
       lock_step_hours > 20 * interleaved_hours},
  };
  ok &= print_comparison(stdout, "Scan window (§A.2) vs paper", window_rows);
  return ok ? 0 : 1;
}
