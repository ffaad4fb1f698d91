// One-call orchestration of the full measurement study, plus the scanner
// identity every campaign presents.
#pragma once

#include "population/deploy.hpp"
#include "population/plan.hpp"
#include "scanner/campaign.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/options.hpp"

namespace opcua_study {

/// Seed of the recorded paper study: the campaign `reproduce` records and
/// the examples read back.
inline constexpr std::uint64_t kStudySeed = 20200209;

/// Where the recorded study lives: $OPCUA_STUDY_SNAPSHOT_CACHE when set,
/// else .opcua_study_snapshots.bin in the working directory.
std::string study_snapshot_path();

struct StudyConfig {
  std::uint64_t seed = kStudySeed;
  int dummy_hosts = 20000;
  bool traverse_address_space = true;
  /// Keygen workers for deployment (see DeployConfig::key_threads);
  /// snapshots are field-identical for any value.
  int key_threads = 0;
  std::string key_cache_path = KeyFactory::default_cache_path();
  /// Read by no entry point: ScanOptions::shards/threads set the scan
  /// layout. Kept while existing callers still assign them.
  int shards = 1;
  int scan_threads = 0;
};

/// The scanner's own identity (self-signed certificate with research
/// contact info, as the paper's ethics setup prescribes).
ClientConfig make_scanner_identity(std::uint64_t seed, KeyFactory& keys);

/// Run the eight measurements of the paper's campaign, appending each
/// to `writer` and finish()ing it. Every week is one sharded campaign
/// (study/sharded.hpp) laid out by `options` — shards, threads, faults,
/// protocol mix, in-flight window — so records come out shard-major with
/// hosts sorted by (ip, port) inside each shard, and the bytes are
/// identical for any thread count. The in-memory high-water mark is one
/// window of shard batches, never a full measurement.
///
/// In series terms (src/series/): this produces *member 0* of a campaign
/// series. Add the recorded file to a CampaignSet and grow the rest of
/// the series with extend_series (study/followup.hpp), then feed the set
/// to analyze_series.
void run_full_study_streamed(const StudyConfig& config, SnapshotWriter& writer,
                             const ScanOptions& options);

}  // namespace opcua_study
