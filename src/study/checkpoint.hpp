// Crash-safe, resumable sharded campaigns.
//
// A long campaign that dies mid-measurement (OOM kill, power loss,
// pre-empted spot instance) should not have to rescan weeks of finished
// work. This runner splits the study into (week, shard) units — the same
// per-shard unit the sharded runners use (deploy_shard + scan_shard,
// study/sharded.hpp), scanned on a util::ThreadPool — writes each
// finished unit to its own sealed segment snapshot inside a checkpoint
// directory, and records completed units in a small text manifest that is
// atomically rewritten after every unit. Killing the process at any point
// loses at most the units in flight: a restarted run validates the
// manifest's identity header, skips everything already sealed, scans only
// the pending units, and finally re-streams all segments in canonical
// (week, shard) order through one SnapshotWriter.
//
// Because a unit's records are a pure function of (seed, week, shard) and
// the final assembly replays them in exactly the order
// run_sharded_campaign_streamed writes them (shard-major, hosts sorted by
// (ip, port) within a shard, one begin/end_snapshot per week), the final
// file is byte-identical to an uninterrupted streamed run — the
// kill-and-resume test pins this.
//
// A unit that throws stops further claims and is traced as `unit_failed`;
// with the flight recorder on, the trace is dumped to
// `<dir>/flight_recorder.crash.jsonl`, and the unit's exception reaches
// the caller with its original type. Sealed units stay sealed, so the
// next run resumes from them.
//
// Manifest format (`manifest.txt`, atomically replaced via .tmp + rename):
//   opcua-checkpoint v1
//   seed <snapshot seed>         first_week <w>   weeks <n>
//   shards <n>                   chunk_records <n>
//   campaign_seed <s>            fault_seed <s>   oracle <0|1>
//   faults <connect_drop> <listener_flap> <reset> <reset_after_min>
//          <reset_after_max> <stall> <stall_us> <truncate> <connect_timeout_us>
//   done <week> <shard>          (one line per sealed unit)
// A resume with any differing identity line refuses to run (SnapshotError):
// mixing seeds or fault profiles across runs would corrupt the dataset.
#pragma once

#include <string>

#include "study/sharded.hpp"

namespace opcua_study {

struct CheckpointConfig {
  /// Per-shard campaign settings plus shard/thread counts and the fault
  /// profile, exactly as run_sharded_campaign_streamed consumes them.
  ShardedCampaignConfig campaign;
  /// Measurements [first_week, first_week + weeks).
  int first_week = 0;
  int weeks = 1;
  /// Directory holding the manifest and per-unit segment files; created
  /// if missing.
  std::string dir;
  /// Seed stamped into segment and final snapshot files; 0 = campaign seed.
  std::uint64_t snapshot_seed = 0;
  std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords;
  /// Optional campaign identity stamped on the *final* file (segments
  /// never carry one).
  std::string campaign_label;
  std::int64_t campaign_epoch_days = 0;
  /// Test hook simulating a crash: complete at most this many units in
  /// this invocation, then return without assembling. Negative = no limit.
  int stop_after_units = -1;
};

std::string checkpoint_manifest_path(const std::string& dir);
std::string checkpoint_segment_path(const std::string& dir, int week, int shard);

/// Run (or resume) the checkpointed campaign. Returns true when every unit
/// is sealed and the final snapshot was assembled at `out_path`; false when
/// stop_after_units left pending units (call again to resume). Throws
/// SnapshotError when an existing manifest was produced by an incompatible
/// configuration.
bool run_checkpointed_study(Deployer& deployer, const CheckpointConfig& config,
                            const std::string& out_path);

}  // namespace opcua_study
