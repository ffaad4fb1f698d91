#include "study/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/date.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

std::uint64_t effective_snapshot_seed(const CheckpointConfig& config) {
  return config.snapshot_seed != 0 ? config.snapshot_seed : config.campaign.campaign.seed;
}

std::uint64_t effective_fault_seed(const CheckpointConfig& config) {
  return config.campaign.fault_seed != 0 ? config.campaign.fault_seed
                                         : config.campaign.campaign.seed;
}

/// The identity header: every line a resumed run must reproduce verbatim.
/// Doubles are printed at max round-trip precision, so identity comparison
/// is plain string equality — no float parsing anywhere.
std::vector<std::string> identity_header(const CheckpointConfig& config) {
  const FaultProfile& f = config.campaign.faults;
  std::ostringstream faults;
  faults << std::setprecision(17) << "faults " << f.connect_drop << ' ' << f.listener_flap << ' '
         << f.reset << ' ' << f.reset_after_min << ' ' << f.reset_after_max << ' ' << f.stall
         << ' ' << f.stall_us << ' ' << f.truncate << ' ' << f.connect_timeout_us;
  std::vector<std::string> lines;
  lines.push_back("opcua-checkpoint v1");
  lines.push_back("seed " + std::to_string(effective_snapshot_seed(config)));
  lines.push_back("first_week " + std::to_string(config.first_week));
  lines.push_back("weeks " + std::to_string(config.weeks));
  lines.push_back("shards " + std::to_string(std::max(1, config.campaign.shards)));
  lines.push_back("chunk_records " + std::to_string(config.chunk_records));
  lines.push_back("campaign_seed " + std::to_string(config.campaign.campaign.seed));
  lines.push_back("fault_seed " + std::to_string(effective_fault_seed(config)));
  lines.push_back(std::string("oracle ") + (config.campaign.campaign.oracle_sweep ? "1" : "0"));
  lines.push_back(faults.str());
  // Only a non-default protocol mix stamps an identity line, so manifests
  // written before the registry landed keep validating as-is.
  if (!config.campaign.campaign.protocols.empty()) {
    std::string protocols = "protocols";
    for (const ProtocolTarget& target : config.campaign.campaign.protocols) {
      protocols += ' ' + protocol_name(target.protocol) + ':' + std::to_string(target.port);
    }
    lines.push_back(std::move(protocols));
  }
  return lines;
}

/// Parse the manifest at `path`. Returns the sealed unit set; throws on an
/// identity mismatch (resuming with a different configuration would mix
/// incompatible records into one dataset). A missing manifest is a fresh
/// start.
std::set<std::pair<int, int>> load_manifest(const std::string& path,
                                            const std::vector<std::string>& header) {
  std::set<std::pair<int, int>> done;
  std::ifstream in(path);
  if (!in) return done;
  std::string line;
  for (const std::string& expected : header) {
    if (!std::getline(in, line) || line != expected) {
      throw SnapshotError("checkpoint manifest " + path +
                          " was written by an incompatible configuration (expected '" + expected +
                          "', found '" + line + "')");
    }
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    int week = 0, shard = 0;
    if (!(ls >> tag >> week >> shard) || tag != "done") {
      throw SnapshotError("checkpoint manifest " + path + ": malformed line '" + line + "'");
    }
    done.emplace(week, shard);
  }
  return done;
}

/// Atomically replace the manifest: a kill during the write leaves either
/// the previous manifest or the new one, never a torn file.
void save_manifest(const std::string& path, const std::vector<std::string>& header,
                   const std::set<std::pair<int, int>>& done) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw SnapshotError("cannot write checkpoint manifest: " + tmp);
    for (const std::string& line : header) out << line << '\n';
    for (const auto& [week, shard] : done) out << "done " << week << ' ' << shard << '\n';
    out.close();
    if (!out) throw SnapshotError("write failure on checkpoint manifest: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot move checkpoint manifest into place: " + tmp + " -> " + path);
  }
}

}  // namespace

std::string checkpoint_manifest_path(const std::string& dir) { return dir + "/manifest.txt"; }

std::string checkpoint_segment_path(const std::string& dir, int week, int shard) {
  return dir + "/seg-w" + std::to_string(week) + "-s" + std::to_string(shard) + ".bin";
}

bool run_checkpointed_study(Deployer& deployer, const CheckpointConfig& config,
                            const std::string& out_path) {
  const int shards = std::max(1, config.campaign.shards);
  const std::uint64_t seed = effective_snapshot_seed(config);
  std::filesystem::create_directories(config.dir);
  const std::string manifest = checkpoint_manifest_path(config.dir);
  const std::vector<std::string> header = identity_header(config);
  std::set<std::pair<int, int>> done = load_manifest(manifest, header);

  // Scan pending units one week at a time: deployment is sequential (the
  // Deployer memoises keys across shards and is not thread-safe), scanning
  // runs on the pool. Each unit seals its segment file first (the
  // SnapshotWriter rename makes that atomic) and only then marks it done
  // in the manifest — a crash between the two merely rescans one unit.
  const ThreadPool pool(config.campaign.threads);
  std::mutex manifest_mu;
  int allowed = config.stop_after_units < 0 ? std::numeric_limits<int>::max()
                                            : config.stop_after_units;
  for (int w = 0; w < config.weeks && allowed > 0; ++w) {
    const int week = config.first_week + w;
    std::vector<int> pending;
    for (int s = 0; s < shards; ++s) {
      if (!done.contains({week, s})) pending.push_back(s);
    }
    if (pending.empty()) continue;

    std::vector<std::unique_ptr<Network>> networks;
    for (const int shard : pending) {
      networks.push_back(deploy_shard(deployer, week, shard, config.campaign));
    }

    // The pool claims indices in order, so a unit budget of N seals exactly
    // the first N pending units of the week regardless of worker timing. A
    // unit that throws (corrupt segment path, full disk, a netsim bug)
    // stops further claims; already-sealed units stay sealed (the manifest
    // only advances on success), the flight recorder is dumped next to the
    // manifest, and the exception resurfaces here with its original type.
    const int claimable = std::min<int>(allowed, static_cast<int>(pending.size()));
    try {
      pool.parallel_for(static_cast<std::size_t>(claimable), [&](std::size_t i) {
        const int shard = pending[i];
        const obs::TraceScope scope(week, shard);
        try {
          const ScanSnapshot snapshot = scan_shard(config.campaign, *networks[i], week, shard);
          {
            SnapshotWriter seg(checkpoint_segment_path(config.dir, week, shard), seed,
                               config.chunk_records);
            seg.begin_snapshot(week, measurement_days(week));
            for (const auto& host : snapshot.hosts) seg.add_host(host);
            seg.end_snapshot(snapshot.probes_sent, snapshot.tcp_open_count);
            seg.finish();
          }
          obs::trace(obs::TraceEvent::unit_sealed, 0, 0, 0, snapshot.hosts.size(),
                     snapshot.probes_sent);
          std::lock_guard<std::mutex> lock(manifest_mu);
          done.emplace(week, shard);
          save_manifest(manifest, header, done);
        } catch (...) {
          obs::trace(obs::TraceEvent::unit_failed, 0, 0, 0, static_cast<std::uint64_t>(week),
                     static_cast<std::uint64_t>(shard));
          throw;
        }
      });
    } catch (...) {
      if (obs::trace_enabled()) {
        const std::string crash_dump = config.dir + "/flight_recorder.crash.jsonl";
        if (obs::dump_trace(crash_dump)) {
          obs::logf(obs::LogLevel::error, "checkpointed unit failed; flight recorder at %s",
                    crash_dump.c_str());
        }
      }
      throw;
    }
    allowed -= claimable;
  }

  for (int w = 0; w < config.weeks; ++w) {
    for (int s = 0; s < shards; ++s) {
      if (!done.contains({config.first_week + w, s})) return false;  // resume later
    }
  }

  // Final assembly: re-stream every sealed segment in canonical
  // (week, shard) order through one writer. Record order, chunking and
  // dictionary id assignment all match an uninterrupted
  // run_sharded_campaign_streamed study, so the output is byte-identical.
  SnapshotWriter writer(out_path, seed, config.chunk_records);
  if (!config.campaign_label.empty() || config.campaign_epoch_days != 0) {
    writer.set_campaign(config.campaign_label, config.campaign_epoch_days);
  }
  for (int w = 0; w < config.weeks; ++w) {
    const int week = config.first_week + w;
    writer.begin_snapshot(week, measurement_days(week));
    std::uint64_t probes_sent = 0, tcp_open_count = 0, first_shard_probes = 0;
    for (int s = 0; s < shards; ++s) {
      const SnapshotReader seg(checkpoint_segment_path(config.dir, week, s), seed);
      if (seg.snapshots().size() != 1) {
        throw SnapshotError("checkpoint segment holds " +
                            std::to_string(seg.snapshots().size()) +
                            " measurements, expected 1: " +
                            checkpoint_segment_path(config.dir, week, s));
      }
      probes_sent += seg.snapshots()[0].probes_sent;
      tcp_open_count += seg.snapshots()[0].tcp_open_count;
      if (s == 0) first_shard_probes = seg.snapshots()[0].probes_sent;
      seg.for_each_host([&](std::size_t, const HostScanRecord& host) { writer.add_host(host); });
    }
    if (!config.campaign.campaign.oracle_sweep) {
      // LFSR mode: every shard walks the identical universe; one shard's
      // walk is the campaign's probe count (mirrors the sharded runners).
      probes_sent = first_shard_probes;
    }
    writer.end_snapshot(probes_sent, tcp_open_count);
  }
  writer.finish();
  return true;
}

}  // namespace opcua_study
