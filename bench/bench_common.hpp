// Shared campaign access for the bench binaries: record once, cache on
// disk.
//
// The first binary to run records the eight-week campaign into a chunked
// v6 snapshot file at study_snapshot_path() (streaming one shard batch at
// a time); every later run, and every example, reads that file back —
// exactly like the paper's figures were cut from the released dataset
// rather than from a live scan.
#pragma once

#include <cstdlib>

#include "obs/log.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/study.hpp"
#include "util/date.hpp"

namespace opcua_study::bench {

/// Ensures the recorded campaign exists on disk and returns its path.
/// Any readable cache is accepted: v4/v5/v6, and the sweep-order files
/// older builds recorded, which hold the same records per week and give
/// the same figures.
inline std::string ensure_snapshot_cache() {
  const std::string path = study_snapshot_path();
  if (std::getenv("OPCUA_STUDY_FRESH") == nullptr) {
    try {
      const SnapshotReader probe(path, kStudySeed);
      obs::logf(obs::LogLevel::info, "[bench] using cached campaign %s (v%u, %zu measurements)",
                   path.c_str(), probe.version(), probe.snapshots().size());
      return path;
    } catch (const SnapshotError& e) {
      obs::logf(obs::LogLevel::info, "[bench] snapshot cache unusable (%s)", e.what());
    }
  }
  obs::logf(obs::LogLevel::info, "[bench] running the full eight-week campaign "
               "(first run generates ~900 RSA keys; subsequent runs hit the caches)...");
  SnapshotWriter writer(path, kStudySeed);
  // Self-describing campaign identity: the diff subsystem validates that
  // a follow-up campaign really postdates this base.
  writer.set_campaign("imc2020-study", days_from_civil({2020, 2, 9}));
  run_full_study_streamed(StudyConfig{}, writer, ScanOptions{});
  obs::logf(obs::LogLevel::info, "[bench] campaign cached to %s", path.c_str());
  return path;
}

}  // namespace opcua_study::bench
