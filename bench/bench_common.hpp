// Shared campaign access for the bench binaries: run once, cache on disk,
// analyze as a stream.
//
// The figure/table benches no longer materialize the dataset: the first
// binary to run records the eight-week campaign into a chunked v6
// snapshot file (streaming one shard batch at a time), and every bench
// derives its numbers from one StudyAnalysis computed by the shared
// src/analysis/ aggregator over that file — chunk by chunk, in bounded
// memory, exactly like the paper's figures were cut from the released
// dataset rather than from a live scan.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "analysis/analysis.hpp"
#include "report/report.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/study.hpp"
#include "util/date.hpp"
#include "obs/log.hpp"

namespace opcua_study::bench {

inline constexpr std::uint64_t kStudySeed = 20200209;

inline std::string snapshot_cache_path() {
  if (const char* env = std::getenv("OPCUA_STUDY_SNAPSHOT_CACHE")) return env;
  return ".opcua_study_snapshots.bin";
}

/// Ensures the recorded campaign exists on disk and returns its path.
/// Any readable cache is accepted: v4/v5/v6, and the sweep-order files
/// older builds recorded, which hold the same records per week and give
/// the same figures.
inline std::string ensure_snapshot_cache() {
  const std::string path = snapshot_cache_path();
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
  StudyConfig config;
  config.seed = kStudySeed;
  SnapshotWriter writer(path, kStudySeed);
  // Self-describing campaign identity: the diff subsystem validates that
  // a follow-up campaign really postdates this base.
  writer.set_campaign("imc2020-study", days_from_civil({2020, 2, 9}));
  run_full_study_streamed(config, writer, ScanOptions{});
  obs::logf(obs::LogLevel::info, "[bench] campaign cached to %s", path.c_str());
  return path;
}

/// One streaming pass over the recorded dataset -> every figure/table.
inline StudyAnalysis run_analysis(AnalysisOptions options = {.threads = 0}) {
  return analyze_file(ensure_snapshot_cache(), kStudySeed, options);
}

/// Prints one "vs paper" block and returns main's exit status: 0 when
/// every row reproduced, 1 on any deviation, so a wrong figure fails the
/// process (and CI) instead of printing [DEVIATIONS PRESENT] and exiting 0.
inline int print_comparison(const std::string& title, const std::vector<ComparisonRow>& rows) {
  std::fputs(render_comparison(title, rows).c_str(), stdout);
  for (const ComparisonRow& row : rows) {
    if (!row.matches) return 1;
  }
  return 0;
}

}  // namespace opcua_study::bench
