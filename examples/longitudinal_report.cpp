// Longitudinal operator report over a recorded campaign dataset: streams
// the snapshots ./build/reproduce records through the shared analysis
// library and summarizes how (little) the security posture changed — the
// paper's §5.5 told as a report. The dataset is never materialized in
// RAM: the aggregator consumes it chunk by chunk.
//
//   ./build/longitudinal_report [snapshot-file]
#include <cstdio>

#include "analysis/analysis.hpp"
#include "report/report.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/study.hpp"
#include "util/date.hpp"

using namespace opcua_study;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : study_snapshot_path();
  StudyAnalysis analysis;
  try {
    AnalysisOptions options;
    options.threads = 0;
    analysis = analyze_file(path, kStudySeed, options);
  } catch (const SnapshotError& e) {
    std::printf("cannot analyze recorded campaign: %s\n"
                "run ./build/reproduce first (it records the dataset)\n",
                e.what());
    return 0;
  }
  const LongitudinalStats& stats = analysis.longitudinal;
  if (stats.weeks.empty()) {
    std::printf("recorded campaign at %s holds no measurements\n", path.c_str());
    return 0;
  }
  std::printf("== longitudinal security report (%zu measurements) ==\n\n", stats.weeks.size());

  TextTable table;
  table.set_header({"measurement", "servers", "deficient", "trend"});
  for (const auto& week : stats.weeks) {
    table.add_row({format_date(civil_from_days(week.date_days)), fmt_int(week.servers),
                   fmt_double(week.deficient_pct, 1) + "%",
                   render_bar(week.deficient_pct - 85, 10, 24)});
  }
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nno longitudinal improvement: deficiency stayed at %.1f%% +/- %.1f over the "
              "whole campaign.\n\n",
              stats.deficiency_avg, stats.deficiency_std);

  std::printf("certificate hygiene:\n");
  std::printf("  %zu distinct certificates observed\n", stats.total_distinct_certificates);
  std::printf("  %zu SHA-1 certificates were *created after* SHA-1 policies were deprecated "
              "(2017)\n",
              stats.sha1_after_2017);
  std::printf("  %zu of them since 2019\n", stats.sha1_after_2019);
  std::printf("  %zu certificate renewals on static IPs — only %d replaced SHA-1, %d even "
              "downgraded\n",
              stats.renewals.size(), stats.sha1_upgrades, stats.downgrades);

  const int first = stats.weeks.front().reuse_devices;
  const int last = stats.weeks.back().reuse_devices;
  std::printf("\ncertificate copying continues: the distributor fleet sharing one private key "
              "grew from %d to %d devices during the campaign.\n",
              first, last);

  const ScanQualityStats& quality = analysis.scan_quality;
  if (quality.faulted > 0) {
    std::printf("\nscan quality: %llu of %llu records saw network faults (%llu events, "
                "%llu retries); %llu recovered to complete (%.1f%%), %llu truncated, "
                "%llu degraded.\n",
                static_cast<unsigned long long>(quality.faulted),
                static_cast<unsigned long long>(quality.hosts),
                static_cast<unsigned long long>(quality.fault_events),
                static_cast<unsigned long long>(quality.retries),
                static_cast<unsigned long long>(quality.recovered),
                100.0 * quality.recovery_rate,
                static_cast<unsigned long long>(quality.truncated),
                static_cast<unsigned long long>(quality.degraded));
  }
  return 0;
}
