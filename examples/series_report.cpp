// Campaign-series report: the longitudinal story across N campaigns —
// where did the insecure deployments of the base campaign end up, how
// long did remediation take, and who relapsed?
//
// Builds a seeded 4-campaign series: the study campaign ./build/reproduce
// records as member 0, extended three times with the
// deterministic evolution model via extend_series — the repo's own
// multi-year follow-up history. Each generated member is cached next to
// the base under a seed derived from the base campaign and the step, so
// regenerating or swapping the base invalidates stale members instead of
// silently analyzing against them. Every member streams chunk by chunk;
// none is materialized.
//
//   ./build/series_report [base-file [member-count]]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/log.hpp"
#include "report/report.hpp"
#include "series/series.hpp"
#include "study/followup.hpp"
#include "study/study.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

using namespace opcua_study;

namespace {

/// Cache seed of generated member `step`: derived from the base
/// campaign's final measurement and the step ordinal.
std::uint64_t member_file_seed(const SnapshotMeta& base_final, std::uint64_t model_seed,
                               std::size_t step) {
  return hash64("series-member-of:" + std::to_string(kStudySeed) + ":" +
                std::to_string(base_final.date_days) + ":" +
                std::to_string(base_final.host_count) + ":" + std::to_string(model_seed) + ":" +
                std::to_string(step));
}

std::string fmt_count(std::uint64_t v) { return fmt_int(static_cast<long>(v)); }

std::string fmt_share(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return fmt_double(100.0 * static_cast<double>(part) / static_cast<double>(whole), 1) + "%";
}

std::string member_name(const SnapshotMeta& meta) {
  return meta.campaign_label.empty() ? "<unlabeled>" : meta.campaign_label;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv);
  const std::string base_path = cli.positional_or(0, study_snapshot_path());
  const std::size_t member_count = static_cast<std::size_t>(cli.number_or(1, 4));
  FollowupConfig config;
  config.campaign_label = "";  // derive followup-<k> per step

  SnapshotMeta base_final;
  try {
    const SnapshotReader base(base_path, kStudySeed);
    if (base.snapshots().empty()) {
      std::printf("recorded base campaign at %s holds no measurements\n", base_path.c_str());
      return 0;
    }
    base_final = base.snapshots().back();
  } catch (const SnapshotError& e) {
    std::printf("cannot open recorded base campaign: %s\n"
                "run ./build/reproduce first (it records the dataset)\n",
                e.what());
    return 0;
  }

  SeriesAnalysis series;
  try {
    CampaignSet set;
    set.add_file(base_path, kStudySeed);
    for (std::size_t step = 1; step < member_count; ++step) {
      const std::string path = ".opcua_study_series_m" + std::to_string(step) + ".bin";
      const std::uint64_t file_seed = member_file_seed(base_final, config.seed, step);
      bool cached = true;
      try {
        // A member generated from a different base or step fails the seed
        // check here and is regenerated.
        const SnapshotReader probe(path, file_seed);
      } catch (const SnapshotError&) {
        cached = false;
      }
      if (cached) {
        set.add_file(path, file_seed);
      } else {
        std::printf("generating series member %zu at %s (deterministic evolution model)...\n",
                    step, path.c_str());
        extend_series(set, config, path, file_seed);
      }
    }
    SeriesOptions options;
    options.threads = 0;
    series = analyze_series(set, options);
  } catch (const SnapshotError& e) {
    // A failed generation or analysis is a real error (the CI smoke step
    // must go red), unlike the friendly missing-base case above.
    obs::logf(obs::LogLevel::error, "campaign series analysis failed: %s", e.what());
    return 1;
  }

  std::printf("== campaign-series report (%zu members) ==\n\n", series.members.size());

  TextTable fleet;
  fleet.set_header({"member", "date", "hosts", "deficient", "matched", "arrived", "retired next"});
  for (const SeriesMemberStats& member : series.members) {
    fleet.add_row({member_name(member.meta),
                   format_date(civil_from_days(member.meta.date_days)),
                   fmt_count(member.hosts),
                   fmt_share(member.deficient, member.hosts),
                   fmt_count(member.matched_from_previous), fmt_count(member.arrived),
                   fmt_count(member.retired_into_next)});
  }
  std::fputs(fleet.str().c_str(), stdout);

  std::printf("\nper-step posture movement (matched hosts):\n");
  TextTable steps;
  steps.set_header({"step", "matched", "by cert", "mode up", "mode down", "policy up",
                    "policy down", "remediated", "regressed", "confidence"});
  for (std::size_t k = 0; k < series.steps.size(); ++k) {
    const CampaignDiff& step = series.steps[k];
    steps.add_row({member_name(step.base_week) + " -> " + member_name(step.followup_week),
                   fmt_count(step.matched()), fmt_count(step.matched_by_certificate),
                   fmt_count(step.mode_transitions.upgraded()),
                   fmt_count(step.mode_transitions.downgraded()),
                   fmt_count(step.policy_transitions.upgraded()),
                   fmt_count(step.policy_transitions.downgraded()),
                   fmt_count(step.remediated), fmt_count(step.regressed),
                   fmt_double(step.mean_match_confidence(), 3)});
  }
  std::fputs(steps.str().c_str(), stdout);

  std::printf("\nhost-identity timelines: %s total, %s spanning every member (%s)\n",
              fmt_count(series.timelines.total).c_str(),
              fmt_count(series.timelines.full_span).c_str(),
              fmt_share(series.timelines.full_span, series.timelines.total).c_str());
  TextTable lengths;
  lengths.set_header({"observed in", "timelines"});
  for (std::size_t len = 1; len < series.timelines.length_histogram.size(); ++len) {
    lengths.add_row({fmt_count(len) + (len == 1 ? " member" : " members"),
                     fmt_count(series.timelines.length_histogram[len])});
  }
  std::fputs(lengths.str().c_str(), stdout);

  std::printf("\ntime to remediation (hosts starting below a secure policy):\n");
  TextTable remediation;
  remediation.set_header({"campaigns until secure", "timelines", "share"});
  for (std::size_t k = 1; k < series.remediation.steps_to_secure.size(); ++k) {
    remediation.add_row({fmt_count(k), fmt_count(series.remediation.steps_to_secure[k]),
                         fmt_share(series.remediation.steps_to_secure[k],
                                   series.remediation.insecure_at_start)});
  }
  remediation.add_row({"never (while observed)", fmt_count(series.remediation.never_remediated),
                       fmt_share(series.remediation.never_remediated,
                                 series.remediation.insecure_at_start)});
  std::fputs(remediation.str().c_str(), stdout);
  std::printf("  %s of %s insecure starters remediated; %s later relapsed below secure\n",
              fmt_count(series.remediation.remediated).c_str(),
              fmt_count(series.remediation.insecure_at_start).c_str(),
              fmt_count(series.remediation.relapsed).c_str());

  std::printf("\nre-identification evidence over %s links: %s by address, %s by corroborated "
              "certificate, %s by bare certificate (mean confidence %s)\n",
              fmt_count(series.links_by_address + series.links_by_cert_corroborated +
                        series.links_by_cert_bare)
                  .c_str(),
              fmt_count(series.links_by_address).c_str(),
              fmt_count(series.links_by_cert_corroborated).c_str(),
              fmt_count(series.links_by_cert_bare).c_str(),
              fmt_double(series.mean_link_confidence(), 3).c_str());

  const std::string json_path = "SERIES_report.json";
  std::ofstream out(json_path, std::ios::trunc);
  out << series_analysis_json(series);
  std::printf("\nmachine-readable report written to %s\n", json_path.c_str());
  return 0;
}
