// Cross-campaign differential report: where did the insecure deployments
// of the base campaign end up two years later?
//
// Diffs the study campaign ./build/reproduce records against a
// follow-up campaign. When no follow-up file exists yet, one is generated
// on the spot with the deterministic evolution model — the repo's own
// "PAM 2022" — and cached next to the base. Each campaign loads from its
// posture sketch sidecar when a valid one exists (a stale one is an
// error) and otherwise streams chunk by chunk; neither is materialized.
//
//   ./build/diff_report [base-file [followup-file]] [--verbose]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "diff/diff.hpp"
#include "obs/log.hpp"
#include "report/report.hpp"
#include "study/followup.hpp"
#include "study/study.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

using namespace opcua_study;

namespace {

/// The follow-up cache is stamped with a seed derived from the base
/// campaign's final measurement, so regenerating or swapping the base
/// invalidates a stale follow-up instead of silently diffing against it.
std::uint64_t followup_file_seed(const SnapshotMeta& base_final, std::uint64_t model_seed) {
  return hash64("followup-of:" + std::to_string(kStudySeed) + ":" +
                std::to_string(base_final.date_days) + ":" +
                std::to_string(base_final.host_count) + ":" +
                std::to_string(base_final.probes_sent) + ":" + std::to_string(model_seed));
}

std::string fmt_count(std::uint64_t v) { return fmt_int(static_cast<long>(v)); }

std::string fmt_share(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return fmt_double(100.0 * static_cast<double>(part) / static_cast<double>(whole), 1) + "%";
}

void print_matrix(const char* title, const TransitionMatrix& m, const char* const buckets[3]) {
  std::printf("%s (rows: base, columns: follow-up)\n", title);
  TextTable table;
  table.set_header({"", buckets[0], buckets[1], buckets[2]});
  for (std::size_t from = 0; from < 3; ++from) {
    table.add_row({buckets[from], fmt_count(m.counts[from][0]), fmt_count(m.counts[from][1]),
                   fmt_count(m.counts[from][2])});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("  upgraded: %s, downgraded: %s, unchanged: %s\n\n",
              fmt_count(m.upgraded()).c_str(), fmt_count(m.downgraded()).c_str(),
              fmt_count(m.total() - m.upgraded() - m.downgraded()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv);
  const std::string base_path = cli.positional_or(0, study_snapshot_path());
  const std::string followup_path = cli.positional_or(1, ".opcua_study_followup.bin");
  FollowupConfig followup_config;

  std::uint64_t followup_seed = 0;
  try {
    const SnapshotReader base(base_path, kStudySeed);
    if (base.snapshots().empty()) {
      std::printf("recorded base campaign at %s holds no measurements\n", base_path.c_str());
      return 0;
    }
    followup_seed = followup_file_seed(base.snapshots().back(), followup_config.seed);
  } catch (const SnapshotError& e) {
    std::printf("cannot open recorded base campaign: %s\n"
                "run ./build/reproduce first (it records the dataset)\n",
                e.what());
    return 0;
  }

  CampaignDiff diff;
  try {
    bool have_followup = true;
    try {
      // A follow-up generated from a different base fails the seed check
      // here and is regenerated.
      const SnapshotReader probe(followup_path, followup_seed);
    } catch (const SnapshotError&) {
      have_followup = false;
    }
    if (!have_followup) {
      std::printf("generating follow-up campaign %s from %s (deterministic evolution model)...\n",
                  followup_path.c_str(), base_path.c_str());
      const SnapshotReader base(base_path, kStudySeed);
      SnapshotWriter writer(followup_path, followup_seed);
      run_followup_study_streamed(base, followup_config, writer);
    }
    DiffOptions options;
    options.threads = 0;
    diff = diff_files(base_path, kStudySeed, followup_path, followup_seed, options);
  } catch (const SnapshotError& e) {
    // A failed generation or diff is a real error (the CI smoke step must
    // go red), unlike the friendly missing-base case above.
    obs::logf(obs::LogLevel::error, "campaign diff failed: %s", e.what());
    return 1;
  }

  std::printf("== cross-campaign differential report ==\n\n");
  std::printf("base:      %s (%s, %s hosts)\n",
              diff.base_week.campaign_label.empty() ? "<unlabeled>"
                                                    : diff.base_week.campaign_label.c_str(),
              format_date(civil_from_days(diff.base_week.date_days)).c_str(),
              fmt_count(diff.base_hosts).c_str());
  std::printf("follow-up: %s (%s, %s hosts)\n\n",
              diff.followup_week.campaign_label.empty()
                  ? "<unlabeled>"
                  : diff.followup_week.campaign_label.c_str(),
              format_date(civil_from_days(diff.followup_week.date_days)).c_str(),
              fmt_count(diff.followup_hosts).c_str());

  TextTable population;
  population.set_header({"population", "hosts", "share of base"});
  population.add_row({"re-identified by address", fmt_count(diff.matched_by_address),
                      fmt_share(diff.matched_by_address, diff.base_hosts)});
  population.add_row({"re-identified by certificate (IP churn)",
                      fmt_count(diff.matched_by_certificate),
                      fmt_share(diff.matched_by_certificate, diff.base_hosts)});
  population.add_row({"retired", fmt_count(diff.retired), fmt_share(diff.retired, diff.base_hosts)});
  population.add_row({"newly arrived", fmt_count(diff.arrived), "-"});
  std::fputs(population.str().c_str(), stdout);
  std::printf("\n");

  print_matrix("security-mode transitions", diff.mode_transitions, kModeBuckets);
  print_matrix("security-policy transitions", diff.policy_transitions, kPolicyBuckets);

  TextTable posture;
  posture.set_header({"posture change over matched hosts", "retained", "dropped", "adopted"});
  posture.add_row({"deprecated policies (Basic128Rsa15/Basic256)",
                   fmt_count(diff.deprecated_retained), fmt_count(diff.deprecated_dropped),
                   fmt_count(diff.deprecated_adopted)});
  posture.add_row({"anonymous access", fmt_count(diff.anonymous_retained),
                   fmt_count(diff.anonymous_dropped), fmt_count(diff.anonymous_adopted)});
  std::fputs(posture.str().c_str(), stdout);

  std::printf("\ncertificate evolution over matched hosts:\n");
  std::printf("  %s kept verbatim (the paper's copying behaviour), %s renewed, %s rotated, "
              "%s gained, %s lost, %s without certificates\n",
              fmt_count(diff.certs_verbatim).c_str(), fmt_count(diff.certs_renewed).c_str(),
              fmt_count(diff.certs_rotated).c_str(), fmt_count(diff.certs_gained).c_str(),
              fmt_count(diff.certs_lost).c_str(), fmt_count(diff.certs_absent).c_str());

  const std::uint64_t matched = diff.matched();
  std::printf("\nsecurity deficits (paper §5.2 definition):\n");
  std::printf("  %s of %s matched hosts stayed deficient (%s), %s remediated, %s regressed\n",
              fmt_count(diff.still_deficient).c_str(), fmt_count(matched).c_str(),
              fmt_share(diff.still_deficient, matched).c_str(), fmt_count(diff.remediated).c_str(),
              fmt_count(diff.regressed).c_str());

  const std::string json_path = "DIFF_report.json";
  std::ofstream out(json_path, std::ios::trunc);
  out << campaign_diff_json(diff);
  std::printf("\nmachine-readable report written to %s\n", json_path.c_str());
  return 0;
}
