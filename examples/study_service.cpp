// The always-on study service, end to end: register a campaign history
// in the CampaignCatalog, keep it resident, and answer JSON queries over
// the concurrent QueryService.
//
// Builds the same seeded 4-campaign history as series_report (the
// recorded study campaign plus three deterministic evolution steps, each
// cached next to the base with its posture sketch sidecar), registers
// every member with the catalog, wires them into a resident series, and
// then runs a battery of queries through an 4-worker pool — catalog
// inventory, cohort-filtered posture cuts, the paper's study summary, a
// pairwise diff, and the longitudinal series analysis. Each query is
// also executed synchronously and compared byte-for-byte against the
// pooled response: the service's determinism contract, demonstrated.
//
//   ./build/study_service [base-file [member-count]] [--verbose]
//   ./build/study_service -- e.g. "kind=posture campaign=m0 deficient=1"
//     (a trailing query string runs instead of the demo battery)
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "study/followup.hpp"
#include "study/study.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

using namespace opcua_study;

namespace {

/// Same derivation as series_report, so the two examples share the
/// generated member cache.
std::uint64_t member_file_seed(const SnapshotMeta& base_final, std::uint64_t model_seed,
                               std::size_t step) {
  return hash64("series-member-of:" + std::to_string(kStudySeed) + ":" +
                std::to_string(base_final.date_days) + ":" +
                std::to_string(base_final.host_count) + ":" + std::to_string(model_seed) + ":" +
                std::to_string(step));
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv);
  const std::string base_path = cli.positional_or(0, study_snapshot_path());
  const std::size_t member_count = static_cast<std::size_t>(cli.number_or(1, 4));
  obs::set_enabled(true);

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

  // Generate (or reuse) the follow-up members, then register everything.
  svc::CampaignCatalog catalog;
  std::vector<std::string> member_names;
  try {
    FollowupConfig config;
    config.campaign_label = "";  // derive followup-<k> per step
    CampaignSet set;
    set.add_file(base_path, kStudySeed);
    catalog.register_campaign("m0", base_path, kStudySeed);
    member_names.push_back("m0");
    for (std::size_t step = 1; step < member_count; ++step) {
      const std::string path = ".opcua_study_series_m" + std::to_string(step) + ".bin";
      const std::uint64_t file_seed = member_file_seed(base_final, config.seed, step);
      bool cached = true;
      try {
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
      const std::string name = "m" + std::to_string(step);
      catalog.register_campaign(name, path, file_seed);
      member_names.push_back(name);
    }
    catalog.register_series("history", member_names);
  } catch (const SnapshotError& e) {
    obs::logf(obs::LogLevel::error, "catalog registration failed: %s", e.what());
    return 1;
  }

  svc::QueryServiceOptions service_options;
  service_options.workers = 4;
  svc::QueryService service(catalog, service_options);

  // A trailing free-form query replaces the demo battery.
  std::vector<std::string> query_texts;
  if (cli.positional().size() > 2) {
    std::string text;
    for (std::size_t i = 2; i < cli.positional().size(); ++i) {
      if (!text.empty()) text += ' ';
      text += cli.positional()[i];
    }
    query_texts.push_back(text);
  } else {
    query_texts = {
        "kind=catalog",
        "kind=posture campaign=m0 as_limit=4",
        "kind=posture campaign=m0 deficient=1",
        "kind=study campaign=m0",
        "kind=diff base=m0 followup=m1",
        "kind=series series=history",
    };
  }

  std::printf("== study service: %zu campaigns resident, %zu queries over %d workers ==\n\n",
              member_names.size(), query_texts.size(), service_options.workers);

  // Submit the whole battery to the pool, then compare each pooled
  // response against a synchronous execution of the same request — the
  // byte-determinism contract in action.
  std::vector<svc::QueryRequest> requests;
  std::vector<std::future<svc::QueryResponse>> futures;
  for (const std::string& text : query_texts) {
    try {
      requests.push_back(svc::parse_query_request(text));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad query '%s': %s\n", text.c_str(), e.what());
      return 2;
    }
    futures.push_back(service.submit(requests.back()));
  }
  bool all_deterministic = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const svc::QueryResponse pooled = futures[i].get();
    const svc::QueryResponse inline_run = service.execute(requests[i]);
    const bool same = pooled.body == inline_run.body;
    all_deterministic = all_deterministic && same;
    std::printf("query: %s\n  status=%s bytes=%zu pooled==inline: %s\n", query_texts[i].c_str(),
                pooled.rejected ? "rejected" : (pooled.ok ? "ok" : "error"), pooled.body.size(),
                same ? "yes" : "NO");
    if (query_texts.size() == 1 || requests[i].kind == svc::QueryRequest::Kind::catalog) {
      std::printf("  %s\n", pooled.body.c_str());
    }
  }
  if (!all_deterministic) {
    obs::logf(obs::LogLevel::error, "pooled and inline responses diverged");
    return 1;
  }

  const obs::MetricsSample sample = obs::collect();
  std::printf("\nservice counters: %llu queries, %llu cache hits, %llu cache misses, "
              "peak resident %llu bytes\n",
              static_cast<unsigned long long>(sample[obs::Metric::svc_queries].total()),
              static_cast<unsigned long long>(sample[obs::Metric::svc_cache_hits].total()),
              static_cast<unsigned long long>(sample[obs::Metric::svc_cache_misses].total()),
              static_cast<unsigned long long>(sample[obs::Metric::svc_resident_bytes].total()));

  // Persist the last response (the series analysis in the demo battery).
  const std::string json_path = "SVC_report.json";
  std::ofstream report(json_path, std::ios::trunc);
  report << service.execute(requests.back()).body;
  std::printf("last response written to %s\n", json_path.c_str());
  return 0;
}
