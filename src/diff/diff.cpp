// The pairwise campaign diff, the N=2 specialization of the series
// matcher: check the two final measurements form a chain, load both
// sides' postures, run the one comparison step (compare_step). All the
// determinism reasoning lives with the shared core in
// src/series/matcher.cpp.
#include "diff/diff.hpp"

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/matcher.hpp"
#include "series/sketch.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

std::uint64_t TransitionMatrix::total() const {
  std::uint64_t sum = 0;
  for (const auto& row : counts) {
    for (const std::uint64_t c : row) sum += c;
  }
  return sum;
}

std::uint64_t TransitionMatrix::upgraded() const {
  std::uint64_t sum = 0;
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = from + 1; to < 3; ++to) sum += counts[from][to];
  }
  return sum;
}

std::uint64_t TransitionMatrix::downgraded() const {
  std::uint64_t sum = 0;
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < from; ++to) sum += counts[from][to];
  }
  return sum;
}

double CampaignDiff::mean_match_confidence() const {
  return opcua_study::mean_match_confidence(matched_by_address, cert_matches_corroborated,
                                            cert_matches_bare);
}

bool CampaignDiff::counts_equal(const CampaignDiff& other) const {
  auto strip = [](CampaignDiff d) {
    d.base_week.campaign_label.clear();
    d.base_week.campaign_epoch_days = 0;
    d.followup_week.campaign_label.clear();
    d.followup_week.campaign_epoch_days = 0;
    return d;
  };
  return strip(*this) == strip(other);
}

namespace {

/// The one pairwise diff: both final measurements are checked (non-empty,
/// a base -> follow-up chain) before `load(side, pool)` produces the
/// base's (side 0) and then the follow-up's (side 1) postures, then one
/// comparison step.
template <typename Load>
CampaignDiff diff_pair(const RecordSource& base, const RecordSource& followup,
                       const DiffOptions& options, Load load) {
  const obs::WallTimer pass_timer(obs::Metric::diff_pass_wall_us);
  if (base.week_count() == 0 || followup.week_count() == 0) {
    throw SnapshotError("campaign diff needs >= 1 measurement per campaign");
  }
  const SnapshotMeta base_week = base.week_meta(base.week_count() - 1);
  const SnapshotMeta followup_week = followup.week_meta(followup.week_count() - 1);
  validate_campaign_chain({base_week, followup_week});
  ThreadPool pool(options.threads);
  const std::vector<HostPosture> a = load(0, pool);
  const std::vector<HostPosture> b = load(1, pool);
  return compare_step(base_week, a, followup_week, b).diff;
}

}  // namespace

CampaignDiff diff_campaigns(const RecordSource& base, const RecordSource& followup,
                            const DiffOptions& options) {
  return diff_pair(base, followup, options, [&](int side, ThreadPool& pool) {
    return collect_postures(side == 0 ? base : followup, pool);
  });
}

CampaignDiff diff_files(const std::string& base_path, std::uint64_t base_seed,
                        const std::string& followup_path, std::uint64_t followup_seed,
                        const DiffOptions& options) {
  const SnapshotReader base(base_path, base_seed);
  const SnapshotReader followup(followup_path, followup_seed);
  return diff_pair(ReaderRecordSource(base), ReaderRecordSource(followup), options,
                   [&](int side, ThreadPool& pool) {
    return load_postures(side == 0 ? base : followup, side == 0 ? base_path : followup_path,
                         pool, SidecarWrite::never)
        .postures;
  });
}

void append_campaign_diff_fields(JsonWriter& json, const CampaignDiff& diff) {
  auto campaign = [&](const char* key, const SnapshotMeta& week, std::uint64_t hosts) {
    json.key(key)
        .begin_object()
        .field("label", week.campaign_label)
        .field("epoch_days", static_cast<std::uint64_t>(week.campaign_epoch_days))
        .field("date_days", static_cast<std::uint64_t>(week.date_days))
        .field("hosts", hosts)
        .end_object();
  };
  auto matrix = [&](const char* key, const TransitionMatrix& m, const char* const buckets[3]) {
    json.key(key).begin_object().key("buckets").begin_array();
    for (std::size_t i = 0; i < 3; ++i) json.value(buckets[i]);
    json.end_array().key("counts").begin_array();
    for (std::size_t from = 0; from < 3; ++from) {
      json.begin_array();
      for (std::size_t to = 0; to < 3; ++to) json.value(m.counts[from][to]);
      json.end_array();
    }
    json.end_array()
        .field("upgraded", m.upgraded())
        .field("downgraded", m.downgraded())
        .end_object();
  };
  campaign("base", diff.base_week, diff.base_hosts);
  campaign("followup", diff.followup_week, diff.followup_hosts);
  json.key("population")
      .begin_object()
      .field("matched_by_address", diff.matched_by_address)
      .field("matched_by_certificate", diff.matched_by_certificate)
      .field("retired", diff.retired)
      .field("arrived", diff.arrived)
      .end_object();
  // Per-protocol population split; single-protocol pairs carry one row.
  json.key("protocols").begin_object();
  for (const auto& [protocol, row] : diff.by_protocol) {
    json.key(protocol_name(protocol))
        .begin_object()
        .field("base_hosts", row.base_hosts)
        .field("followup_hosts", row.followup_hosts)
        .field("matched", row.matched)
        .field("base_deficient", row.base_deficient)
        .field("followup_deficient", row.followup_deficient)
        .end_object();
  }
  json.end_object();
  // Matcher evidence grading: link counts per evidence class, the fixed
  // per-link confidence each class carries, and the confidence-weighted
  // mean — the audit trail for re-identification quality.
  json.key("match_evidence")
      .begin_object()
      .field("address", diff.matched_by_address)
      .field("certificate_corroborated", diff.cert_matches_corroborated)
      .field("certificate_bare", diff.cert_matches_bare)
      .key("link_confidence")
      .begin_object()
      .field("address", match_confidence(MatchEvidence::address))
      .field("certificate_corroborated", match_confidence(MatchEvidence::cert_corroborated))
      .field("certificate_bare", match_confidence(MatchEvidence::cert_bare))
      .end_object()
      .field("mean_confidence", diff.mean_match_confidence())
      .end_object();
  matrix("mode_transitions", diff.mode_transitions, kModeBuckets);
  matrix("policy_transitions", diff.policy_transitions, kPolicyBuckets);
  json.key("deprecated")
      .begin_object()
      .field("retained", diff.deprecated_retained)
      .field("dropped", diff.deprecated_dropped)
      .field("adopted", diff.deprecated_adopted)
      .end_object();
  json.key("anonymous")
      .begin_object()
      .field("retained", diff.anonymous_retained)
      .field("dropped", diff.anonymous_dropped)
      .field("adopted", diff.anonymous_adopted)
      .end_object();
  json.key("certificates")
      .begin_object()
      .field("verbatim", diff.certs_verbatim)
      .field("renewed", diff.certs_renewed)
      .field("rotated", diff.certs_rotated)
      .field("gained", diff.certs_gained)
      .field("lost", diff.certs_lost)
      .field("absent", diff.certs_absent)
      .end_object();
  json.key("deficiency")
      .begin_object()
      .field("still_deficient", diff.still_deficient)
      .field("remediated", diff.remediated)
      .field("regressed", diff.regressed)
      .field("never_deficient", diff.never_deficient)
      .end_object();
}

std::string campaign_diff_json(const CampaignDiff& diff) {
  JsonWriter json;
  json.begin_object();
  append_campaign_diff_fields(json, diff);
  json.end_object();
  return json.str();
}

}  // namespace opcua_study
