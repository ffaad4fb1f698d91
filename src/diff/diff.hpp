// Cross-campaign differential analysis — the PAM 2022 "Missed
// Opportunities" comparison as a subsystem.
//
// diff_campaigns() consumes the *final* measurement of two recorded
// campaigns (base, follow-up) through the same RecordSource machinery the
// Aggregator streams, and answers the longitudinal question the source
// paper left open: did operators migrate, churn, or stay insecure?
//
// Pipeline (all deterministic, thread-count-invariant):
//   1. posture pass   chunk workers reduce every host record to a compact
//                     HostPosture summary (address, strongest advertised
//                     mode/policy, deprecated/anonymous flags, deficiency
//                     per the paper's §5.2 definition, certificate
//                     fingerprints); partials concatenate in chunk-index
//                     order, so the posture vectors are record-ordered
//                     regardless of scheduling.
//   2. matcher        hosts pair first by (ip, port); leftovers pair by
//                     certificate fingerprint, accepted only when the
//                     fingerprint identifies exactly one unmatched host on
//                     *each* side (a reused certificate re-identifies
//                     nobody). Follow-up hosts are scanned in record
//                     order, so ties resolve identically on every run.
//   3. report         posture transition matrices over the matched pairs,
//                     population churn counts, certificate renewal vs.
//                     verbatim reuse, and deficiency evolution.
//
// Memory is bounded by the posture summaries (tens of bytes per host —
// fingerprints are truncated to 64 bits, never DER), not by the records
// the load-all path decodes. benchmark/'s followup_batch workload times
// the diff pass (diff.pass_s) on a 100k-host base.
//
// Since the series layer landed, the pairwise diff is the N=2
// specialization of src/series/: compare_step (src/series/matcher.hpp) is
// the one step it, analyze_series and the study service's catalog run,
// so a two-member series reproduces every CampaignDiff count field for
// field (tests/test_series.cpp pins it).
#pragma once

#include "analysis/analysis.hpp"

namespace opcua_study {

struct DiffOptions {
  /// Worker threads for the posture pass; 0 = hardware concurrency,
  /// 1 = inline. The resulting CampaignDiff is identical for any value.
  int threads = 1;
};

/// 3x3 posture transition counts over matched hosts: rows = base bucket,
/// columns = follow-up bucket.
struct TransitionMatrix {
  std::uint64_t counts[3][3] = {};

  std::uint64_t at(std::size_t from, std::size_t to) const { return counts[from][to]; }
  std::uint64_t total() const;
  /// Matched hosts that moved to a strictly higher / lower bucket.
  std::uint64_t upgraded() const;
  std::uint64_t downgraded() const;

  friend bool operator==(const TransitionMatrix&, const TransitionMatrix&) = default;
};

/// Bucket labels for the two matrices.
inline constexpr const char* kModeBuckets[3] = {"None", "Sign", "SignAndEncrypt"};
inline constexpr const char* kPolicyBuckets[3] = {"None", "Deprecated", "Secure"};

/// Per-protocol slice of the population/deficiency accounting — the
/// cross-protocol dimension of a mixed-fleet diff. Matching never crosses
/// protocols, so matched rows partition cleanly. A single-protocol
/// campaign pair produces exactly one "opcua" row.
struct ProtocolDiffRow {
  std::uint64_t base_hosts = 0, followup_hosts = 0;
  std::uint64_t matched = 0;
  std::uint64_t base_deficient = 0, followup_deficient = 0;

  friend bool operator==(const ProtocolDiffRow&, const ProtocolDiffRow&) = default;
};

struct CampaignDiff {
  // Identity of the two compared measurements (campaign label/epoch is
  // empty/0 for inputs that never declared one).
  SnapshotMeta base_week, followup_week;

  // Population accounting. matched = matched_by_address +
  // matched_by_certificate; every base host is matched or retired, every
  // follow-up host matched or arrived.
  std::uint64_t base_hosts = 0, followup_hosts = 0;
  std::uint64_t matched_by_address = 0;
  std::uint64_t matched_by_certificate = 0;  // churned IP, re-identified by cert
  std::uint64_t retired = 0;                 // present in base only
  std::uint64_t arrived = 0;                 // present in follow-up only

  // Matcher evidence grading: how the certificate matches were made.
  // matched_by_certificate = corroborated + bare; corroborated links carry
  // a second agreeing signal (same non-zero AS, or same application URI)
  // next to the unique fingerprint, bare links only the fingerprint.
  std::uint64_t cert_matches_corroborated = 0;
  std::uint64_t cert_matches_bare = 0;

  /// Confidence-weighted average over every accepted link (address 1.0,
  /// corroborated certificate 0.9, bare certificate 0.6) — the scalar
  /// re-identification quality grade the reports surface. 0 when nothing
  /// matched.
  double mean_match_confidence() const;

  // Posture transitions over matched hosts. Mode buckets: strongest
  // advertised None / Sign / SignAndEncrypt; policy buckets: strongest
  // advertised None / deprecated (Basic128Rsa15, Basic256) / secure.
  TransitionMatrix mode_transitions;
  TransitionMatrix policy_transitions;
  std::uint64_t deprecated_retained = 0;  // announced deprecated in both
  std::uint64_t deprecated_dropped = 0;
  std::uint64_t deprecated_adopted = 0;
  std::uint64_t anonymous_retained = 0;
  std::uint64_t anonymous_dropped = 0;
  std::uint64_t anonymous_adopted = 0;

  // Certificate evolution over matched hosts.
  std::uint64_t certs_verbatim = 0;  // identical fingerprint set (§5.3 reuse)
  std::uint64_t certs_renewed = 0;   // disjoint non-empty sets
  std::uint64_t certs_rotated = 0;   // both non-empty, partial overlap
  std::uint64_t certs_gained = 0;    // no certificate before, some now
  std::uint64_t certs_lost = 0;      // some certificate before, none now
  std::uint64_t certs_absent = 0;    // no certificate on either side

  // Per-protocol population split (the ProtocolId dimension).
  std::map<ProtocolId, ProtocolDiffRow> by_protocol;

  // Deficiency evolution (paper §5.2: None-only, deprecated maximum, weak
  // certificate, or anonymous access) over matched hosts.
  std::uint64_t still_deficient = 0;
  std::uint64_t remediated = 0;      // deficient -> clean
  std::uint64_t regressed = 0;       // clean -> deficient
  std::uint64_t never_deficient = 0;

  std::uint64_t matched() const { return matched_by_address + matched_by_certificate; }

  /// Equality of every count, ignoring the campaign identity metadata —
  /// what the determinism tests compare across streamed vs. load-all
  /// inputs (in-memory snapshots carry no campaign labels).
  bool counts_equal(const CampaignDiff& other) const;

  friend bool operator==(const CampaignDiff&, const CampaignDiff&) = default;
};

/// Diff the final measurements of two campaigns, walking both. Throws
/// SnapshotError when either campaign is empty, or when the inputs declare
/// campaign identities that do not form a base -> follow-up pair
/// (validate_campaign_chain).
CampaignDiff diff_campaigns(const RecordSource& base, const RecordSource& followup,
                            const DiffOptions& options = {});

/// Diff two recorded snapshot files. Each side loads as in analyze_series
/// (load_postures, series/sketch.hpp): a valid sketch sidecar replaces the
/// walk, a stale or malformed one throws SnapshotError naming the sidecar
/// and the snapshot, and no sidecar is ever written.
CampaignDiff diff_files(const std::string& base_path, std::uint64_t base_seed,
                        const std::string& followup_path, std::uint64_t followup_seed,
                        const DiffOptions& options = {});

/// The machine-readable report (report/json.hpp formatting) —
/// examples/diff_report.cpp writes this next to its tables.
std::string campaign_diff_json(const CampaignDiff& diff);

/// Appends the diff's fields into an already-open JSON object — the
/// building block campaign_diff_json wraps, and what the series report
/// reuses to render each adjacent step.
class JsonWriter;
void append_campaign_diff_fields(JsonWriter& json, const CampaignDiff& diff);

}  // namespace opcua_study
