// Host re-identification matcher — the shared core under src/diff/ (the
// N=2 pairwise diff), src/series/ (the N-way trajectory analysis) and the
// study service's catalog (src/svc/).
//
// A campaign's final measurement is reduced to a vector of HostPosture
// summaries (chunk-parallel, concatenated in chunk-index order, so the
// vector is record-ordered for any thread count). Two adjacent posture
// vectors are then matched in two passes:
//   1. by (ip, port) — the same endpoint answered again;
//   2. by unique certificate fingerprint — a churned IP re-identified by
//      the certificate it kept, accepted only when the fingerprint names
//      exactly one unmatched host on *each* side (a fleet-reused
//      certificate identifies nobody).
// Every accepted link carries an evidence grade: address matches are
// definitive; certificate matches are corroborated (same non-zero AS or
// same application URI on both sides) or bare (fingerprint only). The
// grade feeds the per-link confidence surfaced in campaign_diff_json and
// the series report, so re-identification quality is auditable.
//
// compare_step() is the one comparison step (match, tally, stamp):
// diff_campaigns, diff_files, the series builder and the catalog's diff
// all run it, which is what makes the N=2 series reproduce the pairwise
// diff field for field.
#pragma once

#include "analysis/analysis.hpp"
#include "diff/diff.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

/// Compact per-host summary: everything the matcher and the transition
/// tallies need, nothing else. Fingerprints are the first 8 bytes of the
/// SHA-1 thumbprint — 64 bits is collision-free in practice at study
/// scale and keeps two million summaries far below the decoded records.
struct HostPosture {
  Ipv4 ip = 0;
  std::uint16_t port = 0;
  /// Matching never crosses protocols: an OPC UA server and an MQTT broker
  /// on the same address are different hosts, and a certificate shared
  /// across the two (one device, two services) re-identifies neither.
  ProtocolId protocol = ProtocolId::opcua;
  std::uint32_t asn = 0;           // corroborating evidence for cert matches
  std::uint64_t uri_hash = 0;      // hash64(application_uri), 0 when empty
  std::uint8_t mode_bucket = 0;    // index into kModeBuckets
  std::uint8_t policy_bucket = 0;  // index into kPolicyBuckets
  bool supports_deprecated = false;
  bool anonymous = false;
  bool deficient = false;
  std::vector<std::uint64_t> fps;  // sorted, deduplicated

  friend bool operator==(const HostPosture&, const HostPosture&) = default;
};

/// How one follow-up host was linked to its base-side identity.
enum class MatchEvidence : std::uint8_t {
  none = 0,             // unmatched (arrival / timeline break)
  address,              // same (ip, port)
  cert_corroborated,    // unique fingerprint + same AS or application URI
  cert_bare,            // unique fingerprint only
};

/// Per-link confidence grade: how strongly the evidence class identifies
/// the host. Address re-observation is definitive; a unique certificate
/// with a second agreeing signal is nearly so; a bare fingerprint can in
/// principle be a transplanted disk image.
double match_confidence(MatchEvidence evidence);

/// Confidence-weighted mean over a population of accepted links (0 when
/// empty) — the one implementation behind CampaignDiff's per-step grade
/// and the series-level aggregate.
double mean_match_confidence(std::uint64_t by_address, std::uint64_t by_cert_corroborated,
                             std::uint64_t by_cert_bare);

/// Match of one (base, follow-up) posture-vector pair. Indices are into
/// the record-ordered posture vectors.
struct MatchResult {
  static constexpr std::uint32_t kUnmatched = 0xffffffffu;
  std::vector<std::uint32_t> base_of;       // per follow-up index: base index
  std::vector<MatchEvidence> evidence;      // per follow-up index
  std::vector<bool> base_matched;           // per base index
};

/// Posture pass over a campaign's final measurement: chunk-parallel
/// absorb, chunk-ordered concatenation (the completed prefix is appended
/// as workers advance). Identical output for any thread count.
std::vector<HostPosture> collect_postures(const RecordSource& source, ThreadPool& pool);

struct ComparisonStep {
  CampaignDiff diff;
  MatchResult match;
};

/// Match `followup` against `base` (both passes iterate the record-ordered
/// vectors front to back, so ties resolve identically on every run), tally
/// the diff counters and stamp both final-measurement identities. The
/// caller checks the chain before it loads the postures.
ComparisonStep compare_step(const SnapshotMeta& base_week, const std::vector<HostPosture>& base,
                            const SnapshotMeta& followup_week,
                            const std::vector<HostPosture>& followup);

}  // namespace opcua_study
