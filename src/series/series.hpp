// The campaign-series API — campaigns as a first-class *ordered
// collection*, not a one-file or two-file argument list.
//
// The paper's longitudinal story (§5.5) and the PAM 2022 follow-up are
// about trajectories: the same host observed across many campaigns. A
// CampaignSet is that trajectory's input — an ordered, lazily-opened list
// of recorded campaigns, each member either a snapshot file (opened on
// demand, streamed chunk by chunk) or an in-memory snapshot vector, all
// exposed uniformly through the RecordSource interface the analysis,
// diff, and series passes already consume. Member identity (campaign
// label/epoch) comes from the v5 campaign block for files and from an
// explicit annotation for in-memory members; ordering is validated with
// the chain rules generalized from the pairwise diff (epochs strictly
// increasing over declared members, no duplicate consecutive identity).
//
// analyze_series() walks the set pairwise: postures of two adjacent
// members are collected (chunk-parallel, chunk-order-merged — the result
// is identical for any thread count), matched with the two-pass
// address-then-unique-certificate matcher, tallied into a per-step
// CampaignDiff, and the accepted links are transitively chained into
// per-host *timelines*. Memory stays bounded by two posture vectors plus
// one timeline state per live host — never by the records — so an
// N-member, million-host series streams in the same footprint as one
// pairwise diff. From the timelines the analysis reports what no
// pairwise diff can see: time-to-remediation distributions
// (campaigns-until-upgrade for hosts starting below a secure policy),
// relapse counts, fleet growth/churn curves, and N−1 consecutive
// transition-matrix steps.
#pragma once

#include <memory>

#include "diff/diff.hpp"
#include "series/matcher.hpp"

namespace opcua_study {

/// One member of a series: a recorded snapshot file *or* an in-memory
/// campaign, plus the identity annotation for the latter.
struct CampaignMember {
  std::string path;        // file-backed member when non-empty
  std::uint64_t seed = 0;  // snapshot-file seed (file members)
  std::shared_ptr<const std::vector<ScanSnapshot>> snapshots;  // in-memory member
  /// Identity annotation for in-memory members (files self-describe via
  /// the v5 campaign block; the annotation fills in only when the
  /// underlying measurement declares none).
  std::string label;
  std::int64_t epoch_days = 0;

  bool file_backed() const { return !path.empty(); }
};

/// Ordered, lazily-opened collection of recorded campaigns. Members are
/// only opened (file header/footer validated, records decoded) when a
/// pass asks for them; a 20-member series costs nothing to describe.
class CampaignSet {
 public:
  /// A member opened for reading: a uniform RecordSource view over the
  /// campaign (SnapshotReader-backed for files, vector-backed for
  /// in-memory members) plus the final measurement's identity.
  class OpenMember {
   public:
    const RecordSource& source() const { return *source_; }
    /// Final-measurement metadata with the member annotation applied.
    const SnapshotMeta& final_meta() const { return final_meta_; }
    /// Backing SnapshotReader for file members (nullptr for in-memory
    /// members) — what sketch validation fingerprints against.
    const SnapshotReader* reader() const { return reader_.get(); }

   private:
    friend class CampaignSet;
    OpenMember() = default;
    std::unique_ptr<SnapshotReader> reader_;  // file members only
    std::shared_ptr<const std::vector<ScanSnapshot>> pin_;  // in-memory members
    std::unique_ptr<RecordSource> source_;
    SnapshotMeta final_meta_;
  };

  /// Append a recorded snapshot file (opened lazily; a bad path/seed
  /// surfaces as SnapshotError at open time, not here).
  void add_file(std::string path, std::uint64_t seed);

  /// Append an in-memory campaign, optionally annotated with a campaign
  /// identity (used when the measurement itself declares none).
  void add_snapshots(std::vector<ScanSnapshot> snapshots, std::string label = "",
                     std::int64_t epoch_days = 0);
  void add_snapshots(std::shared_ptr<const std::vector<ScanSnapshot>> snapshots,
                     std::string label = "", std::int64_t epoch_days = 0);

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const CampaignMember& member(std::size_t index) const { return members_[index]; }

  /// Open member `index`. Throws SnapshotError when the file is missing,
  /// truncated, seed-mismatched, or the campaign holds no measurement.
  OpenMember open(std::size_t index,
                  std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords) const;

  /// Final-measurement metadata of every member (each opened briefly —
  /// footer only, no record decode). The cheap prepass validation and
  /// reporting build on.
  std::vector<SnapshotMeta> final_metas(
      std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords) const;

  /// Chain validation over the members' final measurements
  /// (validate_campaign_chain): epochs strictly increasing across
  /// declared members, no duplicate consecutive identity.
  void validate(std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords) const;

 private:
  std::vector<CampaignMember> members_;
};

struct SeriesOptions {
  /// Worker threads for the posture passes; 0 = hardware concurrency,
  /// 1 = inline. The resulting SeriesAnalysis is identical for any value.
  int threads = 1;
  /// Chunk size when streaming in-memory members.
  std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords;
  /// Load posture sketch sidecars (src/series/sketch.hpp) for file-backed
  /// members instead of re-walking their records. A missing sidecar falls
  /// back to the posture pass; a *stale* one (snapshot fingerprint
  /// mismatch) throws SnapshotError — stale postures are never served.
  /// The resulting analysis is byte-identical either way.
  bool use_sketches = true;
};

/// One point of the fleet growth/churn curve.
struct SeriesMemberStats {
  SnapshotMeta meta;  // final measurement, annotation applied
  std::uint64_t hosts = 0;
  std::uint64_t deficient = 0;  // paper §5.2 definition
  /// Per-protocol split of hosts/deficient (the ProtocolId dimension);
  /// single-protocol members carry one "opcua" key.
  std::map<ProtocolId, std::uint64_t> hosts_by_protocol;
  std::map<ProtocolId, std::uint64_t> deficient_by_protocol;
  /// Population flow: hosts linked from the previous member vs. fresh
  /// arrivals (member 0 counts its whole population as arrivals), and
  /// hosts with no link into the next member (0 for the last member).
  std::uint64_t matched_from_previous = 0;
  std::uint64_t arrived = 0;
  std::uint64_t retired_into_next = 0;

  friend bool operator==(const SeriesMemberStats&, const SeriesMemberStats&) = default;
};

/// Host-identity timelines: one per distinct host chained across
/// consecutive members by the matcher.
struct TimelineStats {
  std::uint64_t total = 0;      // distinct host identities observed
  std::uint64_t full_span = 0;  // observed in every member
  /// Timelines still alive at the last member — their true span is
  /// right-censored by the end of observation, not by host churn.
  std::uint64_t censored = 0;
  /// length_histogram[len] = timelines observed in exactly `len`
  /// consecutive members (index 0 unused).
  std::vector<std::uint64_t> length_histogram;

  friend bool operator==(const TimelineStats&, const TimelineStats&) = default;
};

/// Campaigns-until-upgrade for hosts that start below a secure policy
/// (strongest advertised policy None or deprecated at first observation).
struct RemediationStats {
  std::uint64_t insecure_at_start = 0;
  /// steps_to_secure[k] = timelines whose first secure observation came
  /// exactly `k` campaigns after their first observation (index 0 unused;
  /// sized members, so k <= members-1).
  std::vector<std::uint64_t> steps_to_secure;
  std::uint64_t remediated = 0;        // sum of steps_to_secure
  std::uint64_t never_remediated = 0;  // timeline ended still insecure
  std::uint64_t relapsed = 0;          // reached secure, later dropped below
  /// Of never_remediated: timelines still observed at the last member —
  /// censored, not known-failed (the host may yet remediate).
  std::uint64_t censored = 0;

  friend bool operator==(const RemediationStats&, const RemediationStats&) = default;
};

/// Everything analyze_series computes. steps[k] is the full pairwise
/// CampaignDiff between members k and k+1 — on a two-member set it equals
/// diff_campaigns field for field.
struct SeriesAnalysis {
  std::vector<SeriesMemberStats> members;  // N
  std::vector<CampaignDiff> steps;         // N-1
  TimelineStats timelines;
  RemediationStats remediation;

  // Evidence totals over every accepted link of every step.
  std::uint64_t links_by_address = 0;
  std::uint64_t links_by_cert_corroborated = 0;
  std::uint64_t links_by_cert_bare = 0;
  /// Confidence-weighted mean over all links (see match_confidence).
  double mean_link_confidence() const;

  friend bool operator==(const SeriesAnalysis&, const SeriesAnalysis&) = default;
};

/// Incremental series accumulator — the engine under analyze_series and
/// the study service's resident series.
///
/// Members are fed one at a time as (final-measurement meta, posture
/// vector) pairs; each add matches against the *previous* member's
/// retained postures, tallies the step diff, and advances the per-host
/// timelines. Appending member N+1 therefore costs one posture pass
/// (done by the caller — usually a sketch load) plus one match,
/// independent of how many members came before: earlier members are
/// never re-walked. analysis() closes a *copy* of the live timelines, so
/// it can be called after every add and the builder keeps growing.
///
/// Determinism: feeding the same (meta, postures) sequence produces a
/// SeriesAnalysis identical to analyze_series over the equivalent
/// CampaignSet — the batch path is literally this builder fed from
/// collect_postures.
class SeriesBuilder {
 public:
  /// Append the next campaign. `postures` must be the record-ordered
  /// collect_postures output of the member's final measurement. Enforces
  /// validate_campaign_chain over the metas seen so far: an add that
  /// breaks the chain throws and leaves the builder unchanged.
  void add_member(SnapshotMeta final_meta, std::vector<HostPosture> postures);

  std::size_t size() const { return finals_.size(); }
  const std::vector<SnapshotMeta>& finals() const { return finals_; }

  /// The analysis over every member added so far (throws SnapshotError
  /// below two members). Closes live timelines into a copy; the builder
  /// itself is untouched and can keep accepting members.
  SeriesAnalysis analysis() const;

  /// Heap bytes retained by the builder (postures + timelines + partial
  /// analysis) — the study service's resident-size accounting.
  std::size_t resident_bytes() const;

 private:
  /// Live per-timeline state; closed into the histograms when the host
  /// fails to match into the next member (or, censored, at analysis()).
  struct Timeline {
    std::uint32_t first_member = 0;
    std::uint32_t length = 0;
    bool started_insecure = false;   // policy bucket below secure at first obs
    std::int32_t secure_after = -1;  // steps from first obs to first secure obs
    bool relapsed = false;
  };
  void close_timeline(SeriesAnalysis& out, const Timeline& state, bool censored) const;

  std::vector<SnapshotMeta> finals_;
  std::vector<HostPosture> current_;   // previous member's postures
  std::vector<Timeline> active_;       // one per host of the previous member
  SeriesAnalysis acc_;                 // closed-timeline totals + members/steps
};

/// Analyze an N-campaign series. Throws SnapshotError when the set has
/// fewer than two members, a member holds no measurement, a file member
/// fails to open, or the campaign chain is invalid.
/// Deterministic: byte-identical results for any thread count and for
/// file-backed vs. in-memory members carrying the same records and
/// identities.
SeriesAnalysis analyze_series(const CampaignSet& set, const SeriesOptions& options = {});

/// The machine-readable series report (SERIES_report.json shape):
/// members, per-step diffs, timelines, remediation, evidence grading.
std::string series_analysis_json(const SeriesAnalysis& analysis);

/// Append the series-report fields to an already-open JSON object — the
/// shared emitter under series_analysis_json and the study service's
/// series query.
void append_series_analysis_fields(JsonWriter& json, const SeriesAnalysis& analysis);

}  // namespace opcua_study
