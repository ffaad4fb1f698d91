// Campaign catalog — the resident data plane of the study service.
//
// The batch pipeline re-walks snapshot files per report; the catalog
// instead keeps every registered campaign's SnapshotReader open for its
// whole lifetime (v6 files stay memory-mapped, so column reads are
// zero-copy and concurrent readers never race) and caches what the batch
// functions compute — posture vectors (load_postures), StudyAnalysis
// (analyze_reader), CampaignDiff (compare_step), SeriesAnalysis
// (SeriesBuilder) — behind a shared-nothing read path: every artifact is
// computed exactly once, by the batch path's own function, published as
// shared_ptr<const T>, and then only ever read. Queries that race on a
// cold artifact dedupe through a shared_future (one computes, the rest
// wait on the same result). The computing query runs a posture walk or a
// study's analysis on a ThreadPool of hardware width; the artifact is the
// same at any width. A computation that throws stays cached as
// that exception: repeating the failing query deterministically re-raises
// the same error. Names are resolved before the cache is consulted, so an
// unknown campaign fails without a cache entry and the same name answers
// normally once it is registered.
//
// The posture artifact carries the campaign's cohort index beside the
// posture vector: host counts per (AS, protocol, mode bucket, policy
// bucket, anonymous, deficient, supports-deprecated) cell, built once in
// the same computation. Posture queries sum cells instead of walking
// every host. A valid sketch sidecar supplies the postures (a stale one
// is a hard error); a walk cuts one for the next cold start.
//
// Series are resident SeriesBuilders, fed through one place for a
// register and an append: appending a campaign costs one posture load
// plus one comparison step, never a re-walk of earlier members. A builder
// holds its last member's cached posture vector, not a copy, so
// resident_bytes() counts each vector once. The
// SeriesAnalysis snapshot is refreshed once per register or append, so
// series queries are pure pointer reads and a query racing an append
// sees either the old or the new immutable snapshot — never a
// half-updated one.
//
// Lifetime rules: registration is append-only — campaigns and series are
// never evicted, readers live as long as the catalog, and artifact
// pointers handed out remain valid (and immutable) after the catalog is
// destroyed. Cache hits/misses and peak resident bytes are accounted in
// obs:: (svc_cache_hits / svc_cache_misses / svc_resident_bytes).
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "diff/diff.hpp"
#include "series/series.hpp"

namespace opcua_study::svc {

/// One cohort cell: how many of a campaign's final-measurement hosts
/// share every posture key a posture query filters or groups on.
struct CohortCell {
  std::uint32_t asn = 0;
  ProtocolId protocol = ProtocolId::opcua;
  std::uint8_t mode_bucket = 0;    // index into kModeBuckets
  std::uint8_t policy_bucket = 0;  // index into kPolicyBuckets
  bool anonymous = false;
  bool deficient = false;
  bool supports_deprecated = false;
  std::uint64_t hosts = 0;
};

/// A campaign's postures counted per cell. Cells are sorted by (asn,
/// protocol, mode, policy, anonymous, deficient, supports_deprecated), so
/// one AS's cells are adjacent and ASes come in ascending order.
struct CohortIndex {
  std::uint64_t population = 0;  // hosts over all cells
  std::vector<CohortCell> cells;
};

CohortIndex build_cohort_index(const std::vector<HostPosture>& postures);

class CampaignCatalog {
 public:
  CampaignCatalog() = default;
  ~CampaignCatalog();

  CampaignCatalog(const CampaignCatalog&) = delete;
  CampaignCatalog& operator=(const CampaignCatalog&) = delete;

  /// Open the snapshot file at `path` (validated eagerly — a bad path or
  /// seed throws here, not at first query) and register it under `name`.
  /// Throws SnapshotError when the name is taken or the file is empty.
  void register_campaign(const std::string& name, const std::string& path, std::uint64_t seed);

  /// Build a resident series from already-registered campaigns, in the
  /// given order (chain-validated member by member). Costs one posture
  /// load per member — the members' earlier artifacts are reused.
  void register_series(const std::string& name, const std::vector<std::string>& campaigns);

  /// Append one registered campaign to a resident series: one posture
  /// load plus one match, regardless of the series' current length.
  /// Returns the new member count.
  std::size_t append_to_series(const std::string& series, const std::string& campaign);

  std::vector<std::string> campaign_names() const;  // registration order
  std::vector<std::string> series_names() const;    // registration order
  std::vector<std::string> series_members(const std::string& series) const;
  /// Final-measurement identity of a registered campaign.
  SnapshotMeta final_meta(const std::string& campaign) const;
  const SnapshotReader& reader(const std::string& campaign) const;

  // Cached artifacts. Each is computed at most once (racing callers
  // dedupe), immutable once published, and safe to hold past the call.
  std::shared_ptr<const std::vector<HostPosture>> postures(const std::string& campaign);
  /// The cohort index of the same posture artifact (one cache lookup).
  std::shared_ptr<const CohortIndex> cohorts(const std::string& campaign);
  std::shared_ptr<const StudyAnalysis> study(const std::string& campaign);
  std::shared_ptr<const CampaignDiff> diff(const std::string& base, const std::string& followup);
  std::shared_ptr<const SeriesAnalysis> series(const std::string& series);

  /// Estimated heap/mapping bytes held resident: snapshot payloads,
  /// cached posture vectors and cohort indexes (each once, though series
  /// share them), live series builders.
  std::size_t resident_bytes() const;

 private:
  struct CampaignEntry {
    std::string path;
    std::uint64_t seed = 0;
    std::unique_ptr<SnapshotReader> reader;
  };
  struct SeriesEntry {
    std::vector<std::string> members;
    SeriesBuilder builder;
    /// Immutable analysis snapshot, refreshed at each append; null until
    /// the series holds two members.
    std::shared_ptr<const SeriesAnalysis> latest;
  };
  struct PostureArtifact {
    std::vector<HostPosture> postures;
    CohortIndex cohorts;
  };
  /// A campaign joining a series, fetched before the series is touched.
  struct SeriesInput {
    std::string campaign;
    SnapshotMeta meta;
    std::shared_ptr<const std::vector<HostPosture>> postures;
  };
  template <typename T>
  using Cache = std::map<std::string, std::shared_future<std::shared_ptr<const T>>>;

  const CampaignEntry& entry(const std::string& campaign) const;  // throws on unknown
  /// get-or-compute through `cache`: the first caller for `key` computes
  /// on its own thread with the lock released; racing callers block on
  /// the same shared_future. A throwing compute stays cached as its
  /// exception, so callers resolve the names in `key` first.
  template <typename T, typename Fn>
  std::shared_ptr<const T> cached(Cache<T>& cache, const std::string& key, unsigned artifact_cell,
                                  Fn compute);
  std::shared_ptr<const PostureArtifact> posture_artifact(const std::string& campaign);
  /// The one series feed: adds each input through the builder (which
  /// checks it against the chain), then, from two members on, refreshes
  /// `latest` once and counts one series miss.
  static void feed_series(SeriesEntry& entry, const std::vector<SeriesInput>& inputs);
  void note_resident_bytes() const;

  mutable std::mutex mutex_;  // registries + caches + series builders
  std::map<std::string, CampaignEntry> campaigns_;
  std::vector<std::string> campaign_order_;
  std::map<std::string, SeriesEntry> series_;
  std::vector<std::string> series_order_;
  Cache<PostureArtifact> posture_cache_;
  Cache<StudyAnalysis> study_cache_;
  Cache<CampaignDiff> diff_cache_;  // key: base + '\x1f' + followup
};

}  // namespace opcua_study::svc
