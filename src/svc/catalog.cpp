// CampaignCatalog — resident readers + once-computed artifact caches.
#include "svc/catalog.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "series/matcher.hpp"
#include "series/sketch.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study::svc {

namespace {

// Artifact cells of svc_cache_hits / svc_cache_misses (kArtifactCells).
enum ArtifactCell : unsigned {
  kCellSketch = 0,
  kCellPostures = 1,
  kCellStudy = 2,
  kCellDiff = 3,
  kCellSeries = 4,
};

std::size_t posture_vector_bytes(const std::vector<HostPosture>& postures) {
  std::size_t bytes = postures.capacity() * sizeof(HostPosture);
  for (const HostPosture& p : postures) bytes += p.fps.capacity() * sizeof(std::uint64_t);
  return bytes;
}

/// A posture's cell key, packed so that integer order is the cells' order.
std::uint64_t cohort_key(const HostPosture& p) {
  return std::uint64_t{p.asn} << 32 | std::uint64_t{static_cast<std::uint8_t>(p.protocol)} << 24 |
         std::uint64_t{p.mode_bucket} << 16 | std::uint64_t{p.policy_bucket} << 8 |
         std::uint64_t{p.anonymous} << 2 | std::uint64_t{p.deficient} << 1 |
         std::uint64_t{p.supports_deprecated};
}

CohortCell cohort_cell(std::uint64_t key, std::uint64_t hosts) {
  CohortCell cell;
  cell.asn = static_cast<std::uint32_t>(key >> 32);
  cell.protocol = static_cast<ProtocolId>(key >> 24 & 0xff);
  cell.mode_bucket = static_cast<std::uint8_t>(key >> 16 & 0xff);
  cell.policy_bucket = static_cast<std::uint8_t>(key >> 8 & 0xff);
  cell.anonymous = (key >> 2 & 1) != 0;
  cell.deficient = (key >> 1 & 1) != 0;
  cell.supports_deprecated = (key & 1) != 0;
  cell.hosts = hosts;
  return cell;
}

}  // namespace

CohortIndex build_cohort_index(const std::vector<HostPosture>& postures) {
  std::vector<std::uint64_t> keys;
  keys.reserve(postures.size());
  for (const HostPosture& p : postures) keys.push_back(cohort_key(p));
  std::sort(keys.begin(), keys.end());
  CohortIndex index;
  index.population = postures.size();
  for (std::size_t i = 0, run = 0; i < keys.size(); i += run) {
    run = 1;
    while (i + run < keys.size() && keys[i + run] == keys[i]) ++run;
    index.cells.push_back(cohort_cell(keys[i], run));
  }
  index.cells.shrink_to_fit();
  return index;
}

CampaignCatalog::~CampaignCatalog() = default;

void CampaignCatalog::register_campaign(const std::string& name, const std::string& path,
                                        std::uint64_t seed) {
  // Open (and fully validate) outside the lock: a slow or bad file never
  // stalls concurrent queries against already-registered campaigns.
  auto reader = std::make_unique<SnapshotReader>(path, seed);
  if (reader->snapshots().empty()) {
    throw SnapshotError("catalog: snapshot '" + path + "' holds no measurement");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (campaigns_.count(name) != 0) {
      throw SnapshotError("catalog: campaign name '" + name + "' is already registered");
    }
    CampaignEntry entry;
    entry.path = path;
    entry.seed = seed;
    entry.reader = std::move(reader);
    campaigns_.emplace(name, std::move(entry));
    campaign_order_.push_back(name);
  }
  note_resident_bytes();
}

void CampaignCatalog::register_series(const std::string& name,
                                      const std::vector<std::string>& campaigns) {
  if (campaigns.empty()) {
    throw SnapshotError("catalog: series '" + name + "' needs >= 1 member campaign");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (series_.count(name) != 0) {
      throw SnapshotError("catalog: series name '" + name + "' is already registered");
    }
  }
  // Feed a local entry first — a chain violation or missing campaign
  // leaves no half-registered series behind. Posture loads go through the
  // artifact cache, so members shared across series are loaded once.
  std::vector<SeriesInput> inputs;
  for (const std::string& campaign : campaigns) {
    inputs.push_back({campaign, final_meta(campaign), postures(campaign)});
  }
  SeriesEntry entry;
  feed_series(entry, inputs);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (series_.count(name) != 0) {
      throw SnapshotError("catalog: series name '" + name + "' is already registered");
    }
    series_.emplace(name, std::move(entry));
    series_order_.push_back(name);
  }
  note_resident_bytes();
}

std::size_t CampaignCatalog::append_to_series(const std::string& series,
                                              const std::string& campaign) {
  // One posture load (cached/sketched) + one builder step. No lock is
  // held while the postures materialize, so queries stay live.
  const SeriesInput input{campaign, final_meta(campaign), postures(campaign)};
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(series);
    if (it == series_.end()) {
      throw SnapshotError("catalog: unknown series '" + series + "'");
    }
    feed_series(it->second, {input});
    count = it->second.builder.size();
  }
  note_resident_bytes();
  return count;
}

void CampaignCatalog::feed_series(SeriesEntry& entry, const std::vector<SeriesInput>& inputs) {
  for (const SeriesInput& input : inputs) {
    entry.builder.add_member(input.meta, [&] { return input.postures; });
    entry.members.push_back(input.campaign);
  }
  if (entry.builder.size() >= 2) {
    entry.latest = std::make_shared<const SeriesAnalysis>(entry.builder.analysis());
    obs::add(obs::Metric::svc_cache_misses, 1, kCellSeries);
  }
}

std::vector<std::string> CampaignCatalog::campaign_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return campaign_order_;
}

std::vector<std::string> CampaignCatalog::series_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_order_;
}

std::vector<std::string> CampaignCatalog::series_members(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) throw SnapshotError("catalog: unknown series '" + series + "'");
  return it->second.members;
}

const CampaignCatalog::CampaignEntry& CampaignCatalog::entry(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = campaigns_.find(campaign);
  if (it == campaigns_.end()) {
    throw SnapshotError("catalog: unknown campaign '" + campaign + "'");
  }
  // Map nodes are stable and entries are never erased, so the reference
  // outlives the lock.
  return it->second;
}

SnapshotMeta CampaignCatalog::final_meta(const std::string& campaign) const {
  return entry(campaign).reader->snapshots().back();
}

const SnapshotReader& CampaignCatalog::reader(const std::string& campaign) const {
  return *entry(campaign).reader;
}

template <typename T, typename Fn>
std::shared_ptr<const T> CampaignCatalog::cached(Cache<T>& cache, const std::string& key,
                                                 unsigned artifact_cell, Fn compute) {
  std::shared_future<std::shared_ptr<const T>> future;
  std::packaged_task<std::shared_ptr<const T>()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache.find(key);
    if (it != cache.end()) {
      future = it->second;
    } else {
      task = std::packaged_task<std::shared_ptr<const T>()>(std::move(compute));
      future = task.get_future().share();
      cache.emplace(key, future);
    }
  }
  if (task.valid()) {
    obs::add(obs::Metric::svc_cache_misses, 1, artifact_cell);
    task();  // on this thread, lock released — racing callers wait below
    note_resident_bytes();
  } else {
    obs::add(obs::Metric::svc_cache_hits, 1, artifact_cell);
  }
  return future.get();  // rethrows a cached computation failure verbatim
}

std::shared_ptr<const CampaignCatalog::PostureArtifact> CampaignCatalog::posture_artifact(
    const std::string& campaign) {
  const CampaignEntry& e = entry(campaign);  // unknown names throw before the cache
  return cached(posture_cache_, campaign, kCellPostures,
                [&e]() -> std::shared_ptr<const PostureArtifact> {
    // A valid sketch sidecar stands in for the walk (a stale one throws —
    // see read_posture_sketch); a walk cuts one for the next cold start.
    ThreadPool pool(0);  // hardware width; the postures are the same at any width
    LoadedPostures loaded = load_postures(*e.reader, e.path, pool, SidecarWrite::after_walk);
    obs::add(loaded.from_sidecar ? obs::Metric::svc_cache_hits : obs::Metric::svc_cache_misses,
             1, kCellSketch);
    PostureArtifact artifact;
    artifact.postures = std::move(loaded.postures);
    artifact.cohorts = build_cohort_index(artifact.postures);
    return std::make_shared<const PostureArtifact>(std::move(artifact));
  });
}

std::shared_ptr<const std::vector<HostPosture>> CampaignCatalog::postures(
    const std::string& campaign) {
  const std::shared_ptr<const PostureArtifact> artifact = posture_artifact(campaign);
  return {artifact, &artifact->postures};
}

std::shared_ptr<const CohortIndex> CampaignCatalog::cohorts(const std::string& campaign) {
  const std::shared_ptr<const PostureArtifact> artifact = posture_artifact(campaign);
  return {artifact, &artifact->cohorts};
}

std::shared_ptr<const StudyAnalysis> CampaignCatalog::study(const std::string& campaign) {
  const CampaignEntry& e = entry(campaign);
  return cached(study_cache_, campaign, kCellStudy,
                [&e]() -> std::shared_ptr<const StudyAnalysis> {
    AnalysisOptions options;
    options.threads = 0;  // hardware width; the analysis is the same at any width
    return std::make_shared<const StudyAnalysis>(analyze_reader(*e.reader, options));
  });
}

std::shared_ptr<const CampaignDiff> CampaignCatalog::diff(const std::string& base,
                                                          const std::string& followup) {
  // Unknown names throw here, before the cache sees the key.
  entry(base);
  entry(followup);
  const std::string key = base + '\x1f' + followup;
  return cached(diff_cache_, key, kCellDiff,
                [this, base, followup]() -> std::shared_ptr<const CampaignDiff> {
    const SnapshotMeta base_week = final_meta(base);
    const SnapshotMeta followup_week = final_meta(followup);
    validate_campaign_chain({base_week, followup_week});
    // Cached postures + the one comparison step diff_files runs over the
    // same two files — so the bytes are the batch path's.
    const auto b = postures(base);
    const auto f = postures(followup);
    return std::make_shared<const CampaignDiff>(
        compare_step(base_week, *b, followup_week, *f).diff);
  });
}

std::shared_ptr<const SeriesAnalysis> CampaignCatalog::series(const std::string& series) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) throw SnapshotError("catalog: unknown series '" + series + "'");
  if (!it->second.latest) {
    throw SnapshotError("catalog: series '" + series + "' holds " +
                        std::to_string(it->second.builder.size()) +
                        " member(s); an analysis needs >= 2");
  }
  obs::add(obs::Metric::svc_cache_hits, 1, kCellSeries);
  return it->second.latest;
}

std::size_t CampaignCatalog::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [name, e] : campaigns_) {
    (void)name;
    // The mapped snapshot payload, chunk index, and dictionary — the bytes
    // the resident reader pins.
    for (const SnapshotChunkInfo& chunk : e.reader->chunks()) bytes += chunk.payload_bytes;
    bytes += e.reader->chunks().size() * sizeof(SnapshotChunkInfo);
    bytes += e.reader->cert_count() * 64;  // dict entries + index estimate
  }
  for (const auto& [key, future] : posture_cache_) {
    (void)key;
    if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
    try {
      const PostureArtifact& artifact = *future.get();
      bytes += posture_vector_bytes(artifact.postures) +
               artifact.cohorts.cells.capacity() * sizeof(CohortCell);
    } catch (const std::exception&) {
      // cached failures pin no postures
    }
  }
  for (const auto& [name, se] : series_) {
    (void)name;
    bytes += se.builder.resident_bytes();
    if (se.latest) bytes += sizeof(SeriesAnalysis);
  }
  return bytes;
}

void CampaignCatalog::note_resident_bytes() const {
  if (!obs::enabled()) return;
  obs::gauge_peak(obs::Metric::svc_resident_bytes, resident_bytes());
}

}  // namespace opcua_study::svc
