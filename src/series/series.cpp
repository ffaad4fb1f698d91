// CampaignSet plumbing and the N-way series analysis.
//
// The analysis engine is SeriesBuilder: it holds at most two posture
// vectors (the adjacent pair being compared) plus one Timeline per live
// host. Each add is one chain check and one comparison step
// (compare_step); timelines advance sequentially over record-ordered
// posture vectors, so every derived statistic inherits the matcher's
// determinism: identical for any thread count, for streamed vs.
// in-memory members, and for sketch-fed vs. record-walked postures.
// analyze_series is the batch driver — open each member, feed the
// builder a loader for its postures (load_postures for file members, the
// posture pass for in-memory ones); the study service keeps a builder
// resident and appends to it instead.
#include "series/series.hpp"

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "series/matcher.hpp"
#include "series/sketch.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

// ------------------------------------------------------------ CampaignSet

void CampaignSet::add_file(std::string path, std::uint64_t seed) {
  CampaignMember member;
  member.path = std::move(path);
  member.seed = seed;
  members_.push_back(std::move(member));
}

void CampaignSet::add_snapshots(std::vector<ScanSnapshot> snapshots, std::string label,
                                std::int64_t epoch_days) {
  add_snapshots(std::make_shared<const std::vector<ScanSnapshot>>(std::move(snapshots)),
                std::move(label), epoch_days);
}

void CampaignSet::add_snapshots(std::shared_ptr<const std::vector<ScanSnapshot>> snapshots,
                                std::string label, std::int64_t epoch_days) {
  CampaignMember member;
  member.snapshots = std::move(snapshots);
  member.label = std::move(label);
  member.epoch_days = epoch_days;
  members_.push_back(std::move(member));
}

CampaignSet::OpenMember CampaignSet::open(std::size_t index) const {
  const CampaignMember& member = members_.at(index);
  OpenMember open;
  if (member.file_backed()) {
    open.reader_ = std::make_unique<SnapshotReader>(member.path, member.seed);
    open.source_ = std::make_unique<ReaderRecordSource>(*open.reader_);
  } else {
    open.pin_ = member.snapshots;
    open.source_ = std::make_unique<SnapshotVectorSource>(*member.snapshots,
                                                          SnapshotWriter::kDefaultChunkRecords);
  }
  if (open.source_->week_count() == 0) {
    throw SnapshotError("campaign series: member " + std::to_string(index) +
                        " holds no measurement");
  }
  open.final_meta_ = open.source_->week_meta(open.source_->week_count() - 1);
  if (!campaign_declared(open.final_meta_)) {
    open.final_meta_.campaign_label = member.label;
    open.final_meta_.campaign_epoch_days = member.epoch_days;
  }
  return open;
}

std::vector<SnapshotMeta> CampaignSet::final_metas() const {
  std::vector<SnapshotMeta> metas;
  metas.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    metas.push_back(open(i).final_meta());
  }
  return metas;
}

void CampaignSet::validate() const {
  validate_campaign_chain(final_metas());
}

// ---------------------------------------------------------- SeriesBuilder

double SeriesAnalysis::mean_link_confidence() const {
  return mean_match_confidence(links_by_address, links_by_cert_corroborated, links_by_cert_bare);
}

void SeriesBuilder::close_timeline(SeriesAnalysis& out, const Timeline& state,
                                   bool censored) const {
  if (out.timelines.length_histogram.size() <= state.length) {
    out.timelines.length_histogram.resize(state.length + 1, 0);
  }
  out.timelines.length_histogram[state.length] += 1;
  // A full-span timeline is by definition still alive at the last member,
  // so only a censored (end-of-series) close can ever satisfy this; a
  // retirement close always has length < the member count.
  if (censored && state.first_member == 0 && state.length == finals_.size()) {
    ++out.timelines.full_span;
  }
  if (censored) ++out.timelines.censored;
  if (state.started_insecure) {
    ++out.remediation.insecure_at_start;
    if (state.secure_after > 0) {
      const auto k = static_cast<std::size_t>(state.secure_after);
      if (out.remediation.steps_to_secure.size() <= k) {
        out.remediation.steps_to_secure.resize(k + 1, 0);
      }
      out.remediation.steps_to_secure[k] += 1;
      ++out.remediation.remediated;
    } else {
      ++out.remediation.never_remediated;
      if (censored) ++out.remediation.censored;
    }
    if (state.relapsed) ++out.remediation.relapsed;
  }
}

void SeriesBuilder::add_member(SnapshotMeta final_meta, const std::function<Postures()>& load) {
  std::vector<SnapshotMeta> chain = finals_;
  chain.push_back(final_meta);
  validate_campaign_chain(chain);  // throws before the postures load or any state mutates
  Postures loaded = load();
  const std::vector<HostPosture>& postures = *loaded;
  const std::size_t m = finals_.size();

  SeriesMemberStats stats;
  stats.meta = final_meta;
  stats.hosts = postures.size();
  for (const HostPosture& p : postures) {
    stats.deficient += p.deficient;
    stats.hosts_by_protocol[p.protocol]++;
    stats.deficient_by_protocol[p.protocol] += p.deficient;
  }
  MatchResult match;
  if (m == 0) {
    // Member 0: every host arrives.
    match.base_of.assign(postures.size(), MatchResult::kUnmatched);
    stats.arrived = postures.size();
  } else {
    // One step against the retained previous postures — no earlier
    // member is touched, whatever m is.
    ComparisonStep step = compare_step(finals_[m - 1], *current_, final_meta, postures);
    acc_.links_by_address += step.diff.matched_by_address;
    acc_.links_by_cert_corroborated += step.diff.cert_matches_corroborated;
    acc_.links_by_cert_bare += step.diff.cert_matches_bare;
    stats.matched_from_previous = step.diff.matched();
    stats.arrived = step.diff.arrived;
    acc_.members[m - 1].retired_into_next = step.diff.retired;
    acc_.steps.push_back(std::move(step.diff));
    match = std::move(step.match);
  }
  acc_.members.push_back(std::move(stats));

  std::vector<Timeline> next_active(postures.size());
  for (std::uint32_t bi = 0; bi < postures.size(); ++bi) {
    const std::uint32_t ai = match.base_of[bi];
    if (ai == MatchResult::kUnmatched) {
      // Fresh arrival: a new timeline starts here.
      next_active[bi] = {static_cast<std::uint32_t>(m), 1, postures[bi].policy_bucket < 2,
                         postures[bi].policy_bucket == 2 ? 0 : -1, false};
      ++acc_.timelines.total;
      continue;
    }
    Timeline state = active_[ai];
    ++state.length;
    if (postures[bi].policy_bucket == 2) {
      if (state.secure_after < 0) state.secure_after = static_cast<std::int32_t>(state.length - 1);
    } else if (state.secure_after >= 0) {
      state.relapsed = true;  // had reached secure, dropped below again
    }
    next_active[bi] = state;
  }
  // Timelines without a successor close now (their host retired).
  for (std::uint32_t ai = 0; ai < active_.size(); ++ai) {
    if (!match.base_matched[ai]) close_timeline(acc_, active_[ai], /*censored=*/false);
  }
  current_ = std::move(loaded);
  active_ = std::move(next_active);
  finals_.push_back(std::move(final_meta));
}

SeriesAnalysis SeriesBuilder::analysis() const {
  const std::size_t n = finals_.size();
  if (n < 2) {
    throw SnapshotError("campaign series needs >= 2 members (got " + std::to_string(n) + ")");
  }
  SeriesAnalysis out = acc_;
  // Retirement closes only ever reach length n-1 / secure_after n-2, so
  // sizing to the batch shape here is always a grow, never a truncation.
  if (out.timelines.length_histogram.size() < n + 1) {
    out.timelines.length_histogram.resize(n + 1, 0);
  }
  if (out.remediation.steps_to_secure.size() < n) out.remediation.steps_to_secure.resize(n, 0);
  // Every still-live timeline closes censored — cut by the end of
  // observation, not by churn. The builder itself keeps them live.
  for (const Timeline& state : active_) close_timeline(out, state, /*censored=*/true);
  return out;
}

std::size_t SeriesBuilder::resident_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += active_.capacity() * sizeof(Timeline);
  bytes += finals_.capacity() * sizeof(SnapshotMeta);
  for (const SnapshotMeta& meta : finals_) bytes += meta.campaign_label.capacity();
  bytes += acc_.members.capacity() * sizeof(SeriesMemberStats);
  bytes += acc_.steps.capacity() * sizeof(CampaignDiff);
  bytes += acc_.timelines.length_histogram.capacity() * sizeof(std::uint64_t);
  bytes += acc_.remediation.steps_to_secure.capacity() * sizeof(std::uint64_t);
  return bytes;
}

// --------------------------------------------------------- analyze_series

SeriesAnalysis analyze_series(const CampaignSet& set, const SeriesOptions& options) {
  const obs::WallTimer pass_timer(obs::Metric::series_pass_wall_us);
  if (set.size() < 2) {
    throw SnapshotError("campaign series needs >= 2 members (got " +
                        std::to_string(set.size()) + ")");
  }
  ThreadPool pool(options.threads);
  SeriesBuilder builder;
  // Each member is opened exactly once, when the walk reaches it; the
  // builder checks its identity against the chain seen so far before its
  // postures load, so an out-of-order member fails before its posture
  // work (and a truncated file fails at its open). A file member's
  // postures load as diff_files loads them: a valid sketch sidecar, or
  // the posture pass (a stale sidecar throws — it is never silently
  // skipped).
  for (std::size_t m = 0; m < set.size(); ++m) {
    const CampaignSet::OpenMember member = set.open(m);
    builder.add_member(member.final_meta(), [&] {
      std::vector<HostPosture> postures =
          options.use_sketches && member.reader() != nullptr
              ? load_postures(*member.reader(), set.member(m).path, pool, SidecarWrite::never)
                    .postures
              : collect_postures(member.source(), pool);
      return std::make_shared<const std::vector<HostPosture>>(std::move(postures));
    });
  }
  return builder.analysis();
}

// ----------------------------------------------------------------- report

void append_series_analysis_fields(JsonWriter& json, const SeriesAnalysis& analysis) {
  json.key("members").begin_array();
  for (const SeriesMemberStats& member : analysis.members) {
    json.begin_object()
        .field("label", member.meta.campaign_label)
        .field("epoch_days", static_cast<std::uint64_t>(member.meta.campaign_epoch_days))
        .field("date_days", static_cast<std::uint64_t>(member.meta.date_days))
        .field("hosts", member.hosts)
        .field("deficient", member.deficient)
        .field("matched_from_previous", member.matched_from_previous)
        .field("arrived", member.arrived)
        .field("retired_into_next", member.retired_into_next);
    json.key("protocols").begin_object();
    for (const auto& [protocol, hosts] : member.hosts_by_protocol) {
      const auto it = member.deficient_by_protocol.find(protocol);
      json.key(protocol_name(protocol))
          .begin_object()
          .field("hosts", hosts)
          .field("deficient", it == member.deficient_by_protocol.end() ? 0 : it->second)
          .end_object();
    }
    json.end_object().end_object();
  }
  json.end_array();
  json.key("steps").begin_array();
  for (const CampaignDiff& step : analysis.steps) {
    json.begin_object();
    append_campaign_diff_fields(json, step);
    json.end_object();
  }
  json.end_array();
  json.key("timelines")
      .begin_object()
      .field("total", analysis.timelines.total)
      .field("full_span", analysis.timelines.full_span)
      .field("censored", analysis.timelines.censored)
      .key("length_histogram")
      .begin_array();
  for (std::size_t len = 1; len < analysis.timelines.length_histogram.size(); ++len) {
    json.begin_object()
        .field("members", static_cast<std::uint64_t>(len))
        .field("timelines", analysis.timelines.length_histogram[len])
        .end_object();
  }
  json.end_array().end_object();
  json.key("remediation")
      .begin_object()
      .field("insecure_at_start", analysis.remediation.insecure_at_start)
      .field("remediated", analysis.remediation.remediated)
      .field("never_remediated", analysis.remediation.never_remediated)
      .field("relapsed", analysis.remediation.relapsed)
      .field("censored", analysis.remediation.censored)
      .key("steps_to_secure")
      .begin_array();
  for (std::size_t k = 1; k < analysis.remediation.steps_to_secure.size(); ++k) {
    json.begin_object()
        .field("campaigns", static_cast<std::uint64_t>(k))
        .field("timelines", analysis.remediation.steps_to_secure[k])
        .end_object();
  }
  json.end_array().end_object();
  json.key("match_evidence")
      .begin_object()
      .field("address", analysis.links_by_address)
      .field("certificate_corroborated", analysis.links_by_cert_corroborated)
      .field("certificate_bare", analysis.links_by_cert_bare)
      .key("link_confidence")
      .begin_object()
      .field("address", match_confidence(MatchEvidence::address))
      .field("certificate_corroborated", match_confidence(MatchEvidence::cert_corroborated))
      .field("certificate_bare", match_confidence(MatchEvidence::cert_bare))
      .end_object()
      .field("mean_confidence", analysis.mean_link_confidence())
      .end_object();
}

std::string series_analysis_json(const SeriesAnalysis& analysis) {
  JsonWriter json;
  json.begin_object();
  append_series_analysis_fields(json, analysis);
  json.end_object();
  return json.str();
}

}  // namespace opcua_study
