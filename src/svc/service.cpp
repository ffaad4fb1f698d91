// QueryService — request parsing, JSON rendering, bounded worker pool.
#include "svc/service.hpp"

#include <charconv>
#include <chrono>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"

namespace opcua_study::svc {

namespace {

const char* kind_name(QueryRequest::Kind kind) {
  return obs::kQueryKindCells[static_cast<std::size_t>(kind)];
}

QueryRequest::Kind parse_kind(const std::string& name) {
  for (std::size_t k = 0; k < std::size(obs::kQueryKindCells); ++k) {
    if (name == obs::kQueryKindCells[k]) return static_cast<QueryRequest::Kind>(k);
  }
  throw std::invalid_argument("unknown query kind: '" + name + "'");
}

/// The protocol a request names; nullopt when no backend has that name.
std::optional<ProtocolId> find_protocol(const std::string& name) {
  for (std::uint8_t id = 0; id < kProtocolCount; ++id) {
    if (protocol_name(static_cast<ProtocolId>(id)) == name) return static_cast<ProtocolId>(id);
  }
  return std::nullopt;
}

/// A numeric query value: decimal digits only (from_chars takes no sign,
/// space or prefix for an unsigned type) and at most `max`.
std::uint64_t parse_number(const std::string& key, const std::string& value, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* const end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc() || stop != end || parsed > max) {
    throw std::invalid_argument("query parameter " + key + "=" + value +
                                " is not a number in [0, " + std::to_string(max) + "]");
  }
  return parsed;
}

// --------------------------------------------------------- render: kinds --

void render_catalog(JsonWriter& json, CampaignCatalog& catalog) {
  json.key("campaigns").begin_array();
  for (const std::string& name : catalog.campaign_names()) {
    const SnapshotMeta meta = catalog.final_meta(name);
    const SnapshotReader& reader = catalog.reader(name);
    json.begin_object()
        .field("name", name)
        .field("label", meta.campaign_label)
        .field("epoch_days", static_cast<std::uint64_t>(meta.campaign_epoch_days))
        .field("date_days", static_cast<std::uint64_t>(meta.date_days))
        .field("weeks", static_cast<std::uint64_t>(reader.snapshots().size()))
        .field("hosts", meta.host_count)
        .field("records", reader.total_records())
        .field("format_version", static_cast<std::uint64_t>(reader.version()))
        .end_object();
  }
  json.end_array();
  json.key("series").begin_array();
  for (const std::string& name : catalog.series_names()) {
    const std::vector<std::string> members = catalog.series_members(name);
    json.begin_object().field("name", name).key("members").begin_array();
    for (const std::string& member : members) json.value(member);
    json.end_array().field("length", static_cast<std::uint64_t>(members.size())).end_object();
  }
  json.end_array();
}

/// `protocol` is the request's protocol filter, resolved once per query.
bool cohort_selected(const CohortCell& cell, const QueryRequest& request,
                     std::optional<ProtocolId> protocol) {
  if (request.asn && cell.asn != *request.asn) return false;
  if (request.protocol && cell.protocol != protocol) return false;
  if (request.mode_bucket && cell.mode_bucket != *request.mode_bucket) return false;
  if (request.policy_bucket && cell.policy_bucket != *request.policy_bucket) return false;
  if (request.anonymous_only && !cell.anonymous) return false;
  if (request.deficient_only && !cell.deficient) return false;
  return true;
}

struct CohortRow {
  std::uint64_t hosts = 0, deficient = 0, anonymous = 0;
  void add(const CohortCell& cell) {
    hosts += cell.hosts;
    deficient += cell.deficient ? cell.hosts : 0;
    anonymous += cell.anonymous ? cell.hosts : 0;
  }
};

void render_posture(JsonWriter& json, CampaignCatalog& catalog, const QueryRequest& request) {
  if (request.campaign.empty()) {
    throw std::invalid_argument("posture query needs campaign=<name>");
  }
  const auto index = catalog.cohorts(request.campaign);
  const SnapshotMeta meta = catalog.final_meta(request.campaign);
  // A name no backend has (a request built without parse_query_request)
  // selects no host.
  const std::optional<ProtocolId> protocol =
      request.protocol ? find_protocol(*request.protocol) : std::nullopt;

  CohortRow total;
  std::uint64_t deprecated = 0;
  std::uint64_t mode_buckets[3] = {};
  std::uint64_t policy_buckets[3] = {};
  // Protocol ids are < kProtocolCount: the sketch and column readers
  // reject any other.
  CohortRow by_protocol[kProtocolCount];
  std::vector<std::pair<std::uint32_t, CohortRow>> by_as;  // ascending ASN, as the cells
  for (const CohortCell& cell : index->cells) {
    if (!cohort_selected(cell, request, protocol)) continue;
    total.add(cell);
    deprecated += cell.supports_deprecated ? cell.hosts : 0;
    if (cell.mode_bucket < 3) mode_buckets[cell.mode_bucket] += cell.hosts;
    if (cell.policy_bucket < 3) policy_buckets[cell.policy_bucket] += cell.hosts;
    by_protocol[static_cast<std::size_t>(cell.protocol)].add(cell);
    if (by_as.empty() || by_as.back().first != cell.asn) by_as.emplace_back(cell.asn, CohortRow{});
    by_as.back().second.add(cell);
  }

  json.field("campaign", request.campaign)
      .field("label", meta.campaign_label)
      .field("population", index->population);
  json.key("filters").begin_object();
  if (request.asn) json.field("asn", static_cast<std::uint64_t>(*request.asn));
  if (request.protocol) json.field("protocol", *request.protocol);
  if (request.mode_bucket) json.field("mode_bucket", *request.mode_bucket);
  if (request.policy_bucket) json.field("policy_bucket", *request.policy_bucket);
  if (request.anonymous_only) json.field("anonymous_only", true);
  if (request.deficient_only) json.field("deficient_only", true);
  json.end_object();
  json.field("hosts", total.hosts)
      .field("deficient", total.deficient)
      .field("anonymous", total.anonymous)
      .field("supports_deprecated", deprecated);
  json.key("mode_buckets").begin_object();
  for (std::size_t b = 0; b < 3; ++b) json.field(kModeBuckets[b], mode_buckets[b]);
  json.end_object();
  json.key("policy_buckets").begin_object();
  for (std::size_t b = 0; b < 3; ++b) json.field(kPolicyBuckets[b], policy_buckets[b]);
  json.end_object();
  json.key("by_protocol").begin_object();
  for (std::uint8_t id = 0; id < kProtocolCount; ++id) {
    const CohortRow& row = by_protocol[id];
    if (row.hosts == 0) continue;  // a selected cell holds >= 1 host
    json.key(protocol_name(static_cast<ProtocolId>(id)))
        .begin_object()
        .field("hosts", row.hosts)
        .field("deficient", row.deficient)
        .field("anonymous", row.anonymous)
        .end_object();
  }
  json.end_object();
  json.field("as_total", static_cast<std::uint64_t>(by_as.size()))
      .field("as_truncated", by_as.size() > request.as_limit);
  json.key("by_as").begin_array();
  for (std::size_t r = 0; r < by_as.size() && r < request.as_limit; ++r) {
    const auto& [asn, row] = by_as[r];
    json.begin_object()
        .field("asn", static_cast<std::uint64_t>(asn))
        .field("hosts", row.hosts)
        .field("deficient", row.deficient)
        .field("anonymous", row.anonymous)
        .end_object();
  }
  json.end_array();
}

void render_study(JsonWriter& json, CampaignCatalog& catalog, const QueryRequest& request) {
  if (request.campaign.empty()) {
    throw std::invalid_argument("study query needs campaign=<name>");
  }
  const auto study = catalog.study(request.campaign);
  const SnapshotMeta meta = catalog.final_meta(request.campaign);
  json.field("campaign", request.campaign)
      .field("label", meta.campaign_label)
      .field("weeks", static_cast<std::uint64_t>(study->weeks.size()));
  json.key("modes")
      .begin_object()
      .field("servers", study->modes.servers)
      .field("none_only", study->modes.none_only)
      .field("secure_mode_capable", study->modes.secure_mode_capable)
      .field("deprecated_supported", study->modes.deprecated_supported)
      .field("deprecated_max", study->modes.deprecated_max)
      .field("strong_enforcing", study->modes.strong_enforcing)
      .field("strong_capable", study->modes.strong_capable)
      .end_object();
  json.key("certificates")
      .begin_object()
      .field("hosts_with_cert", study->certificates.hosts_with_cert)
      .field("ca_signed", study->certificates.ca_signed)
      .field("weaker_than_max", study->certificates.weaker_than_max)
      .field("distinct", study->reuse.distinct_certificates)
      .field("clusters_ge3", study->reuse.clusters_ge3)
      .field("hosts_in_ge3", study->reuse.hosts_in_ge3)
      .end_object();
  json.key("auth")
      .begin_object()
      .field("servers", study->auth.servers)
      .field("channel_capable", study->auth.channel_capable)
      .field("anonymous_offered", study->auth.anonymous_offered)
      .field("accessible", study->auth.accessible)
      .field("auth_rejected", study->auth.auth_rejected)
      .field("production", study->auth.production)
      .field("test", study->auth.test)
      .end_object();
  json.key("deficits")
      .begin_object()
      .field("servers", study->deficits.servers)
      .field("none_only", study->deficits.none_only)
      .field("deprecated_only", study->deficits.deprecated_only)
      .field("weak_certificate", study->deficits.weak_certificate)
      .field("cert_reuse", study->deficits.cert_reuse)
      .field("anonymous_access", study->deficits.anonymous_access)
      .field("deficient_total", study->deficits.deficient_total)
      .end_object();
  json.key("longitudinal")
      .begin_object()
      .field("weeks", static_cast<std::uint64_t>(study->longitudinal.weeks.size()))
      .field("deficiency_avg", study->longitudinal.deficiency_avg)
      .field("deficiency_std", study->longitudinal.deficiency_std)
      .field("deficiency_min", study->longitudinal.deficiency_min)
      .field("deficiency_max", study->longitudinal.deficiency_max)
      .field("total_distinct_certificates",
             static_cast<std::uint64_t>(study->longitudinal.total_distinct_certificates))
      .field("sha1_after_2017", static_cast<std::uint64_t>(study->longitudinal.sha1_after_2017))
      .field("renewals", static_cast<std::uint64_t>(study->longitudinal.renewals.size()))
      .field("sha1_upgrades", study->longitudinal.sha1_upgrades)
      .field("downgrades", study->longitudinal.downgrades)
      .end_object();
  json.key("scan_quality")
      .begin_object()
      .field("hosts", study->scan_quality.hosts)
      .field("complete", study->scan_quality.complete)
      .field("truncated", study->scan_quality.truncated)
      .field("degraded", study->scan_quality.degraded)
      .field("unreachable", study->scan_quality.unreachable)
      .field("faulted", study->scan_quality.faulted)
      .field("recovered", study->scan_quality.recovered)
      .field("recovery_rate", study->scan_quality.recovery_rate)
      .end_object();
}

void render_diff(JsonWriter& json, CampaignCatalog& catalog, const QueryRequest& request) {
  if (request.base.empty() || request.followup.empty()) {
    throw std::invalid_argument("diff query needs base=<name> followup=<name>");
  }
  const auto diff = catalog.diff(request.base, request.followup);
  append_campaign_diff_fields(json, *diff);
}

void render_series(JsonWriter& json, CampaignCatalog& catalog, const QueryRequest& request) {
  if (request.series.empty()) throw std::invalid_argument("series query needs series=<name>");
  const auto analysis = catalog.series(request.series);
  append_series_analysis_fields(json, *analysis);
  // Cumulative remediation curve: fraction of insecure starters secured
  // within <= k campaigns (the dashboard cut of steps_to_secure).
  json.key("remediation_curve").begin_array();
  std::uint64_t cumulative = 0;
  for (std::size_t k = 1; k < analysis->remediation.steps_to_secure.size(); ++k) {
    cumulative += analysis->remediation.steps_to_secure[k];
    const double fraction =
        analysis->remediation.insecure_at_start == 0
            ? 0.0
            : static_cast<double>(cumulative) /
                  static_cast<double>(analysis->remediation.insecure_at_start);
    json.begin_object()
        .field("campaigns", static_cast<std::uint64_t>(k))
        .field("cumulative_remediated", cumulative)
        .field("fraction", fraction)
        .end_object();
  }
  json.end_array();
}

}  // namespace

// ------------------------------------------------------------- parsing --

QueryRequest parse_query_request(const std::string& text) {
  QueryRequest request;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("query token '" + token + "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kind") {
      request.kind = parse_kind(value);
    } else if (key == "campaign") {
      request.campaign = value;
    } else if (key == "base") {
      request.base = value;
    } else if (key == "followup") {
      request.followup = value;
    } else if (key == "series") {
      request.series = value;
    } else if (key == "asn") {
      request.asn = static_cast<std::uint32_t>(
          parse_number(key, value, std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "protocol") {
      if (!find_protocol(value)) {
        throw std::invalid_argument("query parameter " + key + "=" + value +
                                    " names no known protocol");
      }
      request.protocol = value;
    } else if (key == "mode") {
      request.mode_bucket = static_cast<int>(parse_number(key, value, std::size(kModeBuckets) - 1));
    } else if (key == "policy") {
      request.policy_bucket =
          static_cast<int>(parse_number(key, value, std::size(kPolicyBuckets) - 1));
    } else if (key == "anonymous" || key == "deficient") {
      // A cohort filter takes only 1. "0" reads as the complement, which no
      // filter selects, and must not quietly count every host.
      if (value != "1") {
        throw std::invalid_argument("query parameter " + key + "=" + value +
                                    " is not 1 (leave the key out to count every host)");
      }
      (key == "anonymous" ? request.anonymous_only : request.deficient_only) = true;
    } else if (key == "as_limit") {
      request.as_limit = static_cast<std::size_t>(
          parse_number(key, value, std::numeric_limits<std::size_t>::max()));
    } else {
      throw std::invalid_argument("unknown query parameter: '" + key + "'");
    }
  }
  return request;
}

// ------------------------------------------------------------- service --

QueryService::QueryService(CampaignCatalog& catalog, QueryServiceOptions options)
    : catalog_(catalog), options_(options) {
  if (options_.workers < 0) options_.workers = 0;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Requests still queued never ran: complete them as rejected so their
  // futures resolve instead of breaking.
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    QueryResponse response;
    response.rejected = true;
    JsonWriter json;
    json.begin_object()
        .field("schema", "opcua-svc-v1")
        .field("kind", kind_name(pending.request.kind))
        .field("status", "rejected")
        .field("error", "query service shut down before execution")
        .end_object();
    response.body = json.str();
    pending.promise.set_value(std::move(response));
  }
}

QueryResponse QueryService::execute(const QueryRequest& request) {
  const bool timed = obs::enabled();
  const auto start =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  QueryResponse response;
  try {
    JsonWriter json;
    json.begin_object()
        .field("schema", "opcua-svc-v1")
        .field("kind", kind_name(request.kind))
        .field("status", "ok");
    json.key("result").begin_object();
    switch (request.kind) {
      case QueryRequest::Kind::catalog: render_catalog(json, catalog_); break;
      case QueryRequest::Kind::posture: render_posture(json, catalog_, request); break;
      case QueryRequest::Kind::study: render_study(json, catalog_, request); break;
      case QueryRequest::Kind::diff: render_diff(json, catalog_, request); break;
      case QueryRequest::Kind::series: render_series(json, catalog_, request); break;
    }
    json.end_object().end_object();
    response.ok = true;
    response.body = json.str();
  } catch (const std::exception& e) {
    // The error document is as deterministic as the success path: the
    // same bad request fails with the same bytes every time.
    JsonWriter json;
    json.begin_object()
        .field("schema", "opcua-svc-v1")
        .field("kind", kind_name(request.kind))
        .field("status", "error")
        .field("error", std::string(e.what()))
        .end_object();
    response.ok = false;
    response.body = json.str();
  }
  const unsigned cell = static_cast<unsigned>(request.kind);
  obs::add(obs::Metric::svc_queries, 1, cell);
  if (timed) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    obs::observe_us(obs::Metric::svc_query_us, static_cast<std::uint64_t>(us), cell);
  }
  if (obs::trace_enabled()) {
    obs::trace(obs::TraceEvent::query_executed, 0, 0, 0, static_cast<std::uint64_t>(cell),
               response.body.size());
  }
  return response;
}

std::future<QueryResponse> QueryService::submit(QueryRequest request) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_ && queue_.size() < options_.max_queue) {
      queue_.push_back(Pending{std::move(request), std::move(promise)});
      accepted = true;
    }
  }
  if (accepted) {
    cv_.notify_one();
    return future;
  }
  // Admission control: shed at the door, deterministically and without
  // blocking the caller.
  obs::add(obs::Metric::svc_queries_rejected, 1);
  QueryResponse response;
  response.rejected = true;
  JsonWriter json;
  json.begin_object()
      .field("schema", "opcua-svc-v1")
      .field("status", "rejected")
      .field("error",
             "query queue is full (max " + std::to_string(options_.max_queue) + ")")
      .end_object();
  response.body = json.str();
  promise.set_value(std::move(response));
  return future;
}

bool QueryService::run_one() {
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    pending = std::move(queue_.front());
    queue_.pop_front();
  }
  pending.promise.set_value(execute(pending.request));
  return true;
}

std::size_t QueryService::drain() {
  std::size_t ran = 0;
  while (run_one()) ++ran;
  return ran;
}

void QueryService::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // leftovers complete rejected in the destructor
    }
    run_one();
  }
}

}  // namespace opcua_study::svc
