// QueryService — the study service's concurrent JSON query API.
//
// A QueryRequest names one of five query kinds over a CampaignCatalog
// and is rendered to a JSON document (schema "opcua-svc-v1", emitted
// through report/json.hpp):
//   catalog — registered campaigns and series, with identities;
//   posture — cohort-filtered population cuts of one campaign's final
//             measurement (per-AS, per-protocol, security-mode/policy
//             buckets, anonymous/deficient subsets), summed over the
//             catalog's cohort index;
//   study   — the paper's figure statistics (analyze_reader summary);
//   diff    — the pairwise CampaignDiff (exactly the campaign_diff_json
//             fields);
//   series  — the SeriesAnalysis (exactly the series_analysis_json
//             fields — remediation/relapse curves, censored timelines)
//             plus a derived cumulative remediation curve.
//
// Determinism contract: every response is a pure function of (catalog
// contents, request). Rendering reads only immutable cached artifacts,
// no timestamps and no iteration over unordered containers, so the same
// request returns byte-identical JSON whether executed inline, through
// one worker, or raced across eight — the concurrency tests pin this.
// Failures are part of the contract: a query that cannot be answered
// (unknown name, stale sketch, chain violation) renders a deterministic
// {"status":"error"} document rather than throwing across the pool.
//
// Concurrency model: execute() is synchronous and thread-safe (the
// catalog serializes artifact computation; rendering is shared-nothing).
// submit() feeds a bounded queue drained by a fixed worker pool; when
// the queue is full the request is *rejected immediately* with a
// {"status":"rejected"} response (admission control — load sheds at the
// door instead of queueing unboundedly, svc_queries_rejected counts it).
// With workers == 0 nothing drains the queue until drain() runs it
// inline — the deterministic mode the admission-control tests use.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/catalog.hpp"

namespace opcua_study::svc {

struct QueryRequest {
  /// Order matches obs::kQueryKindCells.
  enum class Kind : std::uint8_t { catalog = 0, posture, study, diff, series };
  Kind kind = Kind::catalog;

  std::string campaign;  // posture / study
  std::string base;      // diff
  std::string followup;  // diff
  std::string series;    // series

  // Cohort filters (posture queries; ignored elsewhere).
  std::optional<std::uint32_t> asn;
  std::optional<std::string> protocol;  // protocol_name(), e.g. "opcua"
  std::optional<int> mode_bucket;       // index into kModeBuckets
  std::optional<int> policy_bucket;     // index into kPolicyBuckets
  bool anonymous_only = false;
  bool deficient_only = false;
  /// Cap on per-AS rows in the posture response (ascending ASN; the
  /// response flags truncation).
  std::size_t as_limit = 32;

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// Parse "key=value ..." text into a request, e.g.
///   "kind=posture campaign=imc2020 asn=64503 deficient=1 as_limit=8"
/// Keys: kind, campaign, base, followup, series, asn, protocol, mode,
/// policy, anonymous, deficient, as_limit. A numeric value is decimal
/// digits only and must fit its field: asn <= 4294967295, mode and policy
/// <= 2 (bucket indices), as_limit any std::size_t. anonymous and
/// deficient take only 1, which selects that cohort; without the key every
/// host counts. protocol is a protocol_name() ("opcua", "mqtt-tls"),
/// matched exactly. Throws std::invalid_argument on unknown keys/kinds,
/// on any other number, flag value or protocol, naming the key and the
/// value.
QueryRequest parse_query_request(const std::string& text);

struct QueryResponse {
  bool ok = false;        // status "ok" (body is still well-formed JSON otherwise)
  bool rejected = false;  // refused by admission control, never executed
  std::string body;       // complete JSON document
};

struct QueryServiceOptions {
  /// Worker threads draining the submit() queue. 0 = no workers; queued
  /// requests run only through drain().
  int workers = 1;
  /// Admission control: submit() beyond this many waiting requests is
  /// rejected immediately.
  std::size_t max_queue = 64;
};

class QueryService {
 public:
  QueryService(CampaignCatalog& catalog, QueryServiceOptions options = {});
  ~QueryService();  // drains nothing: queued-but-unrun requests complete rejected

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Execute synchronously on the calling thread. Thread-safe; the
  /// response is byte-deterministic for (catalog contents, request).
  QueryResponse execute(const QueryRequest& request);

  /// Enqueue for the worker pool. The future resolves with the executed
  /// response, or immediately with a rejected response when the queue is
  /// at max_queue.
  std::future<QueryResponse> submit(QueryRequest request);

  /// Run queued requests inline on the calling thread until the queue is
  /// empty; returns how many ran. The workers == 0 deterministic mode.
  std::size_t drain();

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
  };
  void worker_loop();
  bool run_one();  // pop + execute + fulfil; false when queue empty

  CampaignCatalog& catalog_;
  QueryServiceOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace opcua_study::svc
