// service_mixed: the always-on study service in steady state, with the
// writes it sees in production. Setup grows a 5-member, 50k-host history
// with extend_series (512-bit mint keys, sketch sidecars), registers
// m0-m2 and a series in a CampaignCatalog and warms their artifacts. The
// timed region is a fixed, seeded query list from 2 closed-loop client
// threads calling QueryService::submit().get() on 2 workers; m3 and m4 are
// registered and appended to the series at one and two thirds of the list
// while reads continue.
//
// Closed loop because the service's callers are in-process threads that
// each wait on their future; an open-loop generator running late would
// swamp the tail instead. 2 clients x 2 workers keep at most four threads
// busy on a 4-vCPU machine. Cached reads are dominated by the posture cut;
// each append runs its match under the catalog mutex and leaves cold study
// and diff artifacts behind, which is what the tail sees.
#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "series/sketch.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "study/followup.hpp"
#include "svc/catalog.hpp"
#include "util/date.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace bench {

using namespace opcua_study;

namespace {

constexpr std::size_t kMemberHosts = 50000;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Queries per second of --seconds. A 4-vCPU machine sustains ~1.0-1.3k
/// q/s, so the list runs somewhat longer than --seconds: long enough that
/// the one-off stalls (two appends, two cold study artifacts) weigh little
/// in the rate, and p99 has 165 samples beyond it at --seconds 10.
constexpr double kQueriesPerSecond = 1650;


FollowupConfig followup_config(const std::string& key_path) {
  FollowupConfig config;
  config.campaign_label = "bench-svc-followup";
  config.mint_key_bits = 512;
  config.key_cache_path = key_path;
  return config;
}

svc::QueryRequest series_request() {
  svc::QueryRequest q;
  q.kind = svc::QueryRequest::Kind::series;
  q.series = kServiceSeries;
  return q;
}

svc::QueryRequest catalog_request() { return {}; }

/// Everything the timed region needs, built by one set-up.
struct Service {
  std::vector<std::string> paths;
  std::vector<std::uint64_t> seeds;
  std::vector<PlannedOp> ops;
  std::unique_ptr<svc::CampaignCatalog> catalog;
  /// Declared after the catalog so its workers stop before the catalog
  /// they read is destroyed.
  std::unique_ptr<svc::QueryService> service;
  /// Inline series and catalog responses at each append epoch (0 here,
  /// 1 and 2 filled by the appends).
  std::vector<std::string> expected_series, expected_catalog;
};

std::unique_ptr<Service> set_up(const RunOptions& options, const std::string& dir,
                                std::size_t query_count) {
  auto s = std::make_unique<Service>();
  const std::string key_path = corpus_path(options);
  for (int m = 0; m < kServiceMembers; ++m) {
    s->paths.push_back(dir + "/" + member_name(m) + ".bin");
    s->seeds.push_back(options.seed + static_cast<std::uint64_t>(m));
  }
  const std::vector<HostScanRecord> base =
      make_base_hosts(options.seed, kMemberHosts, make_cert_fleet(key_path));
  {
    const std::int64_t day = days_from_civil({2020, 9, 11});
    SnapshotWriter writer(s->paths[0], s->seeds[0]);
    writer.set_campaign("bench-svc-2020", day);
    writer.begin_snapshot(0, day);
    for (const HostScanRecord& host : base) writer.add_host(host);
    writer.end_snapshot(base.size() * 2, base.size() + base.size() / 2);
    writer.finish();
  }
  ThreadPool inline_pool(1);
  ensure_posture_sketch(s->paths[0], s->seeds[0], inline_pool);
  CampaignSet set;
  set.add_file(s->paths[0], s->seeds[0]);
  for (int m = 1; m < kServiceMembers; ++m) {
    extend_series(set, followup_config(key_path), s->paths[static_cast<std::size_t>(m)],
                  s->seeds[static_cast<std::size_t>(m)]);
  }

  s->catalog = std::make_unique<svc::CampaignCatalog>();
  std::vector<std::string> initial;
  for (int m = 0; m < kServiceInitialMembers; ++m) {
    initial.push_back(member_name(m));
    s->catalog->register_campaign(initial.back(), s->paths[static_cast<std::size_t>(m)],
                                  s->seeds[static_cast<std::size_t>(m)]);
  }
  s->catalog->register_series(kServiceSeries, initial);
  for (int m = 0; m < kServiceInitialMembers; ++m) {
    s->catalog->study(member_name(m));
    if (m > 0) s->catalog->diff(member_name(m - 1), member_name(m));
  }
  s->catalog->series(kServiceSeries);

  svc::QueryServiceOptions service_options;
  service_options.workers = kWorkers;
  s->service = std::make_unique<svc::QueryService>(*s->catalog, service_options);
  s->expected_series.push_back(s->service->execute(series_request()).body);
  s->expected_catalog.push_back(s->service->execute(catalog_request()).body);
  s->ops = make_query_list(options.seed, query_count);
  return s;
}

struct Sample {
  svc::QueryRequest::Kind kind = svc::QueryRequest::Kind::catalog;
  double latency_us = 0;
  std::int64_t submit_ns = 0;  // relative to the start of the list
  std::int64_t done_ns = 0;
  bool ok = false;
  bool rejected = false;
  int epoch_at_submit = 0;
  int epoch_at_done = 0;
  std::string body;  // sampled responses only
};

struct Append {
  int member = 0;
  double ms = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
};

struct ListRun {
  std::vector<Sample> samples;  // indexed like ops; appends leave a default entry
  std::vector<Append> appends;
  double wall_s = 0;
};

/// The timed region: the query list through `kClients` closed-loop clients.
ListRun run_list(Service& s, SpanRecorder& recorder, int root) {
  ListRun run;
  run.samples.resize(s.ops.size());
  std::mutex mu;  // guards epoch, run.appends, the expected_* vectors
  std::condition_variable epoch_cv;
  int epoch = 0;
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  auto since_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  };

  auto client = [&] {
    for (std::size_t i = next.fetch_add(1); i < s.ops.size(); i = next.fetch_add(1)) {
      const PlannedOp& op = s.ops[i];
      {
        std::unique_lock<std::mutex> lock(mu);
        epoch_cv.wait(lock, [&] { return epoch >= op.min_epoch; });
      }
      if (op.type == PlannedOp::Type::append) {
        Append a;
        a.member = kServiceInitialMembers + op.min_epoch;
        const std::string name = member_name(a.member);
        a.start_ns = since_ns();
        try {
          const SpanScope span(recorder, "svc.append", root);
          s.catalog->register_campaign(name, s.paths[static_cast<std::size_t>(a.member)],
                                       s.seeds[static_cast<std::size_t>(a.member)]);
          s.catalog->append_to_series(kServiceSeries, name);
          a.ok = true;
        } catch (const std::exception& e) {
          std::cerr << "append of " << name << " failed: " << e.what() << '\n';
        }
        a.end_ns = since_ns();
        a.ms = static_cast<double>(a.end_ns - a.start_ns) * 1e-6;
        std::string series_body = s.service->execute(series_request()).body;
        std::string catalog_body = s.service->execute(catalog_request()).body;
        {
          const std::lock_guard<std::mutex> lock(mu);
          run.appends.push_back(a);
          s.expected_series.push_back(std::move(series_body));
          s.expected_catalog.push_back(std::move(catalog_body));
          ++epoch;
        }
        epoch_cv.notify_all();
        continue;
      }
      Sample& sample = run.samples[i];
      sample.kind = op.request.kind;
      {
        const std::lock_guard<std::mutex> lock(mu);
        sample.epoch_at_submit = epoch;
      }
      const SpanScope span(recorder, "svc.query", root);
      sample.submit_ns = since_ns();
      svc::QueryResponse response = s.service->submit(op.request).get();
      sample.done_ns = since_ns();
      sample.latency_us = static_cast<double>(sample.done_ns - sample.submit_ns) * 1e-3;
      {
        const std::lock_guard<std::mutex> lock(mu);
        sample.epoch_at_done = epoch;
      }
      sample.ok = response.ok;
      sample.rejected = response.rejected;
      if (op.sampled) sample.body = std::move(response.body);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  run.wall_s = seconds_since(start);
  return run;
}

struct Outcome {
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
};

/// Output checks (after the timed region): no rejected or error
/// responses, appends succeeded, and the seeded sample of pooled
/// responses equals inline execute().
Outcome check_list(RunResult& result, Service& s, const ListRun& run) {
  Outcome out;
  std::uint64_t rejected = 0, errors = 0, compared = 0, mismatched = 0;
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const PlannedOp& op = s.ops[i];
    if (op.type != PlannedOp::Type::query) continue;
    const Sample& sample = run.samples[i];
    ++out.queries;
    out.latency_us.push_back(sample.latency_us);
    if (sample.rejected) {
      ++rejected;
    } else if (!sample.ok) {
      ++errors;
    }
    if (!op.sampled) continue;
    ++compared;
    const auto kind = op.request.kind;
    if (kind == svc::QueryRequest::Kind::series || kind == svc::QueryRequest::Kind::catalog) {
      // Series and catalog bodies move with the appends: the response must
      // be the inline one of an epoch the query overlapped.
      const auto& expected =
          kind == svc::QueryRequest::Kind::series ? s.expected_series : s.expected_catalog;
      bool match = false;
      for (int e = sample.epoch_at_submit; e <= sample.epoch_at_done; ++e) {
        match = match || sample.body == expected[static_cast<std::size_t>(e)];
      }
      mismatched += match ? 0 : 1;
    } else {
      mismatched += sample.body == s.service->execute(op.request).body ? 0 : 1;
    }
  }
  std::uint64_t failed_appends = 0;
  for (const Append& a : run.appends) failed_appends += a.ok ? 0 : 1;
  result.check(rejected == 0, std::to_string(rejected) + " rejected responses");
  result.check(errors == 0, std::to_string(errors) + " error responses");
  result.check(failed_appends == 0, std::to_string(failed_appends) + " failed appends");
  result.check(run.appends.size() == 2, "expected two appends");
  result.check(compared > 0 && mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " sampled pooled responses differ from inline execute()");
  out.failed = rejected + errors + failed_appends;
  result.attempted += out.queries + run.appends.size();
  result.failed += out.failed;
  return out;
}

std::size_t query_count(const RunOptions& options) {
  return static_cast<std::size_t>(std::max(1.0, options.seconds) * kQueriesPerSecond);
}

}  // namespace

void build_service_mixed_corpus(const RunOptions& options) {
  build_synthetic_corpus(corpus_path(options), followup_config(corpus_path(options)),
                         kServiceMembers - 1);
}

RunResult run_service_mixed(const RunOptions& options) {
  RunResult result;
  const std::string key_path = corpus_path(options);
  const std::uint64_t corpus_digest = file_digest(key_path);
  const std::size_t count = query_count(options);
  SpanRecorder off(false, 0);

  if (!options.trace) {
    std::vector<double> setup_seconds;
    std::unique_ptr<Service> s;
    repeat_setup(setup_seconds, [&] {
      s.reset();
      s = set_up(options, fresh_dir(options, "setup"), count);
    });
    const ListRun run = run_list(*s, off, -1);
    const Outcome out = check_list(result, *s, run);
    result.check(file_digest(key_path) == corpus_digest,
                 "timed run generated RSA keys (the key corpus changed)");
    const double p50 = percentile(out.latency_us, 50), p99 = percentile(out.latency_us, 99);
    std::cout << "service_mixed: svc_qps " << out.queries / run.wall_s << " queries/s; svc_p50_us "
              << p50 << " us; svc_p99_us " << p99 << " us over " << out.latency_us.size()
              << " samples (" << samples_beyond(out.latency_us, 99) << " beyond p99)\n";
    result.set("throughput_per_s", static_cast<double>(out.queries) / run.wall_s, "1/s");
    result.set("op_p50_ms", p50 * 1e-3, "ms");
    report_setup(result, setup_seconds);
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: one untraced pass (overhead baseline), then a fresh
  // set-up and the same list with spans and obs counters on.
  double plain_s = 0;
  {
    const auto s = set_up(options, fresh_dir(options, "plain"), count);
    const ListRun run = run_list(*s, off, -1);
    check_list(result, *s, run);
    plain_s = run.wall_s;
  }
  const auto s = set_up(options, fresh_dir(options, "traced"), count);
  SpanRecorder recorder(true, opcua_study::hash64("service_mixed:" + std::to_string(options.seed)) ^
                                  static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()));
  obs::reset();
  obs::set_enabled(true);
  ListRun run;
  {
    const SpanScope root(recorder, "run", -1);
    run = run_list(*s, recorder, root.id());
  }
  obs::set_enabled(false);
  const obs::MetricsSample sample = obs::collect();
  check_list(result, *s, run);
  result.check(file_digest(key_path) == corpus_digest,
               "traced run generated RSA keys (the key corpus changed)");

  std::vector<double> all_us;
  std::map<svc::QueryRequest::Kind, std::vector<double>> by_kind;
  double stall_ms = 0;
  std::map<std::string, std::pair<std::int64_t, double>> first_study;  // campaign -> (submit, ms)
  for (std::size_t i = 0; i < s->ops.size(); ++i) {
    const PlannedOp& op = s->ops[i];
    if (op.type != PlannedOp::Type::query) continue;
    const Sample& q = run.samples[i];
    all_us.push_back(q.latency_us);
    by_kind[q.kind].push_back(q.latency_us);
    for (const Append& a : run.appends) {
      if (q.submit_ns < a.end_ns && q.done_ns > a.start_ns) {
        stall_ms = std::max(stall_ms, q.latency_us * 1e-3);
      }
    }
    if (q.kind == svc::QueryRequest::Kind::study && op.min_epoch > 0) {
      auto [it, fresh] = first_study.try_emplace(op.request.campaign, q.submit_ns, q.latency_us * 1e-3);
      if (!fresh && q.submit_ns < it->second.first) it->second = {q.submit_ns, q.latency_us * 1e-3};
    }
  }
  result.set("svc.p99_us", percentile(all_us, 99), "us");
  const char* kinds[] = {"catalog", "posture", "study", "diff", "series"};
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const auto& v = by_kind[static_cast<svc::QueryRequest::Kind>(k)];
    result.set(std::string("svc.") + kinds[k] + "_p50_us", v.empty() ? 0 : percentile(v, 50), "us");
  }
  const obs::MetricValue& hits = sample[obs::Metric::svc_cache_hits];
  const obs::MetricValue& misses = sample[obs::Metric::svc_cache_misses];
  for (std::size_t a = 0; a < std::size(obs::kArtifactCells); ++a) {
    result.set(std::string("svc.cache_hits.") + obs::kArtifactCells[a],
               static_cast<double>(hits.cells[a]), "count");
    result.set(std::string("svc.cache_misses.") + obs::kArtifactCells[a],
               static_cast<double>(misses.cells[a]), "count");
  }
  double append_ms = 0;
  for (const Append& a : run.appends) append_ms += a.ms / static_cast<double>(run.appends.size());
  double cold_ms = 0;
  for (const auto& [campaign, first] : first_study) {
    cold_ms += first.second / static_cast<double>(first_study.size());
  }
  const std::vector<Span> spans = recorder.spans();
  recorder.write_jsonl(options.trace_dir + "/service_mixed-" + std::to_string(options.seed) +
                       ".jsonl");
  result.set("svc.append_ms", append_ms, "ms");
  result.set("svc.read_stall_ms", stall_ms, "ms");
  result.set("svc.cold_study_ms", cold_ms, "ms");
  result.set("svc.rejected", static_cast<double>(sample[obs::Metric::svc_queries_rejected].total()),
             "count");
  result.set("svc.resident_mb",
             static_cast<double>(sample[obs::Metric::svc_resident_bytes].total()) / (1024.0 * 1024.0),
             "MB");
  result.set("scanner.snapshot_chunks_read",
             static_cast<double>(sample[obs::Metric::snapshot_chunks_read].total()), "count");
  result.set("scanner.snapshot_bytes_read",
             static_cast<double>(sample[obs::Metric::snapshot_bytes_read].total()), "B");
  result.set("crypto.keys_generated",
             static_cast<double>(sample[obs::Metric::keys_generated].total()), "count");
  result.set("crypto.key_cache_hits",
             static_cast<double>(sample[obs::Metric::key_cache_hits].total()), "count");
  result.set("util.pool_jobs", static_cast<double>(sample[obs::Metric::pool_jobs].total()), "count");
  result.set("util.pool_width_peak",
             static_cast<double>(sample[obs::Metric::pool_width_peak].total()), "count");
  result.set("trace.overhead_pct", (run.wall_s / plain_s - 1) * 100, "%");
  result.check(sample[obs::Metric::svc_queries_rejected].total() == 0, "svc rejected queries");
  std::cout << "service_mixed traced: untraced " << plain_s << " s, traced " << run.wall_s << " s, "
            << spans.size() << " spans\n";
  return result;
}

}  // namespace bench
