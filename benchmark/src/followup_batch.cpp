// followup_batch: the analyst's batch job at follow-up scale (the size of
// "Missed Opportunities", PAM 2022). A 100k-host synthetic base is written
// to v6 (ingest), grown by two extend_series members under the default
// FollowupConfig (2048-bit mint keys, 1024-cert mint fleet), then every
// member is analyzed, the first pair diffed and the three-member series
// analyzed with sketches on (report). The grab does no work here; the
// snapshot layer's writes and reads, the evolution model's fleet minting
// and the record-walking passes do. Its ~60k-entry certificate dictionary
// (paper_scan's files hold under 4k records) is a working set larger than
// the per-pass caches.
#include <filesystem>
#include <iostream>

#include "analysis/analysis.hpp"
#include "diff/diff.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "workload.hpp"

namespace bench {

using namespace opcua_study;

namespace {

constexpr std::size_t kBaseHosts = 100000;
constexpr int kThreads = 4;
constexpr int kExtendSteps = 2;
/// Jobs per timed run, at least. Most of a job is single-threaded (the
/// write and the extend steps), which varies most from run to run on a
/// shared machine; two jobs per run average over more of it.
constexpr int kMinJobs = 2;

FollowupConfig followup_config(const std::string& key_path) {
  FollowupConfig config;  // the defaults users run: 2048-bit mint keys
  config.key_cache_path = key_path;
  return config;
}

struct Job {
  std::vector<double> call_seconds;  // write, extend x2, analyze x3, diff, series
  double ingest_s = 0;
  double report_s = 0;
  std::uint64_t ingest_records = 0;
  std::uint64_t report_records = 0;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> member_records;  // as written
  CampaignDiff diff;
  SeriesAnalysis series;
};

/// Time one public call, as a span (traced run) and as an op sample.
template <typename Fn>
auto timed_call(Job& job, SpanRecorder& recorder, const char* span, int parent, Fn fn) {
  const SpanScope scope(recorder, span, parent);
  const auto start = Clock::now();
  auto out = fn();
  job.call_seconds.push_back(seconds_since(start));
  return out;
}

Job run_job(const RunOptions& options, const std::string& dir,
            const std::vector<HostScanRecord>& base, SpanRecorder& recorder, int root) {
  Job job;
  const FollowupConfig config = followup_config(corpus_path(options));
  for (int m = 0; m <= kExtendSteps; ++m) {
    job.paths.push_back(dir + "/m" + std::to_string(m) + ".bin");
    job.seeds.push_back(options.seed + static_cast<std::uint64_t>(m));
  }

  // ---- ingest: base write + extend_series steps ----
  const std::int64_t base_day = days_from_civil({2020, 9, 11});
  job.member_records.push_back(timed_call(job, recorder, "scanner.snapshot_write", root, [&] {
    SnapshotWriter writer(job.paths[0], job.seeds[0]);
    writer.set_campaign("bench-base-2020", base_day);
    writer.begin_snapshot(0, base_day);
    for (const HostScanRecord& host : base) writer.add_host(host);
    writer.end_snapshot(base.size() * 2, base.size() + base.size() / 2);
    writer.finish();
    return static_cast<std::uint64_t>(base.size());
  }));
  CampaignSet set;
  set.add_file(job.paths[0], job.seeds[0]);
  for (int m = 1; m <= kExtendSteps; ++m) {
    const SnapshotMeta meta = timed_call(job, recorder, "study.extend_series", root, [&] {
      return extend_series(set, config, job.paths[static_cast<std::size_t>(m)],
                           job.seeds[static_cast<std::size_t>(m)]);
    });
    job.member_records.push_back(meta.host_count);
  }
  for (std::size_t c = 0; c <= kExtendSteps; ++c) job.ingest_s += job.call_seconds[c];
  for (const std::uint64_t r : job.member_records) job.ingest_records += r;

  // ---- report: analyze each member, diff the first pair, the series ----
  AnalysisOptions analysis_options;
  analysis_options.threads = kThreads;
  for (std::size_t m = 0; m < job.paths.size(); ++m) {
    timed_call(job, recorder, "analysis.analyze_file", root,
               [&] { return analyze_file(job.paths[m], job.seeds[m], analysis_options); });
    job.report_records += job.member_records[m];
  }
  DiffOptions diff_options;
  diff_options.threads = kThreads;
  job.diff = timed_call(job, recorder, "diff.diff_files", root, [&] {
    return diff_files(job.paths[0], job.seeds[0], job.paths[1], job.seeds[1], diff_options);
  });
  job.report_records += job.member_records[0] + job.member_records[1];
  SeriesOptions series_options;
  series_options.threads = kThreads;
  series_options.use_sketches = true;
  job.series = timed_call(job, recorder, "series.analyze_series", root,
                          [&] { return analyze_series(set, series_options); });
  for (const std::uint64_t r : job.member_records) job.report_records += r;
  for (std::size_t c = kExtendSteps + 1; c < job.call_seconds.size(); ++c) {
    job.report_s += job.call_seconds[c];
  }
  return job;
}

void check_job(RunResult& result, const Job& job) {
  result.check(!job.series.steps.empty() && job.series.steps[0] == job.diff,
               "analyze_series step 0 differs from diff_files(m0, m1)");
  for (std::size_t m = 0; m < job.paths.size(); ++m) {
    const SnapshotReader reader(job.paths[m], job.seeds[m]);
    result.check(reader.total_records() == job.member_records[m],
                 "member " + std::to_string(m) + ": reader counts " +
                     std::to_string(reader.total_records()) + " records, " +
                     std::to_string(job.member_records[m]) + " written");
  }
}

std::vector<HostScanRecord> set_up(const RunOptions& options) {
  return make_base_hosts(options.seed, kBaseHosts, make_cert_fleet(corpus_path(options)));
}

}  // namespace

void build_followup_batch_corpus(const RunOptions& options) {
  build_synthetic_corpus(corpus_path(options), followup_config(corpus_path(options)), kExtendSteps);
}

RunResult run_followup_batch(const RunOptions& options) {
  RunResult result;
  const std::string key_path = corpus_path(options);
  const std::uint64_t corpus_digest = file_digest(key_path);
  std::vector<double> setup_seconds;
  std::vector<HostScanRecord> base;
  auto timed_setup = [&] {
    base.clear();
    base.shrink_to_fit();
    base = set_up(options);
  };
  SpanRecorder off(false, 0);

  if (!options.trace) {
    std::vector<double> op_ms;
    double ingest_s = 0, report_s = 0;
    std::uint64_t ingest_records = 0, report_records = 0;
    int iterations = 0;
    repeat_setup(setup_seconds, timed_setup);  // jobs only read the base
    while (iterations < kMinJobs || ingest_s + report_s < options.seconds) {
      const Job job = run_job(options, fresh_dir(options, "iter" + std::to_string(iterations)),
                              base, off, -1);
      ++iterations;
      ingest_s += job.ingest_s;
      report_s += job.report_s;
      ingest_records += job.ingest_records;
      report_records += job.report_records;
      for (const double s : job.call_seconds) op_ms.push_back(s * 1e3);
      result.attempted += job.call_seconds.size();
      check_job(result, job);
      std::filesystem::remove_all(options.work_dir + "/iter" + std::to_string(iterations - 1));
    }
    result.check(file_digest(key_path) == corpus_digest,
                 "timed run generated RSA keys (the key corpus changed)");
    std::cout << "followup_batch: " << iterations << " iteration(s); ingest_records_per_s "
              << ingest_records / ingest_s << " records/s (" << ingest_s
              << " s); report_records_per_s " << report_records / report_s << " records/s ("
              << report_s << " s); op samples " << op_ms.size() << " (public calls)\n";
    result.set("throughput_per_s",
               static_cast<double>(ingest_records + report_records) / (ingest_s + report_s), "1/s");
    result.set("op_p50_ms", percentile(op_ms, 50), "ms");
    report_setup(result, setup_seconds);
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: one untraced job (overhead baseline), then the same job
  // with spans and obs counters on.
  timed_setup();
  const Job plain = run_job(options, fresh_dir(options, "plain"), base, off, -1);
  check_job(result, plain);
  result.attempted += plain.call_seconds.size();
  std::filesystem::remove_all(options.work_dir + "/plain");

  SpanRecorder recorder(true, opcua_study::hash64("followup_batch:" + std::to_string(options.seed)) ^
                                  static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()));
  const std::string dir = fresh_dir(options, "traced");
  obs::reset();
  obs::set_enabled(true);
  Job traced;
  {
    const SpanScope root(recorder, "run", -1);
    traced = run_job(options, dir, base, recorder, root.id());
  }
  obs::set_enabled(false);
  const obs::MetricsSample sample = obs::collect();
  check_job(result, traced);
  result.attempted += traced.call_seconds.size();
  result.check(file_digest(key_path) == corpus_digest,
               "traced run generated RSA keys (the key corpus changed)");
  result.check(sample[obs::Metric::keys_generated].total() == 0, "traced run generated RSA keys");

  std::uint64_t bytes = 0;
  for (const std::string& path : traced.paths) bytes += std::filesystem::file_size(path);
  const std::vector<Span> spans = recorder.spans();
  recorder.write_jsonl(options.trace_dir + "/followup_batch-" + std::to_string(options.seed) +
                       ".jsonl");
  const auto self = self_seconds_by_layer(spans);
  result.set("scanner.snapshot_write_s", busy_seconds(spans, "scanner.snapshot_write"), "s");
  result.set("scanner.snapshot_bytes_per_record",
             static_cast<double>(bytes) / static_cast<double>(traced.ingest_records), "B/record");
  result.set("scanner.snapshot_chunks_read",
             static_cast<double>(sample[obs::Metric::snapshot_chunks_read].total()), "count");
  result.set("scanner.snapshot_bytes_read",
             static_cast<double>(sample[obs::Metric::snapshot_bytes_read].total()), "B");
  result.set("crypto.keys_generated",
             static_cast<double>(sample[obs::Metric::keys_generated].total()), "count");
  result.set("crypto.key_cache_hits",
             static_cast<double>(sample[obs::Metric::key_cache_hits].total()), "count");
  result.set("study.extend_s", busy_seconds(spans, "study.extend_series"), "s");
  result.set("study.self_s", self.count("study") ? self.at("study") : 0, "s");
  result.set("analysis.pass_s", busy_seconds(spans, "analysis.analyze_file"), "s");
  result.set("diff.pass_s", busy_seconds(spans, "diff.diff_files"), "s");
  result.set("series.pass_s", busy_seconds(spans, "series.analyze_series"), "s");
  result.set("util.pool_jobs", static_cast<double>(sample[obs::Metric::pool_jobs].total()), "count");
  result.set("util.pool_width_peak",
             static_cast<double>(sample[obs::Metric::pool_width_peak].total()), "count");
  const double plain_s = plain.ingest_s + plain.report_s;
  const double traced_s = traced.ingest_s + traced.report_s;
  result.set("trace.overhead_pct", (traced_s / plain_s - 1) * 100, "%");
  std::cout << "followup_batch traced: untraced " << plain_s << " s, traced " << traced_s << " s, "
            << spans.size() << " spans\n";
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace bench
