// paper_scan: the paper's own job. The calibrated population (1114
// servers, the discovery fleet, 20k port-4840 dummies) is deployed and
// scanned for measurements 2 and 7 (before and after reference-following;
// week 7 is the 2020-08-30 headline) through the sharded study entry point,
// 4 shards on 4 threads, into a v6 snapshot. Deploy and grab (crypto-bound
// handshakes) do nearly all the work; writing and analysis take <2%.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "analysis/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "study/sharded.hpp"
#include "util/date.hpp"
#include "workload.hpp"

namespace bench {

using namespace opcua_study;

namespace {

constexpr int kWeeks[] = {2, 7};
constexpr int kShards = 4;
constexpr int kThreads = 4;
const char* const kCampaignLabel = "imc2020-study";

StudyConfig study_config(const RunOptions& options) {
  StudyConfig config;
  config.seed = options.seed;
  config.key_cache_path = corpus_path(options);
  config.key_threads = kThreads;
  config.shards = kShards;
  config.scan_threads = kThreads;
  return config;
}

ScanOptions scan_options() {
  ScanOptions scan;
  scan.shards = kShards;
  scan.threads = kThreads;
  return scan;
}

/// Setup each run pays: population plan, deployer with its key-corpus
/// load, scanner identity.
std::unique_ptr<ShardedStudy> set_up(const RunOptions& options) {
  return std::make_unique<ShardedStudy>(study_config(options), scan_options());
}

struct Job {
  std::vector<double> call_seconds;  // one per study call; the last includes finish()
  std::vector<std::uint64_t> week_records;
  std::uint64_t max_sim_us = 0;
  double wall_s() const {
    double total = 0;
    for (const double s : call_seconds) total += s;
    return total;
  }
  std::uint64_t records() const {
    std::uint64_t total = 0;
    for (const std::uint64_t r : week_records) total += r;
    return total;
  }
};

/// The timed job: one run_sharded_campaign_streamed call per week.
Job run_streamed(ShardedStudy& study, const std::string& path, std::uint64_t seed) {
  Job job;
  SnapshotWriter writer(path, seed);
  writer.set_campaign(kCampaignLabel, days_from_civil({2020, 2, 9}));
  for (std::size_t k = 0; k < std::size(kWeeks); ++k) {
    const auto start = Clock::now();
    ShardedRunStats stats;
    const SnapshotMeta meta =
        run_sharded_campaign_streamed(study.deployer(), kWeeks[k], study.config(), writer, &stats);
    if (k + 1 == std::size(kWeeks)) writer.finish();
    job.call_seconds.push_back(seconds_since(start));
    job.week_records.push_back(meta.host_count);
    job.max_sim_us = std::max(job.max_sim_us, stats.max_simulated_us());
  }
  return job;
}

/// The traced job: the same weeks one public call at a time, so deploy,
/// grab and write each get their own span. Mirrors the streamed runner's
/// record order (shard-major, (ip, port)-sorted batches), so the file must
/// come out byte-identical.
Job run_decomposed(ShardedStudy& study, const std::string& path, std::uint64_t seed,
                   SpanRecorder& recorder, int root) {
  Job job;
  const ShardedCampaignConfig& config = study.config();
  SnapshotWriter writer(path, seed);
  writer.set_campaign(kCampaignLabel, days_from_civil({2020, 2, 9}));
  for (std::size_t k = 0; k < std::size(kWeeks); ++k) {
    const int week = kWeeks[k];
    const auto start = Clock::now();
    const SpanScope week_span(recorder, "study.week", root);

    std::vector<std::unique_ptr<Network>> networks;
    for (int s = 0; s < kShards; ++s) {
      const SpanScope deploy(recorder, "population.deploy_week", week_span.id());
      networks.push_back(std::make_unique<Network>());
      study.deployer().deploy_week(*networks.back(), week, ShardSpec{s, kShards});
      install_fault_plan(*networks.back(), config);
    }

    std::vector<ScanSnapshot> shards(kShards);
    std::atomic<int> next{0};
    auto worker = [&] {
      for (int s = next.fetch_add(1); s < kShards; s = next.fetch_add(1)) {
        const SpanScope grab(recorder, "scanner.grab", week_span.id());
        const obs::TraceScope scope(week, s);
        Campaign campaign(config.campaign, *networks[static_cast<std::size_t>(s)]);
        ScanSnapshot& snapshot = shards[static_cast<std::size_t>(s)];
        snapshot = campaign.run(week);
        std::sort(snapshot.hosts.begin(), snapshot.hosts.end(),
                  [](const HostScanRecord& a, const HostScanRecord& b) {
                    return std::make_pair(a.ip, a.port) < std::make_pair(b.ip, b.port);
                  });
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();

    std::uint64_t records = 0;
    {
      const SpanScope write(recorder, "scanner.snapshot_write", week_span.id());
      writer.begin_snapshot(week, measurement_days(week));
      std::uint64_t probes = 0, tcp_open = 0;
      for (const ScanSnapshot& snapshot : shards) {
        probes += snapshot.probes_sent;
        tcp_open += snapshot.tcp_open_count;
        for (const HostScanRecord& host : snapshot.hosts) {
          writer.add_host(host);
          ++records;
        }
      }
      if (!config.campaign.oracle_sweep) probes = shards.front().probes_sent;
      writer.end_snapshot(probes, tcp_open);
      if (k + 1 == std::size(kWeeks)) writer.finish();
    }
    for (const auto& net : networks) job.max_sim_us = std::max(job.max_sim_us, net->clock().now_us());
    job.call_seconds.push_back(seconds_since(start));
    job.week_records.push_back(records);
  }
  return job;
}

/// The final week's Fig. 3-8 numbers against the paper, with the
/// tolerances of the bench/fig* mains.
std::vector<ComparisonRow> figure_rows(const StudyAnalysis& analysis) {
  using SP = SecurityPolicy;
  using MSM = MessageSecurityMode;
  ModePolicyStats modes = analysis.modes;
  CertConformanceStats certs = analysis.certificates;
  const ReuseStats& reuse = analysis.reuse;
  const AuthStats& auth = analysis.auth;
  const AccessRightsStats& access = analysis.access_rights;
  const DeficitBreakdown& deficits = analysis.deficits;
  std::vector<ComparisonRow> rows = {
      compare_num("Fig3 servers", 1114, modes.servers, 0),
      compare_num("Fig3 mode None supported", 1035, modes.mode_support[MSM::None], 0),
      compare_num("Fig3 mode Sign supported", 588, modes.mode_support[MSM::Sign], 0),
      compare_num("Fig3 mode SignAndEncrypt supported", 843,
                  modes.mode_support[MSM::SignAndEncrypt], 0),
      compare_num("Fig3 Sign as least secure", 28, modes.mode_least[MSM::Sign], 0),
      compare_num("Fig3 SignAndEncrypt as least secure", 51,
                  modes.mode_least[MSM::SignAndEncrypt], 0),
      compare_num("Fig3 Sign as most secure", 1, modes.mode_most[MSM::Sign], 0),
      compare_num("Fig3 only mode None", 270, modes.none_only, 0),
      compare_num("Fig3 secure mode available", 844, modes.secure_mode_capable, 0),
      compare_num("Fig3 policy None supported", 1035, modes.policy_support[SP::None], 0),
      compare_num("Fig3 policy D1 supported", 715, modes.policy_support[SP::Basic128Rsa15], 0),
      compare_num("Fig3 policy D2 supported", 762, modes.policy_support[SP::Basic256], 0),
      compare_num("Fig3 policy S1 supported", 10,
                  modes.policy_support[SP::Aes128Sha256RsaOaep], 0),
      compare_num("Fig3 policy S2 supported", 564, modes.policy_support[SP::Basic256Sha256], 0),
      compare_num("Fig3 policy S3 supported", 8, modes.policy_support[SP::Aes256Sha256RsaPss], 0),
      compare_num("Fig3 deprecated policy supported", 786, modes.deprecated_supported, 0),
      compare_num("Fig3 deprecated as most secure", 280, modes.deprecated_max, 0),
      compare_num("Fig3 strong policy enforced", 16, modes.strong_enforcing, 0),
      compare_num("Fig3 strong policy available", 564, modes.strong_capable, 0),
      compare_num("Fig3 D1 as least secure", 13, modes.policy_least[SP::Basic128Rsa15], 0),
      compare_num("Fig3 D2 as least secure", 50, modes.policy_least[SP::Basic256], 0),
      compare_num("Fig3 S2 as most secure", 556, modes.policy_most[SP::Basic256Sha256], 0),
      compare_num("Fig3 S3 as most secure", 8, modes.policy_most[SP::Aes256Sha256RsaPss], 0),
      compare_num("Fig4 S2 too-weak certs", 409, certs.too_weak[SP::Basic256Sha256], 0),
      compare_num("Fig4 D1 too-strong certs", 75, certs.too_strong[SP::Basic128Rsa15], 0),
      compare_num("Fig4 D2 too-strong certs", 5, certs.too_strong[SP::Basic256], 0),
      compare_num("Fig4 S1 too-weak certs", 7, certs.too_weak[SP::Aes128Sha256RsaOaep], 0),
      compare_num("Fig4 hosts delivering certificates", 1074, certs.hosts_with_cert, 0),
      compare_num("Fig4 CA-signed certificates", 2, certs.ca_signed, 0),
      compare_num("Fig4 weaker than strongest policy", 591, certs.weaker_than_max, 0),
      compare_num("Fig5 certificates on >= 3 hosts", 9, reuse.clusters_ge3, 0),
      compare_num("Fig6 servers", 1114, auth.servers, 0),
      compare_num("Fig6 secure channel possible", 1034, auth.channel_capable, 0),
      compare_num("Fig6 certificate not accepted", 80, auth.channel_rejected, 0),
      compare_num("Fig6 anonymous access offered", 572, auth.anonymous_offered, 0),
      compare_num("Fig6 anonymous among channel-capable", 563, auth.anonymous_channel_capable, 0),
      compare_num("Fig6 anonymous despite forced security", 71, auth.anonymous_secure_only, 0),
      compare_num("Fig6 publicly accessible", 493, auth.accessible, 0),
      compare_num("Fig7 accessible hosts traversed", 493,
                  static_cast<double>(access.read_fractions.size()), 0),
      compare_num("Fig7 read > 97% of nodes", 0.90,
                  AccessRightsStats::hosts_above(access.read_fractions, 0.97), 0.025),
      compare_num("Fig7 write > 10% of nodes", 0.33,
                  AccessRightsStats::hosts_above(access.write_fractions, 0.10), 0.025),
      compare_num("Fig7 execute > 86% of functions", 0.61,
                  AccessRightsStats::hosts_above(access.exec_fractions, 0.86), 0.025),
      compare_num("Fig8 None-only hosts", 270, deficits.none_only, 0),
      compare_num("Fig8 deprecated-max hosts", 280, deficits.deprecated_only, 0),
      compare_num("Fig8 weak-certificate hosts", 591, deficits.weak_certificate, 0),
      compare_num("Fig8 certificate-reuse hosts", 418, deficits.cert_reuse, 0),
      compare_num("Fig8 anonymous access offered", 572, deficits.anonymous_access, 0),
      compare_num("Fig8 deficient total", 1025, deficits.deficient_total, 0),
      compare_num("Fig8 deficient share", 0.92,
                  static_cast<double>(deficits.deficient_total) / std::max(1, deficits.servers),
                  0.005),
  };
  if (reuse.clusters.size() >= 3) {
    rows.push_back(compare_num("Fig5 largest cluster hosts", 385, reuse.clusters[0].host_count, 0));
    rows.push_back(compare_num("Fig5 largest cluster AS spread", 24,
                               static_cast<double>(reuse.clusters[0].ases.size()), 0));
    rows.push_back(compare_num("Fig5 2nd cluster hosts", 9, reuse.clusters[1].host_count, 0));
    rows.push_back(compare_num("Fig5 2nd cluster AS spread", 8,
                               static_cast<double>(reuse.clusters[1].ases.size()), 0));
    rows.push_back(compare_num("Fig5 3rd cluster hosts", 6, reuse.clusters[2].host_count, 0));
    rows.push_back(compare_num("Fig5 3rd cluster AS spread", 5,
                               static_cast<double>(reuse.clusters[2].ases.size()), 0));
  } else {
    rows.push_back({"Fig5 three largest clusters", "3", std::to_string(reuse.clusters.size()), false});
  }
  return rows;
}

/// Output checks of one written campaign; returns grabs not graded complete.
std::uint64_t check_campaign(RunResult& result, const std::string& path, std::uint64_t seed,
                             const Job& job) {
  const WeeklyTargets targets;
  for (std::size_t k = 0; k < std::size(kWeeks); ++k) {
    const int expected = targets.total(kWeeks[k]);
    result.check(job.week_records[k] == static_cast<std::uint64_t>(expected),
                 "week " + std::to_string(kWeeks[k]) + " wrote " +
                     std::to_string(job.week_records[k]) + " records, plan finds " +
                     std::to_string(expected));
  }
  const SnapshotReader reader(path, seed);
  std::uint64_t incomplete = 0;
  reader.for_each_host([&](std::size_t, const HostScanRecord& host) {
    if (host.completeness != ProbeOutcome::complete) ++incomplete;
  });
  result.check(reader.total_records() == job.records(), "reader record count != records written");
  result.check(incomplete == 0, std::to_string(incomplete) + " grabs not graded complete");

  AnalysisOptions analysis_options;
  analysis_options.threads = kThreads;
  for (const ComparisonRow& row : figure_rows(analyze_reader(reader, analysis_options))) {
    result.check(row.matches, row.metric + ": paper " + row.paper + ", measured " + row.measured);
  }
  return incomplete;
}

}  // namespace

void build_paper_scan_corpus(const RunOptions& options) {
  // Deploying every shard of every measured week draws each key the
  // timed runs will ask for; the factories flush them on destruction.
  ShardedStudy study(study_config(options), scan_options());
  for (const int week : kWeeks) {
    for (int s = 0; s < kShards; ++s) {
      Network net;
      study.deployer().deploy_week(net, week, ShardSpec{s, kShards});
    }
  }
}

RunResult run_paper_scan(const RunOptions& options) {
  RunResult result;
  const std::string path = options.work_dir + "/paper_scan.bin";
  std::vector<double> setup_seconds;

  if (!options.trace) {
    std::unique_ptr<ShardedStudy> study;
    std::vector<double> op_ms;
    double wall = 0;
    std::uint64_t records = 0;
    std::uint64_t iterations = 0;
    while (iterations == 0 || wall < options.seconds) {
      // A fresh study per job: the deployer memoises certificates.
      repeat_setup(setup_seconds, [&] {
        study.reset();
        study = set_up(options);
      });
      const Job job = run_streamed(*study, path, options.seed);
      ++iterations;
      wall += job.wall_s();
      records += job.records();
      for (const double s : job.call_seconds) op_ms.push_back(s * 1e3);

      result.check(study->deployer().keys_generated() == 0,
                   "timed run generated RSA keys (key corpus incomplete)");
      result.attempted += job.records();
      result.failed += check_campaign(result, path, options.seed, job);
    }
    std::cout << "paper_scan: " << iterations << " iteration(s), " << records << " host records in "
              << wall << " s; scan_hosts_per_s " << records / wall << " hosts/s; op samples "
              << op_ms.size() << " (study calls)\n";
    result.set("throughput_per_s", static_cast<double>(records) / wall, "1/s");
    result.set("op_p50_ms", percentile(op_ms, 50), "ms");
    report_setup(result, setup_seconds);
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: the untraced job first (the byte-identity reference and
  // the overhead baseline), then the decomposed job with spans and obs on.
  const std::string traced_path = options.work_dir + "/paper_scan_traced.bin";
  Job plain;
  {
    const auto study = set_up(options);
    plain = run_streamed(*study, path, options.seed);
    result.attempted += plain.records();
    result.failed += check_campaign(result, path, options.seed, plain);
  }
  const auto study = set_up(options);
  SpanRecorder recorder(true, opcua_study::hash64("paper_scan:" + std::to_string(options.seed)) ^
                                  static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()));
  obs::reset();
  obs::set_enabled(true);
  Job traced;
  {
    const SpanScope root(recorder, "run", -1);
    traced = run_decomposed(*study, traced_path, options.seed, recorder, root.id());
  }
  obs::set_enabled(false);
  const obs::MetricsSample sample = obs::collect();
  result.attempted += traced.records();
  result.failed += check_campaign(result, traced_path, options.seed, traced);
  result.check(file_digest(traced_path) == file_digest(path),
               "traced decomposition wrote a file that differs from the streamed run's");
  result.check(traced.max_sim_us == plain.max_sim_us,
               "traced decomposition changed the simulated scan window");

  const std::vector<Span> spans = recorder.spans();
  recorder.write_jsonl(options.trace_dir + "/paper_scan-" + std::to_string(options.seed) + ".jsonl");
  const auto self = self_seconds_by_layer(spans);
  double grab_wall = 0, skew_sum = 0;
  for (const Span& week : spans) {
    if (week.name != "study.week") continue;
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    std::vector<double> shard_s;
    for (const Span& s : spans) {
      if (s.parent != week.id || s.name != "scanner.grab") continue;
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.end_ns);
      shard_s.push_back(s.seconds());
    }
    grab_wall += static_cast<double>(hi - lo) * 1e-9;
    double mean = 0;
    for (const double s : shard_s) mean += s / static_cast<double>(shard_s.size());
    skew_sum += *std::max_element(shard_s.begin(), shard_s.end()) / mean;
  }
  result.set("population.deploy_s", busy_seconds(spans, "population.deploy_week"), "s");
  result.set("scanner.grab_s", busy_seconds(spans, "scanner.grab"), "s");
  result.set("scanner.grab_wall_s", grab_wall, "s");
  result.set("scanner.shard_skew", skew_sum / static_cast<double>(std::size(kWeeks)), "ratio");
  result.set("scanner.snapshot_write_s", busy_seconds(spans, "scanner.snapshot_write"), "s");
  result.set("study.self_s", self.count("study") ? self.at("study") : 0, "s");
  result.set("scanner.tasks_launched",
             static_cast<double>(sample[obs::Metric::scan_tasks_launched].total()), "count");
  result.set("scanner.task_wakeups",
             static_cast<double>(sample[obs::Metric::scan_task_wakeups].total()), "count");
  result.set("scanner.grab_bytes_sent",
             static_cast<double>(sample[obs::Metric::grab_bytes_sent].total()), "B");
  result.set("scanner.in_flight_peak",
             static_cast<double>(sample[obs::Metric::scheduler_in_flight_peak].total()), "count");
  result.set("scanner.sim_window_h", static_cast<double>(traced.max_sim_us) / 3.6e9, "h");
  result.set("crypto.keys_generated",
             static_cast<double>(sample[obs::Metric::keys_generated].total()), "count");
  result.set("crypto.key_cache_hits",
             static_cast<double>(sample[obs::Metric::key_cache_hits].total()), "count");
  result.check(sample[obs::Metric::keys_generated].total() == 0,
               "traced run generated RSA keys (key corpus incomplete)");
  result.set("trace.overhead_pct", (traced.wall_s() / plain.wall_s() - 1) * 100, "%");
  std::cout << "paper_scan traced: untraced " << plain.wall_s() << " s, traced " << traced.wall_s()
            << " s, " << spans.size() << " spans\n";
  return result;
}

}  // namespace bench
