// Observability-plane tests: stable metrics byte-identical across thread
// counts / in-flight windows / shard layouts (fault-free and hostile),
// snapshot byte-identity with telemetry on vs. off, exact reconciliation
// of the grab_outcome account against kept snapshot records, the flight
// recorder's byte-reproducible dump and bounded ring, the thread pool's
// empty-range / error-index contract, and the exposition formats.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "population/deploy.hpp"
#include "report/telemetry.hpp"
#include "scanner/campaign.hpp"
#include "scanner/protocol.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/sharded.hpp"
#include "study/study.hpp"
#include "util/date.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {
namespace {

constexpr std::uint64_t kFaultSeed = 909;

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Restores the obs plane to its default-off, empty state around a test so
/// suites never leak telemetry into each other.
struct ObsGuard {
  ObsGuard() {
    obs::reset();
    obs::trace_reset();
    obs::set_enabled(true);
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset();
    obs::trace_reset();
  }
};

/// Mixed OPC UA + MQTT-over-TLS population (mirrors the protocol-plugin
/// test plan): 8 rotating OPC UA postures plus an 8-broker MQTT fleet.
PopulationPlan mixed_plan() {
  PopulationPlan plan;
  for (int i = 0; i < 8; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "obs";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:obs-" + std::to_string(i);
    host.application_name = "obs host " + std::to_string(i);
    host.asn = 64700 + static_cast<std::uint32_t>(i % 3);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    if (i % 3 == 0) {
      host.modes = {MessageSecurityMode::None};
      host.policies = {SecurityPolicy::None};
      host.tokens = {UserTokenType::Anonymous};
      host.outcome = PlannedOutcome::accessible;
      host.classification = PlannedClass::production;
      host.variable_count = 4;
      host.method_count = 1;
    } else {
      host.modes = {MessageSecurityMode::None, MessageSecurityMode::Sign};
      host.policies = {SecurityPolicy::None, SecurityPolicy::Basic128Rsa15};
      host.tokens = {UserTokenType::UserName};
      host.outcome = PlannedOutcome::auth_rejected;
    }
    plan.hosts.push_back(std::move(host));
  }
  add_mqtt_population(plan, 99, 8);
  return plan;
}

Deployer make_deployer(const PopulationPlan& plan) {
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  return Deployer(plan, deploy_config);
}

CampaignConfig mixed_campaign_config(KeyFactory& keys) {
  CampaignConfig config;
  config.seed = 5;
  config.grabber.client = make_scanner_identity(42, keys);
  config.protocols = {ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort},
                     ProtocolTarget{ProtocolId::mqtt_tls, kMqttTlsDefaultPort}};
  return config;
}

/// One plain (unsharded) mixed campaign on the calling thread; hostile
/// faults when `hostile`.
ScanSnapshot run_mixed_campaign(const PopulationPlan& plan, std::size_t max_in_flight,
                                bool hostile, int week = 7) {
  Network net;
  Deployer deployer = make_deployer(plan);
  deployer.deploy_week(net, week);
  if (hostile) net.set_fault_plan(std::make_unique<FaultPlan>(kFaultSeed, FaultProfile::hostile()));
  KeyFactory keys(42, "");
  CampaignConfig config = mixed_campaign_config(keys);
  config.max_in_flight = max_in_flight;
  Campaign campaign(config, net);
  return campaign.run(week);
}

// -------------------------------------------------- layout invariance ----

TEST(Observability, StableTelemetryByteIdenticalAcrossLayouts) {
  const ObsGuard guard;
  const PopulationPlan plan = mixed_plan();

  // Every configuration scans the same simulated world, so the *stable*
  // exposition must come out byte-for-byte identical: shard count, thread
  // count and the in-flight window are execution details, not results.
  const auto stable_json_for = [&](int shards, int threads, std::size_t in_flight,
                                   bool hostile) {
    obs::reset();
    Deployer deployer = make_deployer(plan);
    KeyFactory keys(42, "");
    ShardedCampaignConfig config;
    config.campaign = mixed_campaign_config(keys);
    config.campaign.max_in_flight = in_flight;
    config.shards = shards;
    config.threads = threads;
    if (hostile) {
      config.faults = FaultProfile::hostile();
      config.fault_seed = kFaultSeed;
    }
    const ScanSnapshot snapshot = run_sharded_campaign(deployer, 7, config);
    EXPECT_FALSE(snapshot.hosts.empty());
    return telemetry_json(obs::collect());
  };

  for (const bool hostile : {false, true}) {
    const std::string base = stable_json_for(1, 1, 1, hostile);
    EXPECT_EQ(base, stable_json_for(1, 1, 256, hostile)) << "in-flight window leaked";
    EXPECT_EQ(base, stable_json_for(3, 4, 64, hostile)) << "shard/thread layout leaked";
    EXPECT_EQ(base, stable_json_for(2, 2, 16, hostile)) << "shard/thread layout leaked";

    // The account is non-trivial: tasks launched for both protocol
    // families, and (hostile only) injected faults on the wire.
    EXPECT_NE(base.find("\"grab_outcome\""), std::string::npos);
    EXPECT_NE(base.find("\"mqtt-tls/complete\""), std::string::npos);
    if (hostile) {
      obs::reset();
      const ScanSnapshot snapshot = run_mixed_campaign(plan, 64, true);
      const auto sample = obs::collect();
      EXPECT_GT(sample[obs::Metric::net_faults_injected].total(), 0u);
      EXPECT_GT(sample[obs::Metric::grab_fault_events].total(), 0u);
      (void)snapshot;
    }
    // Operational metrics (wall timings, peaks) stay out of the stable
    // contract — they may differ across layouts, so they must not appear.
    EXPECT_EQ(base.find("wall_us"), std::string::npos);
    EXPECT_EQ(base.find("operational"), std::string::npos);
  }
}

// ----------------------------------------------- snapshot byte identity ----

TEST(Observability, SnapshotBytesIdenticalTelemetryOnVsOff) {
  const PopulationPlan plan = mixed_plan();
  const std::string path_off = "/tmp/opcua_test_obs_off.bin";
  const std::string path_on = "/tmp/opcua_test_obs_on.bin";

  // Telemetry observes the campaign; it must never steer it. The full
  // pipeline (hostile campaign -> v6 snapshot file) runs once with the
  // whole obs plane off and once with metrics + flight recorder on.
  const auto run_to_file = [&](const std::string& path, bool telemetry) {
    obs::reset();
    obs::trace_reset();
    obs::set_enabled(telemetry);
    obs::set_trace_enabled(telemetry);
    const ScanSnapshot snapshot = run_mixed_campaign(plan, 32, true);
    save_snapshots(path, 42, {snapshot});
    return snapshot;
  };

  const ScanSnapshot off = run_to_file(path_off, false);
  const ScanSnapshot on = run_to_file(path_on, true);
  EXPECT_EQ(off, on);
  EXPECT_EQ(read_file_bytes(path_off), read_file_bytes(path_on));

  // The instrumented run actually recorded: metrics and trace non-empty.
  const auto sample = obs::collect();
  EXPECT_GT(sample[obs::Metric::scan_tasks_launched].total(), 0u);
  EXPECT_GT(sample[obs::Metric::snapshot_bytes_written].total(), 0u);
  EXPECT_NE(obs::trace_jsonl().find("\"event\":\"campaign_begin\""), std::string::npos);

  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  obs::reset();
  obs::trace_reset();
  std::remove(path_off.c_str());
  std::remove(path_on.c_str());
}

// --------------------------------------------------- exact reconciliation ----

TEST(Observability, OutcomeTotalsReconcileWithKeptRecords) {
  const ObsGuard guard;
  const ScanSnapshot snapshot = run_mixed_campaign(mixed_plan(), 64, true);
  const auto sample = obs::collect();

  // Recompute the expected account from the snapshot itself: one
  // grab_outcome increment per kept record in its (protocol, grade) cell,
  // and per-protocol sums for retries / fault events / bytes sent.
  std::array<std::uint64_t, 8> outcome{};
  std::array<std::uint64_t, 2> retries{};
  std::array<std::uint64_t, 2> faults{};
  std::array<std::uint64_t, 2> bytes{};
  for (const auto& host : snapshot.hosts) {
    const auto protocol = static_cast<unsigned>(host.protocol);
    ASSERT_LT(protocol, 2u);
    outcome[protocol * 4 + static_cast<unsigned>(host.completeness)] += 1;
    retries[protocol] += host.retries;
    faults[protocol] += host.fault_events;
    bytes[protocol] += host.bytes_sent;
  }

  const auto& grab_outcome = sample[obs::Metric::grab_outcome];
  ASSERT_EQ(grab_outcome.cells.size(), outcome.size());
  for (std::size_t cell = 0; cell < outcome.size(); ++cell) {
    EXPECT_EQ(grab_outcome.cells[cell], outcome[cell])
        << "grab_outcome cell " << obs::kOutcomeCells[cell];
  }
  EXPECT_EQ(grab_outcome.total(), snapshot.hosts.size());
  for (std::size_t protocol = 0; protocol < 2; ++protocol) {
    EXPECT_EQ(sample[obs::Metric::grab_retries].cells[protocol], retries[protocol]);
    EXPECT_EQ(sample[obs::Metric::grab_fault_events].cells[protocol], faults[protocol]);
    EXPECT_EQ(sample[obs::Metric::grab_bytes_sent].cells[protocol], bytes[protocol]);
  }
  // The hostile profile left marks to reconcile against.
  EXPECT_GT(sample[obs::Metric::grab_fault_events].total(), 0u);
}

// ------------------------------------------------------- flight recorder ----

TEST(Observability, FlightRecorderDumpIsByteReproducible) {
  const ObsGuard guard;
  obs::set_trace_enabled(true);
  const PopulationPlan plan = mixed_plan();

  const auto run_traced = [&]() {
    obs::reset();
    obs::trace_reset();
    const ScanSnapshot snapshot = run_mixed_campaign(plan, 8, true);
    return std::make_pair(obs::trace_jsonl(), snapshot.hosts.size());
  };

  const auto [first, kept] = run_traced();
  const auto [second, kept_again] = run_traced();
  EXPECT_EQ(first, second);  // the dump is byte-reproducible run over run
  EXPECT_EQ(kept, kept_again);
  EXPECT_NE(first.find("\"event\":\"campaign_begin\""), std::string::npos);
  EXPECT_NE(first.find("\"event\":\"sweep_complete\""), std::string::npos);
  EXPECT_NE(first.find("\"event\":\"host_complete\""), std::string::npos);

  // Semantics: every event carries the campaign's week scope, timestamps
  // never run backwards within the single-threaded timeline, and
  // campaign_end accounts for exactly the kept records.
  const std::vector<obs::TraceRecord> events = obs::trace_collect();
  ASSERT_FALSE(events.empty());
  std::uint64_t last_t = 0;
  std::uint64_t campaign_end_a = 0;
  std::size_t host_completes = 0;
  for (const auto& event : events) {
    EXPECT_EQ(event.week, 7);
    EXPECT_GE(event.t_us, last_t);
    last_t = event.t_us;
    if (event.event == obs::TraceEvent::campaign_end) campaign_end_a = event.a;
    if (event.event == obs::TraceEvent::host_complete) ++host_completes;
  }
  EXPECT_EQ(campaign_end_a, kept);
  EXPECT_GE(host_completes, kept);  // non-speaking hosts complete too
}

TEST(Observability, TraceRingOverflowKeepsNewestAndCountsDrops) {
  const ObsGuard guard;
  obs::set_trace_enabled(true);
  obs::set_trace_capacity(4);

  // A fresh thread leases a fresh ring with the shrunken capacity; ten
  // events through a 4-slot ring keep the newest four and count six drops.
  std::thread recorder([] {
    const obs::TraceScope scope(1, 0);
    for (std::uint64_t i = 0; i < 10; ++i) {
      obs::trace(obs::TraceEvent::host_complete, i);
    }
  });
  recorder.join();
  obs::set_trace_capacity(4096);

  std::vector<std::uint64_t> kept;
  for (const auto& event : obs::trace_collect()) {
    if (event.week == 1 && event.shard == 0) kept.push_back(event.t_us);
  }
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{6, 7, 8, 9}));
  EXPECT_EQ(obs::collect()[obs::Metric::trace_events_dropped].total(), 6u);
}

// ------------------------------------------------------------ thread pool ----

TEST(ThreadPoolContract, EmptyRangeIsNoOp) {
  const ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(pool.last_error_index(), ThreadPool::kNoError);

  std::atomic<int> merges{0};
  pool.parallel_for_merged(
      0, [&](std::size_t) { ++calls; }, [&](std::size_t) { ++merges; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(merges.load(), 0);
  EXPECT_EQ(pool.last_error_index(), ThreadPool::kNoError);
}

TEST(ThreadPoolContract, ExceptionKeepsTypeAndReportsIndex) {
  const ThreadPool pool(4);
  try {
    pool.parallel_for(64, [](std::size_t i) {
      if (i == 37) throw std::out_of_range("iteration 37");
    });
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "iteration 37");  // original type and message
  }
  EXPECT_EQ(pool.last_error_index(), 37u);

  // A clean call resets the sticky index.
  pool.parallel_for(4, [](std::size_t) {});
  EXPECT_EQ(pool.last_error_index(), ThreadPool::kNoError);

  // The inline (single-thread) fast path keeps the same contract.
  const ThreadPool inline_pool(1);
  try {
    inline_pool.parallel_for(8, [](std::size_t i) {
      if (i == 5) throw std::domain_error("iteration 5");
    });
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error&) {
  }
  EXPECT_EQ(inline_pool.last_error_index(), 5u);
}

TEST(ThreadPoolContract, MergedDrainReportsMergedIndexNotDrainer) {
  const ThreadPool pool(4);

  // merge(3) throws: merges 0..2 already ran (in order), and the reported
  // index is the merged chunk, not whichever iteration drained the prefix.
  std::vector<std::size_t> merged;
  try {
    pool.parallel_for_merged(
        16, [](std::size_t) {},
        [&](std::size_t i) {
          if (i == 3) throw std::runtime_error("merge 3");
          merged.push_back(i);
        });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "merge 3");
  }
  EXPECT_EQ(pool.last_error_index(), 3u);
  EXPECT_EQ(merged, (std::vector<std::size_t>{0, 1, 2}));

  // A worker throw in merged mode reports the worker's index.
  try {
    pool.parallel_for_merged(
        16,
        [](std::size_t i) {
          if (i == 11) throw std::length_error("iteration 11");
        },
        [](std::size_t) {});
    FAIL() << "expected std::length_error";
  } catch (const std::length_error&) {
  }
  EXPECT_EQ(pool.last_error_index(), 11u);
}

// -------------------------------------------------------------- exposition ----

TEST(Observability, ExpositionFormatsAndDisabledPlane) {
  const ObsGuard guard;
  obs::add(obs::Metric::grab_outcome, 3, 0);               // opcua/complete
  obs::observe_us(obs::Metric::phase_connect_us, 500, 1);  // mqtt-tls cell
  obs::observe_us(obs::Metric::svc_query_us, 7, 1);        // posture cell
  obs::gauge_peak(obs::Metric::scheduler_in_flight_peak, 7);
  obs::add(obs::Metric::snapshot_bytes_written, 1234);
  const auto sample = obs::collect();

  // JSON: stable-only by default, operational on request, label stamped.
  const std::string stable = telemetry_json(sample);
  EXPECT_NE(stable.find("\"schema\": \"opcua-telemetry-v1\""), std::string::npos);
  EXPECT_NE(stable.find("\"opcua/complete\": 3"), std::string::npos);
  EXPECT_EQ(stable.find("scheduler_in_flight_peak"), std::string::npos);
  TelemetryReportOptions options;
  options.include_operational = true;
  options.campaign_label = "obs-unit";
  const std::string full = telemetry_json(sample, options);
  EXPECT_NE(full.find("\"campaign\": \"obs-unit\""), std::string::npos);
  EXPECT_NE(full.find("\"operational\""), std::string::npos);
  EXPECT_NE(full.find("\"scheduler_in_flight_peak\": 7"), std::string::npos);

  // Prometheus text: prefixed names, cell labels, cumulative histograms.
  const std::string prom = telemetry_prometheus(sample);
  EXPECT_NE(prom.find("opcua_study_grab_outcome{cell=\"opcua/complete\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("opcua_study_phase_connect_us_bucket{cell=\"mqtt-tls\",le=\"1000\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("opcua_study_phase_connect_us_sum{cell=\"mqtt-tls\"} 500"),
            std::string::npos);
  EXPECT_NE(prom.find("opcua_study_phase_connect_us_count{cell=\"mqtt-tls\"} 1"),
            std::string::npos);
  EXPECT_EQ(prom.find("scheduler_in_flight_peak"), std::string::npos);
  TelemetryReportOptions operational;
  operational.include_operational = true;
  EXPECT_NE(
      telemetry_prometheus(sample, operational).find("opcua_study_scheduler_in_flight_peak 7"),
      std::string::npos);
  // svc_query_us has bounds of its own: a 7 µs query lands under le="10",
  // where the shared decade bounds hold every read up to 100 µs in one
  // bucket. The stable histograms above keep the shared bounds.
  const std::string prom_all = telemetry_prometheus(sample, operational);
  EXPECT_NE(prom_all.find("opcua_study_svc_query_us_bucket{cell=\"posture\",le=\"5\"} 0"),
            std::string::npos);
  EXPECT_NE(prom_all.find("opcua_study_svc_query_us_bucket{cell=\"posture\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(full.find("\"posture\": {\"buckets\": {\"5\": 0, \"10\": 1, \"25\": 0"),
            std::string::npos);
  EXPECT_EQ(prom.find("le=\"10\""), std::string::npos);

  // Equal samples serialize to equal bytes — the exposition adds nothing
  // non-deterministic (no timestamps, no map iteration order).
  EXPECT_EQ(telemetry_json(sample), telemetry_json(obs::collect()));

  // Label values are escaped per the exposition format: backslash, quote
  // and newline can never break a sample line apart.
  EXPECT_EQ(prometheus_escape_label("plain-label"), "plain-label");
  EXPECT_EQ(prometheus_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  TelemetryReportOptions hostile;
  hostile.campaign_label = "week\"1\\2\n3";
  const std::string labeled = telemetry_prometheus(sample, hostile);
  EXPECT_NE(labeled.find("campaign=\"week\\\"1\\\\2\\n3\""), std::string::npos);
  EXPECT_EQ(labeled.find('\n' + std::string("3\"")), std::string::npos);  // no raw newline
  EXPECT_NE(labeled.find("opcua_study_grab_outcome{campaign=\"week\\\"1\\\\2\\n3\","
                         "cell=\"opcua/complete\"} 3"),
            std::string::npos);

  // Disabled plane: every record site is a no-op, not an error.
  obs::reset();
  obs::set_enabled(false);
  obs::add(obs::Metric::grab_outcome, 5, 0);
  obs::observe_us(obs::Metric::phase_connect_us, 500, 0);
  obs::gauge_peak(obs::Metric::scheduler_in_flight_peak, 9);
  const auto empty = obs::collect();
  EXPECT_EQ(empty[obs::Metric::grab_outcome].total(), 0u);
  EXPECT_EQ(empty[obs::Metric::phase_connect_us].hists[0].count, 0u);
  EXPECT_EQ(empty[obs::Metric::scheduler_in_flight_peak].total(), 0u);
}

}  // namespace
}  // namespace opcua_study
