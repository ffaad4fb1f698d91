// Fault-injection resilience tests: deterministic fault streams across
// engine concurrency and shard/thread layouts, fault-free byte identity,
// the recovery floor of a hostile 120-host weekly sweep, grab records of
// that sweep (alone, and with an MQTT fleet: hostile, hostile with one
// attempt per unit, fault-free) pinned to goldens under tests/data/,
// scan-quality persistence (v6 tail), the scan-quality analysis section,
// a streamed campaign whose writer hits a full disk, and crash-safe
// checkpoint/resume campaigns, including a unit that fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <typeinfo>

#include "analysis/analysis.hpp"
#include "grab_dump.hpp"
#include "obs/trace.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/checkpoint.hpp"
#include "study/sharded.hpp"
#include "study/study.hpp"
#include "util/date.hpp"

namespace opcua_study {
namespace {

constexpr std::uint64_t kFaultSeed = 909;

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Small mixed-posture population (mirrors the scan-engine test plan): 12
/// rotating postures, a discovery server, and a referenced host on 4841.
PopulationPlan fault_plan() {
  PopulationPlan plan;
  for (int i = 0; i < 12; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "faults";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:faults-" + std::to_string(i);
    host.product_uri = "http://example.org/faults";
    host.application_name = "fault host " + std::to_string(i);
    host.asn = 64600 + static_cast<std::uint32_t>(i % 3);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    switch (i % 4) {
      case 0:
        host.modes = {MessageSecurityMode::None};
        host.policies = {SecurityPolicy::None};
        host.tokens = {UserTokenType::Anonymous};
        host.outcome = PlannedOutcome::accessible;
        host.classification = PlannedClass::production;
        host.variable_count = 6;
        host.method_count = 2;
        host.writable_fraction = 0.3;
        host.executable_fraction = 0.5;
        break;
      case 1:
        host.modes = {MessageSecurityMode::None, MessageSecurityMode::Sign};
        host.policies = {SecurityPolicy::None, SecurityPolicy::Basic128Rsa15};
        host.tokens = {UserTokenType::UserName};
        host.outcome = PlannedOutcome::auth_rejected;
        break;
      case 2:
        host.modes = {MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::Basic256Sha256};
        host.certificate.key_bits = 2048;
        host.trust_all_client_certs = false;
        host.outcome = PlannedOutcome::channel_rejected;
        break;
      default:
        host.modes = {MessageSecurityMode::None};
        host.policies = {SecurityPolicy::None};
        host.tokens = {UserTokenType::Anonymous};
        host.reject_all_sessions = true;
        host.outcome = PlannedOutcome::auth_rejected;
        break;
    }
    plan.hosts.push_back(std::move(host));
  }
  HostPlan ds;
  ds.index = 12;
  ds.cohort = "faults";
  ds.discovery = true;
  ds.manufacturer = "OPC Foundation";
  ds.application_uri = "urn:opcfoundation:ua:lds:faults";
  ds.application_name = "fault lds";
  ds.asn = 64601;
  ds.certificate.present = false;
  ds.tokens = {UserTokenType::Anonymous};
  ds.modes = {MessageSecurityMode::None};
  ds.policies = {SecurityPolicy::None};
  plan.hosts.push_back(ds);

  HostPlan ref;
  ref.index = 13;
  ref.cohort = "faults";
  ref.manufacturer = "other";
  ref.application_uri = "urn:generic:opcua:faults-13";
  ref.application_name = "fault referenced host";
  ref.asn = 64602;
  ref.port = 4841;
  ref.via_reference_only = true;
  ref.certificate.present = true;
  ref.certificate.key_bits = 1024;
  ref.certificate.not_before_days = days_from_civil({2019, 3, 1});
  ref.modes = {MessageSecurityMode::None};
  ref.policies = {SecurityPolicy::None};
  ref.tokens = {UserTokenType::Anonymous};
  ref.outcome = PlannedOutcome::accessible;
  ref.classification = PlannedClass::test;
  ref.variable_count = 4;
  ref.method_count = 1;
  plan.hosts.push_back(ref);

  plan.discovery_references.emplace_back(12, 13);
  return plan;
}

Deployer make_deployer(const PopulationPlan& plan, std::uint64_t seed = 42,
                       int dummy_hosts = 30) {
  DeployConfig deploy_config;
  deploy_config.seed = seed;
  deploy_config.dummy_hosts = dummy_hosts;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  return Deployer(plan, deploy_config);
}

/// One campaign against the plan; `profile` (when enabled) is installed on
/// the Network as FaultPlan(kFaultSeed, profile).
ScanSnapshot run_campaign(const PopulationPlan& plan, std::size_t max_in_flight,
                          const FaultProfile& profile, int week = 7) {
  Network net;
  Deployer deployer = make_deployer(plan);
  deployer.deploy_week(net, week);
  if (profile.enabled()) {
    net.set_fault_plan(std::make_unique<FaultPlan>(kFaultSeed, profile));
  }

  KeyFactory keys(42, "");
  CampaignConfig config;
  config.seed = 5;
  config.max_in_flight = max_in_flight;
  config.grabber.client = make_scanner_identity(42, keys);
  Campaign campaign(config, net);
  return campaign.run(week);
}

/// A sharded campaign over the plan under the hostile fault profile.
ShardedCampaignConfig hostile_sharded_config(KeyFactory& keys, int shards, int threads) {
  ShardedCampaignConfig config;
  config.campaign.seed = 5;
  config.campaign.grabber.client = make_scanner_identity(42, keys);
  config.shards = shards;
  config.threads = threads;
  config.faults = FaultProfile::hostile();
  config.fault_seed = kFaultSeed;
  return config;
}

// ------------------------------------------------------------ determinism

TEST(FaultInjection, RecordsIdenticalAcrossInFlightWindows) {
  const PopulationPlan plan = fault_plan();
  const FaultProfile hostile = FaultProfile::hostile();
  const ScanSnapshot narrow = run_campaign(plan, 1, hostile);
  const ScanSnapshot medium = run_campaign(plan, 16, hostile);
  const ScanSnapshot wide = run_campaign(plan, 256, hostile);

  ASSERT_EQ(narrow.hosts.size(), medium.hosts.size());
  for (std::size_t i = 0; i < narrow.hosts.size(); ++i) {
    EXPECT_EQ(narrow.hosts[i], medium.hosts[i])
        << "record mismatch for " << format_ipv4(narrow.hosts[i].ip);
  }
  EXPECT_EQ(narrow, medium);
  EXPECT_EQ(narrow, wide);

  // The hostile profile actually fired: some hosts saw faults, and some
  // of those recovered through retries.
  std::uint64_t faulted = 0, retried = 0;
  for (const auto& host : narrow.hosts) {
    faulted += host.fault_events > 0;
    retried += host.retries > 0;
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(retried, 0u);
}

TEST(FaultInjection, FaultFreePlanMatchesNoPlanByteForByte) {
  const PopulationPlan plan = fault_plan();
  const ScanSnapshot bare = run_campaign(plan, 64, FaultProfile{});
  // A plan with an all-zero profile is never consulted: records identical.
  Network net;
  Deployer deployer = make_deployer(plan);
  deployer.deploy_week(net, 7);
  net.set_fault_plan(std::make_unique<FaultPlan>(kFaultSeed, FaultProfile{}));
  KeyFactory keys(42, "");
  CampaignConfig config;
  config.seed = 5;
  config.max_in_flight = 64;
  config.grabber.client = make_scanner_identity(42, keys);
  Campaign campaign(config, net);
  const ScanSnapshot with_noop_plan = campaign.run(7);
  EXPECT_EQ(bare, with_noop_plan);

  // Fault-free records carry pristine quality fields, and their snapshot
  // file is byte-identical to one written before the fault machinery
  // existed (no quality tails, no flag bit 6).
  for (const auto& host : bare.hosts) {
    EXPECT_EQ(host.completeness, ProbeOutcome::complete);
    EXPECT_EQ(host.retries, 0);
    EXPECT_EQ(host.fault_events, 0);
  }
  const std::string path_a = "/tmp/opcua_test_faultfree_a.bin";
  const std::string path_b = "/tmp/opcua_test_faultfree_b.bin";
  save_snapshots(path_a, 42, {bare});
  save_snapshots(path_b, 42, {with_noop_plan});
  EXPECT_EQ(read_file_bytes(path_a), read_file_bytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(FaultInjection, ShardedFaultedRunsDeterministicAcrossThreadsAndShards) {
  const PopulationPlan plan = fault_plan();
  KeyFactory keys(42, "");

  auto run_sharded = [&](int shards, int threads) {
    Deployer deployer = make_deployer(plan);
    return run_sharded_campaign(deployer, 7, hostile_sharded_config(keys, shards, threads));
  };

  const ScanSnapshot base = run_sharded(3, 1);
  EXPECT_EQ(base, run_sharded(3, 4));  // thread count is irrelevant
  // Fault streams are keyed by (ip, port), not by shard, so even the
  // shard layout is irrelevant to the injected sequence.
  const ScanSnapshot resharded = run_sharded(2, 2);
  ASSERT_EQ(base.hosts.size(), resharded.hosts.size());
  for (std::size_t i = 0; i < base.hosts.size(); ++i) {
    EXPECT_EQ(base.hosts[i], resharded.hosts[i]);
  }

  std::uint64_t faulted = 0;
  for (const auto& host : base.hosts) faulted += host.fault_events > 0;
  EXPECT_GT(faulted, 0u);
}

// ------------------------------------------- hostile weekly sweep ----

/// A weekly-sweep population: `hosts` OPC UA hosts in four rotating
/// postures (anonymous with a traversal, secure-channel probe, strict
/// certificate validation, rejected sessions), Bachmann on every third.
PopulationPlan sweep_plan(int hosts) {
  PopulationPlan plan;
  for (int i = 0; i < hosts; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "faults";
    host.manufacturer = i % 3 == 0 ? "Bachmann" : "other";
    host.application_uri = "urn:generic:opcua:fault-" + std::to_string(i);
    host.product_uri = "http://example.org/faults";
    host.application_name = "fault host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 6);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 1, 1});
    switch (i % 4) {
      case 0:
        host.modes = {MessageSecurityMode::None};
        host.policies = {SecurityPolicy::None};
        host.tokens = {UserTokenType::Anonymous};
        host.outcome = PlannedOutcome::accessible;
        host.classification = PlannedClass::production;
        host.variable_count = 8;
        host.method_count = 2;
        host.writable_fraction = 0.25;
        break;
      case 1:
        host.modes = {MessageSecurityMode::None, MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::None, SecurityPolicy::Basic256Sha256};
        host.tokens = {UserTokenType::UserName};
        host.outcome = PlannedOutcome::auth_rejected;
        break;
      case 2:
        host.modes = {MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::Basic256Sha256};
        host.tokens = {UserTokenType::UserName};
        host.trust_all_client_certs = false;
        host.outcome = PlannedOutcome::channel_rejected;
        break;
      default:
        host.modes = {MessageSecurityMode::None};
        host.policies = {SecurityPolicy::None};
        host.tokens = {UserTokenType::Anonymous};
        host.reject_all_sessions = true;
        host.outcome = PlannedOutcome::auth_rejected;
        break;
    }
    plan.hosts.push_back(std::move(host));
  }
  return plan;
}

constexpr std::uint64_t kSweepSeed = 20200209;

/// The weekly sweep's sharded campaign (week 7) under `faults`, seeded
/// like HostileWeeklySweepRecoversDeterministically. `protocols` empty
/// scans OPC UA only.
ScanSnapshot run_sweep(Deployer& deployer, const ClientConfig& identity, int shards,
                       int threads, const FaultProfile& faults,
                       std::vector<ProtocolTarget> protocols = {}, RetryPolicy retry = {},
                       EthicsBudget budget = {}) {
  ShardedCampaignConfig config;
  config.campaign.seed = kSweepSeed;
  config.campaign.grabber.client = identity;
  config.campaign.grabber.retry = retry;
  config.campaign.grabber.budget = budget;
  config.campaign.protocols = std::move(protocols);
  config.shards = shards;
  config.threads = threads;
  config.faults = faults;
  config.fault_seed = kSweepSeed + 7;
  return run_sharded_campaign(deployer, 7, config);
}

/// Compares the snapshot's grab lines (a header with the sweep counters,
/// then grab_dump::line per record) with tests/data/<golden>, printing
/// the expected and the actual line of every record that differs. The
/// goldens hold recorded engine output, so they pin record values
/// (bytes, durations, retries, fault counts, grades), not only the
/// invariance the other tests check.
void expect_golden_grabs(const ScanSnapshot& snapshot, const std::string& golden) {
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  std::vector<std::string> actual = {
      "week=" + std::to_string(snapshot.measurement_index) +
      " probes=" + std::to_string(snapshot.probes_sent) +
      " tcp_open=" + std::to_string(snapshot.tcp_open_count) +
      " hosts=" + std::to_string(snapshot.hosts.size())};
  for (const HostScanRecord& host : snapshot.hosts) actual.push_back(grab_dump::line(host));

  EXPECT_EQ(actual.size(), expected.size()) << "line count differs from tests/data/" << golden;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_TRUE(actual[i] == expected[i]) << "tests/data/" << golden << " line " << i + 1
                                          << "\n--- expected\n" << expected[i]
                                          << "\n--- actual\n" << actual[i];
  }
}

/// 120 hosts among 300 non-OPC UA port-4840 services under the hostile
/// profile: the default retry policy brings >= 90% of the faulted hosts
/// back to a complete record, the faults really fire, the faulted
/// snapshot does not depend on thread count or shard layout, and every
/// record matches its golden line.
TEST(FaultInjection, HostileWeeklySweepRecoversDeterministically) {
  const PopulationPlan plan = sweep_plan(120);
  Deployer deployer = make_deployer(plan, kSweepSeed, 300);
  KeyFactory keys(kSweepSeed, "");
  const ClientConfig identity = make_scanner_identity(kSweepSeed, keys);

  const FaultProfile hostile = FaultProfile::hostile();
  const ScanSnapshot faulted = run_sweep(deployer, identity, 4, 1, hostile);
  EXPECT_EQ(faulted, run_sweep(deployer, identity, 4, 4, hostile));
  EXPECT_EQ(faulted, run_sweep(deployer, identity, 2, 4, hostile));
  expect_golden_grabs(faulted, "grab.hostile_sweep_120.txt");

  // Reads 76 of 83 faulted hosts recovered, 305 fault events.
  const ScanQualityStats quality = analyze_snapshots({faulted}, {}).scan_quality;
  EXPECT_GE(quality.recovery_rate, 0.9);
  EXPECT_GE(quality.faulted, 50u);
  EXPECT_GE(quality.fault_events, 200u);

  // A disabled fault plan attached to the network is never consulted.
  auto run_single = [&](bool attach_disabled_plan) {
    Network net;
    deployer.deploy_week(net, 7);
    if (attach_disabled_plan) {
      net.set_fault_plan(std::make_unique<FaultPlan>(kSweepSeed + 7, FaultProfile{}));
    }
    CampaignConfig config;
    config.seed = kSweepSeed;
    config.max_in_flight = 256;
    config.grabber.client = identity;
    Campaign campaign(config, net);
    return campaign.run(7);
  };
  EXPECT_EQ(run_single(false), run_single(true));
}

/// The §A.2 byte cap counts every byte sent to a host since its
/// assessment began, across fault-driven reconnects. Host 20.14.0.128
/// hits a 3,000-byte cap on a clean network; under the hostile profile
/// its reconnects must not restart the count.
TEST(FaultInjection, ByteCapSpansReconnects) {
  const PopulationPlan plan = sweep_plan(120);
  Deployer deployer = make_deployer(plan, kSweepSeed, 300);
  KeyFactory keys(kSweepSeed, "");
  const ClientConfig identity = make_scanner_identity(kSweepSeed, keys);
  EthicsBudget capped;
  capped.max_host_bytes = 3000;
  const Ipv4 probe_ip = make_ipv4(20, 14, 0, 128);
  for (const FaultProfile& faults : {FaultProfile{}, FaultProfile::hostile()}) {
    const ScanSnapshot sweep = run_sweep(deployer, identity, 4, 2, faults, {}, {}, capped);
    const auto host = std::find_if(sweep.hosts.begin(), sweep.hosts.end(),
                                   [&](const HostScanRecord& h) { return h.ip == probe_ip; });
    ASSERT_NE(host, sweep.hosts.end());
    SCOPED_TRACE("retries=" + std::to_string(host->retries) +
                 " bytes=" + std::to_string(host->bytes_sent) +
                 " nodes=" + std::to_string(host->nodes.size()));
    EXPECT_TRUE(host->traversal_truncated);
  }
}

/// The same sweep with 60 MQTT-over-TLS brokers next to it, hostile,
/// hostile with one attempt per unit, and fault-free: the goldens pin
/// both backends' records, including the MQTT fault path (retries,
/// banked bytes and fault counts, grades).
TEST(FaultInjection, MixedFleetGrabsMatchGoldens) {
  PopulationPlan plan = sweep_plan(120);
  add_mqtt_population(plan, 99, 60);
  Deployer deployer = make_deployer(plan, kSweepSeed, 300);
  KeyFactory keys(kSweepSeed, "");
  const ClientConfig identity = make_scanner_identity(kSweepSeed, keys);
  const std::vector<ProtocolTarget> mix = {
      ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort},
      ProtocolTarget{ProtocolId::mqtt_tls, kMqttTlsDefaultPort}};

  const ScanSnapshot hostile =
      run_sweep(deployer, identity, 4, 2, FaultProfile::hostile(), mix);
  std::size_t brokers = 0, broker_retried = 0;
  for (const auto& host : hostile.hosts) {
    if (host.protocol != ProtocolId::mqtt_tls) continue;
    ++brokers;
    broker_retried += host.retries > 0;
  }
  EXPECT_GT(brokers, 0u);
  EXPECT_GT(broker_retried, 0u);  // the MQTT fault path really ran
  expect_golden_grabs(hostile, "grab.mixed_hostile.txt");

  // With one attempt per unit every fault ends the grab where it struck,
  // so give_up() grades brokers past the hello too.
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  const ScanSnapshot graded =
      run_sweep(deployer, identity, 4, 2, FaultProfile::hostile(), mix, no_retry);
  std::set<ProbeOutcome> broker_grades;
  for (const auto& host : graded.hosts) {
    if (host.protocol == ProtocolId::mqtt_tls) broker_grades.insert(host.completeness);
  }
  EXPECT_TRUE(broker_grades.contains(ProbeOutcome::degraded));   // gave up at CONNECT
  EXPECT_TRUE(broker_grades.contains(ProbeOutcome::truncated));  // gave up at the $SYS read
  expect_golden_grabs(graded, "grab.mixed_hostile_no_retry.txt");

  expect_golden_grabs(run_sweep(deployer, identity, 4, 2, FaultProfile{}, mix),
                      "grab.mixed_clean.txt");
}

// ------------------------------------------------- quality persistence ----

HostScanRecord quality_record(std::uint32_t ip_octet, ProbeOutcome grade,
                              std::uint16_t retries, std::uint16_t faults) {
  HostScanRecord host;
  host.ip = make_ipv4(10, 1, 2, ip_octet);
  host.port = 4840;
  host.asn = 64500;
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:test:quality:" + std::to_string(ip_octet);
  host.completeness = grade;
  host.retries = retries;
  host.fault_events = faults;
  host.bytes_sent = 1234;
  host.duration_seconds = 1.5;
  return host;
}

TEST(FaultInjection, QualityFieldsRoundTripThroughV6) {
  ScanSnapshot snapshot;
  snapshot.measurement_index = 0;
  snapshot.date_days = days_from_civil({2020, 8, 30});
  snapshot.probes_sent = 100;
  snapshot.tcp_open_count = 4;
  snapshot.hosts.push_back(quality_record(1, ProbeOutcome::complete, 0, 0));
  snapshot.hosts.push_back(quality_record(2, ProbeOutcome::complete, 2, 3));  // recovered
  snapshot.hosts.push_back(quality_record(3, ProbeOutcome::truncated, 16, 7));
  snapshot.hosts.push_back(quality_record(4, ProbeOutcome::degraded, 4, 2));

  const std::string path = "/tmp/opcua_test_quality_tail.bin";
  save_snapshots(path, 42, {snapshot});
  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->front(), snapshot);

  // The scan-quality section sees the same numbers through both the row
  // decoder and the columnar fast path (analyze_file uses the latter).
  const StudyAnalysis from_file = analyze_file(path, 42, {});
  const StudyAnalysis from_memory = analyze_snapshots({snapshot}, {});
  EXPECT_TRUE(from_file.figures_equal(from_memory));
  EXPECT_EQ(from_file.scan_quality.hosts, 4u);
  EXPECT_EQ(from_file.scan_quality.complete, 2u);
  EXPECT_EQ(from_file.scan_quality.truncated, 1u);
  EXPECT_EQ(from_file.scan_quality.degraded, 1u);
  EXPECT_EQ(from_file.scan_quality.faulted, 3u);
  EXPECT_EQ(from_file.scan_quality.recovered, 1u);
  EXPECT_EQ(from_file.scan_quality.retries, 22u);
  EXPECT_EQ(from_file.scan_quality.fault_events, 12u);
  EXPECT_NEAR(from_file.scan_quality.recovery_rate, 1.0 / 3.0, 1e-12);
  std::remove(path.c_str());
}

TEST(FaultInjection, FaultFreeAnalysisReportsTrivialQuality) {
  ScanSnapshot snapshot;
  snapshot.measurement_index = 0;
  snapshot.date_days = days_from_civil({2020, 8, 30});
  snapshot.hosts.push_back(quality_record(1, ProbeOutcome::complete, 0, 0));
  const StudyAnalysis analysis = analyze_snapshots({snapshot}, {});
  EXPECT_EQ(analysis.scan_quality.faulted, 0u);
  EXPECT_EQ(analysis.scan_quality.complete, 1u);
  EXPECT_EQ(analysis.scan_quality.recovery_rate, 1.0);
}

TEST(FaultInjection, FullDiskStopsStreamedCampaign) {
  // A hostile sharded campaign streamed into a writer on a full disk
  // (one record per chunk, so the first sealed chunk fails). The failure
  // must reach the caller as SnapshotError at any thread count: with two
  // workers it is thrown while another shard may still be scanning.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const PopulationPlan plan = fault_plan();
  KeyFactory keys(42, "");
  const std::string path = "/tmp/opcua_test_full_disk_streamed.bin";
  for (const int threads : {1, 2}) {
    std::filesystem::remove(path + ".tmp");
    std::filesystem::create_symlink("/dev/full", path + ".tmp");
    Deployer deployer = make_deployer(plan);
    const ShardedCampaignConfig config = hostile_sharded_config(keys, 2, threads);
    SnapshotWriter writer(path, 42, /*chunk_records=*/1);
    EXPECT_THROW(run_sharded_campaign_streamed(deployer, 7, config, writer), SnapshotError)
        << threads << " thread(s)";
  }
  std::filesystem::remove(path + ".tmp");
}

// --------------------------------------------------- checkpoint / resume ----

/// Weeks 6-7 of the hostile campaign, two shards on two threads.
CheckpointConfig hostile_checkpoint_config(KeyFactory& keys) {
  CheckpointConfig config;
  config.campaign = hostile_sharded_config(keys, 2, 2);
  config.first_week = 6;
  config.weeks = 2;
  config.snapshot_seed = 42;
  config.chunk_records = 3;  // force chunk boundaries inside each shard batch
  return config;
}

/// The reference a checkpointed study must reproduce: the same campaign
/// written by the plain streamed runner.
void stream_directly(const PopulationPlan& plan, const CheckpointConfig& config,
                     const std::string& path) {
  Deployer deployer = make_deployer(plan);
  SnapshotWriter writer(path, 42, config.chunk_records);
  for (int week = config.first_week; week < config.first_week + config.weeks; ++week) {
    run_sharded_campaign_streamed(deployer, week, config.campaign, writer);
  }
  writer.finish();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

TEST(FaultInjection, KilledCampaignResumesToByteIdenticalSnapshot) {
  const PopulationPlan plan = fault_plan();
  KeyFactory keys(42, "");
  CheckpointConfig config = hostile_checkpoint_config(keys);

  const std::string direct_path = "/tmp/opcua_test_ckpt_direct.bin";
  stream_directly(plan, config, direct_path);

  // Uninterrupted checkpointed run.
  const std::string full_path = "/tmp/opcua_test_ckpt_full.bin";
  config.dir = "/tmp/opcua_test_ckpt_full_dir";
  std::filesystem::remove_all(config.dir);
  {
    Deployer deployer = make_deployer(plan);
    EXPECT_TRUE(run_checkpointed_study(deployer, config, full_path));
  }

  // "Killed" run: stop after a single sealed unit, then resume twice (the
  // second resume starts from a partially filled manifest).
  const std::string resumed_path = "/tmp/opcua_test_ckpt_resumed.bin";
  config.dir = "/tmp/opcua_test_ckpt_resumed_dir";
  std::filesystem::remove_all(config.dir);
  {
    Deployer deployer = make_deployer(plan);
    CheckpointConfig partial = config;
    partial.stop_after_units = 1;
    EXPECT_FALSE(run_checkpointed_study(deployer, partial, resumed_path));
    EXPECT_FALSE(std::filesystem::exists(resumed_path));
  }
  {
    Deployer deployer = make_deployer(plan);
    CheckpointConfig partial = config;
    partial.stop_after_units = 2;
    EXPECT_FALSE(run_checkpointed_study(deployer, partial, resumed_path));
  }
  {
    Deployer deployer = make_deployer(plan);
    EXPECT_TRUE(run_checkpointed_study(deployer, config, resumed_path));
  }

  const Bytes direct = read_file_bytes(direct_path);
  EXPECT_EQ(read_file_bytes(full_path), direct);
  EXPECT_EQ(read_file_bytes(resumed_path), direct);

  // The assembled file carries the scan-quality evidence of the faults.
  const StudyAnalysis analysis = analyze_file(resumed_path, 42, {});
  EXPECT_GT(analysis.scan_quality.faulted, 0u);
  EXPECT_EQ(analysis.scan_quality.weeks.size(), 2u);

  std::filesystem::remove_all("/tmp/opcua_test_ckpt_full_dir");
  std::filesystem::remove_all("/tmp/opcua_test_ckpt_resumed_dir");
  std::remove(direct_path.c_str());
  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(FaultInjection, FailedCheckpointUnitSurfacesAndResumes) {
  const PopulationPlan plan = fault_plan();
  KeyFactory keys(42, "");
  CheckpointConfig config = hostile_checkpoint_config(keys);
  config.dir = "/tmp/opcua_test_ckpt_failed_dir";
  std::filesystem::remove_all(config.dir);
  // A directory squatting on the temp path of unit (6, 1)'s segment makes
  // sealing that unit fail.
  const std::string blocker = checkpoint_segment_path(config.dir, 6, 1) + ".tmp";
  std::filesystem::create_directories(blocker);

  const std::string out = "/tmp/opcua_test_ckpt_failed.bin";
  std::remove(out.c_str());
  obs::trace_reset();
  obs::set_trace_enabled(true);
  {
    Deployer deployer = make_deployer(plan);
    try {
      run_checkpointed_study(deployer, config, out);
      ADD_FAILURE() << "the study returned although unit (6, 1) could not be sealed";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(typeid(e), typeid(SnapshotError)) << "the unit's exception was re-wrapped";
    }
  }
  obs::set_trace_enabled(false);

  // The failed unit is not marked done, the study stopped at its week, the
  // flight recorder was dumped, and no final file was assembled.
  const std::string manifest = read_text(checkpoint_manifest_path(config.dir));
  EXPECT_EQ(manifest.find("done 6 1"), std::string::npos);
  EXPECT_EQ(manifest.find("done 7 "), std::string::npos);
  const std::string crash_dump = read_text(config.dir + "/flight_recorder.crash.jsonl");
  EXPECT_NE(crash_dump.find("\"event\":\"unit_failed\""), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(out));

  // With the obstacle gone, a resume completes to the uninterrupted bytes.
  std::filesystem::remove_all(blocker);
  {
    Deployer deployer = make_deployer(plan);
    EXPECT_TRUE(run_checkpointed_study(deployer, config, out));
  }
  const std::string direct_path = "/tmp/opcua_test_ckpt_failed_direct.bin";
  stream_directly(plan, config, direct_path);
  EXPECT_EQ(read_file_bytes(out), read_file_bytes(direct_path));

  obs::trace_reset();
  std::filesystem::remove_all(config.dir);
  std::remove(out.c_str());
  std::remove(direct_path.c_str());
}

TEST(FaultInjection, CheckpointManifestRejectsIncompatibleResume) {
  const PopulationPlan plan = fault_plan();
  KeyFactory keys(42, "");

  CheckpointConfig config;
  config.campaign.campaign.seed = 5;
  config.campaign.campaign.grabber.client = make_scanner_identity(42, keys);
  config.campaign.shards = 2;
  config.first_week = 7;
  config.weeks = 1;
  config.snapshot_seed = 42;
  config.dir = "/tmp/opcua_test_ckpt_mismatch_dir";
  std::filesystem::remove_all(config.dir);

  const std::string out = "/tmp/opcua_test_ckpt_mismatch.bin";
  {
    Deployer deployer = make_deployer(plan);
    CheckpointConfig partial = config;
    partial.stop_after_units = 1;
    EXPECT_FALSE(run_checkpointed_study(deployer, partial, out));
  }
  {
    Deployer deployer = make_deployer(plan);
    CheckpointConfig different = config;
    different.campaign.faults = FaultProfile::hostile();  // changes the identity header
    EXPECT_THROW(run_checkpointed_study(deployer, different, out), SnapshotError);
  }
  std::filesystem::remove_all(config.dir);
  std::remove(out.c_str());
}

}  // namespace
}  // namespace opcua_study
