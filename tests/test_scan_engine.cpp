// Concurrent scan engine tests: the event scheduler primitives, the
// equivalence of interleaved and sequential campaigns (same hosts, same
// per-host records), determinism across runs, the simulated-window
// compression of an interleaved weekly sweep, and the sharded runner.
#include <gtest/gtest.h>

#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/host_task.hpp"
#include "scanner/scheduler.hpp"
#include "study/sharded.hpp"
#include "study/study.hpp"

namespace opcua_study {
namespace {

// ------------------------------------------------------------ EventScheduler

TEST(EventScheduler, RunsEventsInTimeOrder) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(sched.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now_us(), 300u);
}

TEST(EventScheduler, SimultaneousEventsRunFifo) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, EventsMayScheduleMoreEvents) {
  SimClock clock;
  EventScheduler sched(clock);
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) sched.schedule_in(1000, chain);
  };
  sched.schedule_in(1000, chain);
  EXPECT_EQ(sched.run_until_idle(), 4u);
  EXPECT_EQ(clock.now_us(), 4000u);
}

TEST(EventScheduler, PastEventsClampToNow) {
  SimClock clock;
  clock.advance_us(500);
  EventScheduler sched(clock);
  sched.schedule_at(100, [] {});
  EXPECT_TRUE(sched.run_next());
  EXPECT_EQ(clock.now_us(), 500u);  // never goes backwards
}

TEST(SimClock, AdvanceToIsMonotonic) {
  SimClock clock;
  clock.advance_to(1000);
  EXPECT_EQ(clock.now_us(), 1000u);
  clock.advance_to(400);
  EXPECT_EQ(clock.now_us(), 1000u);
}

// ----------------------------------------------------- deferred connections

TEST(Netsim, DeferredConnectionChargesLocally) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 9, 9, 9);
  net.listen(ip, 80, [] { return std::make_unique<DummyBannerService>("srv"); });
  auto conn = net.connect(ip, 80);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(net.clock().now_us(), 0u);  // global clock untouched
  const Bytes reply = conn->roundtrip(to_bytes("GET /"));
  EXPECT_FALSE(reply.empty());
  EXPECT_EQ(net.clock().now_us(), 0u);
  // Handshake RTT + request RTT + transfer time were banked on the conn.
  const std::uint64_t elapsed = conn->take_elapsed();
  EXPECT_GE(elapsed, 2 * net.rtt_us(ip));
  EXPECT_EQ(conn->take_elapsed(), 0u);  // take drains
}

TEST(Netsim, DeferredRefusalChargesNothing) {
  Network net;
  EXPECT_EQ(net.connect(make_ipv4(10, 9, 9, 10), 80), nullptr);
  EXPECT_EQ(net.clock().now_us(), 0u);
}

// --------------------------------------------------------- engine equality

PopulationPlan engine_plan() {
  PopulationPlan plan;
  for (int i = 0; i < 12; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "engine";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:engine-" + std::to_string(i);
    host.product_uri = "http://example.org/engine";
    host.application_name = "engine host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 3);
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
  // A discovery server (12) referencing host 13 on a non-default port.
  HostPlan ds;
  ds.index = 12;
  ds.cohort = "engine";
  ds.discovery = true;
  ds.manufacturer = "OPC Foundation";
  ds.application_uri = "urn:opcfoundation:ua:lds:engine";
  ds.application_name = "engine lds";
  ds.asn = 64504;
  ds.certificate.present = false;
  ds.tokens = {UserTokenType::Anonymous};
  ds.modes = {MessageSecurityMode::None};
  ds.policies = {SecurityPolicy::None};
  plan.hosts.push_back(ds);

  HostPlan ref;
  ref.index = 13;
  ref.cohort = "engine";
  ref.manufacturer = "other";
  ref.application_uri = "urn:generic:opcua:engine-13";
  ref.application_name = "engine referenced host";
  ref.asn = 64505;
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

ScanSnapshot run_engine_campaign(const PopulationPlan& plan, std::size_t max_in_flight,
                                 int week = 7) {
  Network net;
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 30;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  deployer.deploy_week(net, week);

  KeyFactory keys(42, "");
  CampaignConfig config;
  config.seed = 5;
  config.max_in_flight = max_in_flight;
  config.grabber.client = make_scanner_identity(42, keys);
  Campaign campaign(config, net);
  return campaign.run(week);
}

/// The acceptance property: an interleaved campaign produces the same
/// snapshot — same hosts, same per-host records, field by field — as the
/// lock-step sequential engine.
TEST(ScanEngine, ConcurrentCampaignEqualsSequential) {
  const PopulationPlan plan = engine_plan();
  const ScanSnapshot sequential = run_engine_campaign(plan, 1);
  const ScanSnapshot concurrent = run_engine_campaign(plan, 64);

  ASSERT_EQ(sequential.hosts.size(), concurrent.hosts.size());
  for (std::size_t i = 0; i < sequential.hosts.size(); ++i) {
    EXPECT_EQ(sequential.hosts[i], concurrent.hosts[i])
        << "record mismatch for " << format_ipv4(sequential.hosts[i].ip);
  }
  EXPECT_EQ(sequential, concurrent);
}

TEST(ScanEngine, WideInterleavingStillEqual) {
  const PopulationPlan plan = engine_plan();
  EXPECT_EQ(run_engine_campaign(plan, 2), run_engine_campaign(plan, 256));
}

/// Satellite: two runs of the same campaign seed with max_in_flight 1 and
/// 256 produce identical sorted host sets (and, stronger, identical
/// snapshots run-to-run).
TEST(ScanEngine, DeterminismRegression) {
  const PopulationPlan plan = engine_plan();
  const ScanSnapshot narrow = run_engine_campaign(plan, 1);
  const ScanSnapshot wide = run_engine_campaign(plan, 256);

  auto sorted_hosts = [](const ScanSnapshot& snapshot) {
    std::vector<std::pair<Ipv4, std::uint16_t>> hosts;
    for (const auto& record : snapshot.hosts) hosts.emplace_back(record.ip, record.port);
    std::sort(hosts.begin(), hosts.end());
    return hosts;
  };
  EXPECT_EQ(sorted_hosts(narrow), sorted_hosts(wide));

  // Re-running the exact same configuration is bit-identical.
  EXPECT_EQ(run_engine_campaign(plan, 256), wide);
}

/// A synthetic weekly sweep: `hosts` OPC UA hosts in four rotating
/// postures (Bachmann on every third), one discovery server per 16 hosts
/// referencing an off-port host, and half as many MQTT-over-TLS brokers
/// on port 8883.
PopulationPlan sweep_plan(int hosts, std::uint64_t seed) {
  PopulationPlan plan;
  for (int i = 0; i < hosts; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "throughput";
    host.manufacturer = i % 3 == 0 ? "Bachmann" : "other";
    host.application_uri = "urn:generic:opcua:tp-" + std::to_string(i);
    host.product_uri = "http://example.org/throughput";
    host.application_name = "throughput host " + std::to_string(i);
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
  for (int d = 0; d < hosts / 16; ++d) {
    HostPlan ds;
    ds.index = hosts + 2 * d;
    ds.cohort = "throughput";
    ds.discovery = true;
    ds.manufacturer = "OPC Foundation";
    ds.application_uri = "urn:opcfoundation:ua:lds:tp-" + std::to_string(d);
    ds.application_name = "throughput lds " + std::to_string(d);
    ds.asn = 64509;
    ds.certificate.present = false;
    ds.modes = {MessageSecurityMode::None};
    ds.policies = {SecurityPolicy::None};
    ds.tokens = {UserTokenType::Anonymous};
    plan.hosts.push_back(ds);

    HostPlan ref;
    ref.index = hosts + 2 * d + 1;
    ref.cohort = "throughput";
    ref.manufacturer = "other";
    ref.application_uri = "urn:generic:opcua:tp-ref-" + std::to_string(d);
    ref.application_name = "referenced host " + std::to_string(d);
    ref.asn = 64510;
    ref.port = 4841;
    ref.via_reference_only = true;
    ref.certificate.present = true;
    ref.certificate.key_bits = 1024;
    ref.certificate.not_before_days = days_from_civil({2019, 1, 1});
    ref.modes = {MessageSecurityMode::None};
    ref.policies = {SecurityPolicy::None};
    ref.tokens = {UserTokenType::Anonymous};
    ref.outcome = PlannedOutcome::accessible;
    ref.classification = PlannedClass::test;
    ref.variable_count = 4;
    ref.method_count = 1;
    plan.hosts.push_back(ref);
    plan.discovery_references.emplace_back(hosts + 2 * d, hosts + 2 * d + 1);
  }
  add_mqtt_population(plan, seed, hosts / 2);
  return plan;
}

/// Simulated campaign time of one week-7 sweep; the deployment and the
/// scanner identity draw from `seed`.
std::uint64_t simulated_us(const PopulationPlan& plan, std::uint64_t seed,
                           std::uint64_t campaign_seed, int dummy_hosts,
                           std::size_t max_in_flight) {
  Network net;
  DeployConfig deploy_config;
  deploy_config.seed = seed;
  deploy_config.dummy_hosts = dummy_hosts;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  deployer.deploy_week(net, 7);
  KeyFactory keys(seed, "");
  CampaignConfig config;
  config.seed = campaign_seed;
  config.max_in_flight = max_in_flight;
  config.grabber.client = make_scanner_identity(seed, keys);
  Campaign campaign(config, net);
  campaign.run(7);
  return net.clock().now_us();
}

TEST(ScanEngine, ConcurrentCampaignCompressesSimulatedTime) {
  // With every host in flight at once, the campaign's simulated wall-clock
  // collapses from the sum of per-host times towards the slowest host (plus
  // the reference-following wave, which only starts once phase 2 drains).
  const PopulationPlan plan = engine_plan();
  EXPECT_LT(simulated_us(plan, 42, 5, 0, 256) * 2, simulated_us(plan, 42, 5, 0, 1));

  // A 48-host weekly sweep among 200 non-OPC UA port-4840 services
  // compresses 9.3x; the bound is 4x.
  constexpr std::uint64_t kSeed = 20200209;
  const PopulationPlan sweep = sweep_plan(48, kSeed);
  const std::uint64_t lock_step = simulated_us(sweep, kSeed, kSeed, 200, 1);
  const std::uint64_t interleaved = simulated_us(sweep, kSeed, kSeed, 200, 256);
  EXPECT_GE(lock_step, 4 * interleaved)
      << "compression " << static_cast<double>(lock_step) / static_cast<double>(interleaved);
}

// ------------------------------------------------------------ sharded runs

TEST(ShardedStudy, MergedShardsMatchSingleNetworkCampaign) {
  const PopulationPlan plan = engine_plan();
  const ScanSnapshot reference = run_engine_campaign(plan, 256);

  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 30;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  KeyFactory keys(42, "");
  ShardedCampaignConfig config;
  config.campaign.seed = 5;
  config.campaign.grabber.client = make_scanner_identity(42, keys);
  config.shards = 3;
  config.threads = 2;
  const ScanSnapshot merged = run_sharded_campaign(deployer, 7, config);

  auto key_of = [](const HostScanRecord& r) { return std::make_pair(r.ip, r.port); };
  std::vector<HostScanRecord> expected = reference.hosts;
  std::sort(expected.begin(), expected.end(),
            [&](const auto& a, const auto& b) { return key_of(a) < key_of(b); });
  ASSERT_EQ(merged.hosts.size(), expected.size());
  for (std::size_t i = 0; i < merged.hosts.size(); ++i) {
    EXPECT_EQ(key_of(merged.hosts[i]), key_of(expected[i]));
    EXPECT_EQ(merged.hosts[i].session, expected[i].session);
    EXPECT_EQ(merged.hosts[i].endpoints, expected[i].endpoints);
    EXPECT_EQ(merged.hosts[i].nodes, expected[i].nodes);
  }
  EXPECT_EQ(merged.measurement_index, reference.measurement_index);
  EXPECT_EQ(merged.probes_sent, reference.probes_sent);
  EXPECT_EQ(merged.tcp_open_count, reference.tcp_open_count);
}

TEST(ShardedStudy, ShardingIsDeterministic) {
  const PopulationPlan plan = engine_plan();
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 10;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  KeyFactory keys(42, "");

  auto run_once = [&] {
    Deployer deployer(plan, deploy_config);
    ShardedCampaignConfig config;
    config.campaign.seed = 5;
    config.campaign.grabber.client = make_scanner_identity(42, keys);
    config.shards = 4;
    config.threads = 4;
    return run_sharded_campaign(deployer, 7, config);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace opcua_study
