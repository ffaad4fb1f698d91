// Campaign-level behaviour: endpoint-URL parsing (port-range hardening),
// exclusion-prefix filtering, reference-following dedup, the paper's
// calendar gate (references only followed from measurement 3 onwards), and
// a hostile server reply that must not reach the written snapshot.
#include <gtest/gtest.h>

#include <cstdio>

#include "netsim/opcua_service.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/protocol.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/study.hpp"

namespace opcua_study {
namespace {

// ------------------------------------------------------- parse_endpoint_url

TEST(ParseEndpointUrl, AcceptsIpAndPort) {
  const auto parsed = parse_endpoint_url("opc.tcp://10.1.2.3:4841/server");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, ProtocolId::opcua);
  EXPECT_EQ(parsed->ip, make_ipv4(10, 1, 2, 3));
  EXPECT_EQ(parsed->port, 4841);
}

TEST(ParseEndpointUrl, DefaultsToPort4840) {
  const auto parsed = parse_endpoint_url("opc.tcp://10.1.2.3/");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->port, kOpcUaDefaultPort);
}

TEST(ParseEndpointUrl, RejectsOutOfRangePorts) {
  // Regression: std::stoi happily parsed these and the uint16_t cast
  // silently truncated (99999 -> 34463).
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:99999/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:65536/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:-5/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:0/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:99999999999999/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:x/").has_value());
  // Digits only: no trailing text and no sign.
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:4841junk/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:+4841/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4:/").has_value());
  EXPECT_TRUE(parse_endpoint_url("opc.tcp://1.2.3.4:65535/").has_value());
  EXPECT_TRUE(parse_endpoint_url("opc.tcp://1.2.3.4:1/").has_value());
}

TEST(ParseEndpointUrl, RejectsHostnamesAndForeignSchemes) {
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://device.local:4840/").has_value());
  // A hostname that starts with a dotted quad is still a hostname.
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://10.1.2.3.nip.io:4840/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4.example.com/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://10.0.0.1evil:4840/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://1.2.3.4294967297:4840/").has_value());
  EXPECT_FALSE(parse_endpoint_url("http://1.2.3.4:4840/").has_value());
  EXPECT_FALSE(parse_endpoint_url("").has_value());
}

// ---------------------------------------------------------------- fixtures

HostPlan simple_host(int index, std::uint32_t asn) {
  HostPlan host;
  host.index = index;
  host.cohort = "campaign";
  host.manufacturer = "other";
  host.application_uri = "urn:generic:opcua:camp-" + std::to_string(index);
  host.product_uri = "http://example.org/campaign";
  host.application_name = "campaign host " + std::to_string(index);
  host.asn = asn;
  host.modes = {MessageSecurityMode::None};
  host.policies = {SecurityPolicy::None};
  host.tokens = {UserTokenType::Anonymous};
  host.certificate.present = true;
  host.certificate.key_bits = 1024;
  host.certificate.not_before_days = days_from_civil({2019, 6, 1});
  host.outcome = PlannedOutcome::accessible;
  host.classification = PlannedClass::production;
  host.variable_count = 2;
  host.method_count = 1;
  return host;
}

struct CampaignRun {
  Network net;
  ScanSnapshot snapshot;

  CampaignRun(const PopulationPlan& plan, int week, std::vector<Cidr> exclusions = {}) {
    DeployConfig deploy_config;
    deploy_config.seed = 31;
    deploy_config.dummy_hosts = 0;
    deploy_config.fast_keys = true;
    deploy_config.key_cache_path = "";
    Deployer deployer(plan, deploy_config);
    deployer.deploy_week(net, week);

    KeyFactory keys(31, "");
    CampaignConfig config;
    config.seed = 13;
    config.exclusions = std::move(exclusions);
    config.grabber.client = make_scanner_identity(31, keys);
    config.grabber.traverse_address_space = false;  // keep these runs fast
    Campaign campaign(config, net);
    snapshot = campaign.run(week);
  }

  int count(const std::string& uri_suffix) const {
    int n = 0;
    for (const auto& host : snapshot.hosts) {
      if (host.application_uri.ends_with(uri_suffix)) ++n;
    }
    return n;
  }
};

// ------------------------------------------------------- exclusion filtering

TEST(Campaign, ExclusionPrefixesAreNeverProbed) {
  PopulationPlan plan;
  plan.hosts.push_back(simple_host(0, 64503));
  plan.hosts.push_back(simple_host(1, 64503));
  plan.hosts.push_back(simple_host(2, 64504));

  DeployConfig deploy_config;
  deploy_config.seed = 31;
  deploy_config.dummy_hosts = 0;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer probe_deployer(plan, deploy_config);
  // Exclude host 1 exactly, and host 2's whole AS block.
  const std::vector<Cidr> exclusions = {
      Cidr{probe_deployer.ip_of(plan.hosts[1], 7), 32},
      Cidr{probe_deployer.ip_of(plan.hosts[2], 7) & 0xffff0000u, 16},
  };

  CampaignRun run(plan, 7, exclusions);
  EXPECT_EQ(run.snapshot.hosts.size(), 1u);
  EXPECT_EQ(run.count("camp-0"), 1);
  EXPECT_EQ(run.count("camp-1"), 0);
  EXPECT_EQ(run.count("camp-2"), 0);
  // Excluded addresses are filtered before probing, not after.
  EXPECT_EQ(run.snapshot.probes_sent, 1u);
}

TEST(Campaign, ExclusionAppliesToReferencedTargetsToo) {
  PopulationPlan plan;
  HostPlan ds = simple_host(0, 64503);
  ds.discovery = true;
  ds.application_uri = "urn:opcfoundation:ua:lds:camp";
  ds.certificate.present = false;
  plan.hosts.push_back(ds);
  HostPlan target = simple_host(1, 64504);
  target.port = 4842;
  target.via_reference_only = true;
  plan.hosts.push_back(target);
  plan.discovery_references.emplace_back(0, 1);

  DeployConfig deploy_config;
  deploy_config.seed = 31;
  deploy_config.dummy_hosts = 0;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer probe_deployer(plan, deploy_config);
  const std::vector<Cidr> exclusions = {Cidr{probe_deployer.ip_of(plan.hosts[1], 7), 32}};

  CampaignRun run(plan, 7, exclusions);
  // The discovery server is found; the referenced-but-opted-out host is not.
  EXPECT_EQ(run.count("lds:camp"), 1);
  EXPECT_EQ(run.count("camp-1"), 0);
}

// ------------------------------------------------------------------- dedup

TEST(Campaign, SameTargetReferencedTwiceIsGrabbedOnce) {
  PopulationPlan plan;
  for (int i = 0; i < 2; ++i) {
    HostPlan ds = simple_host(i, 64503 + static_cast<std::uint32_t>(i));
    ds.discovery = true;
    ds.application_uri = "urn:opcfoundation:ua:lds:camp-" + std::to_string(i);
    ds.certificate.present = false;
    plan.hosts.push_back(ds);
  }
  HostPlan target = simple_host(2, 64505);
  target.port = 4843;
  target.via_reference_only = true;
  plan.hosts.push_back(target);
  // Both discovery servers announce the same target.
  plan.discovery_references.emplace_back(0, 2);
  plan.discovery_references.emplace_back(1, 2);

  CampaignRun run(plan, 7);
  EXPECT_EQ(run.count("camp-2"), 1);
  EXPECT_EQ(run.snapshot.hosts.size(), 3u);
  int via_reference = 0;
  for (const auto& host : run.snapshot.hosts) via_reference += host.found_via_reference;
  EXPECT_EQ(via_reference, 1);
}

TEST(Campaign, SelfReferencesAreNotFollowedTwice) {
  // A host referenced by a discovery server that was *also* found by the
  // sweep is only grabbed in phase 2 (the `scanned` set dedups it).
  PopulationPlan plan;
  HostPlan ds = simple_host(0, 64503);
  ds.discovery = true;
  ds.application_uri = "urn:opcfoundation:ua:lds:camp";
  ds.certificate.present = false;
  plan.hosts.push_back(ds);
  HostPlan target = simple_host(1, 64504);  // default port: found by sweep
  plan.hosts.push_back(target);
  plan.discovery_references.emplace_back(0, 1);

  CampaignRun run(plan, 7);
  EXPECT_EQ(run.count("camp-1"), 1);
  for (const auto& host : run.snapshot.hosts) {
    EXPECT_FALSE(host.found_via_reference) << host.application_uri;
  }
}

// ----------------------------------------------------------- calendar gate

TEST(Campaign, ReferencesOnlyFollowedFromMeasurementThree) {
  PopulationPlan plan;
  HostPlan ds = simple_host(0, 64503);
  ds.discovery = true;
  ds.application_uri = "urn:opcfoundation:ua:lds:camp";
  ds.certificate.present = false;
  plan.hosts.push_back(ds);
  HostPlan target = simple_host(1, 64504);
  target.port = 4844;
  target.via_reference_only = true;
  plan.hosts.push_back(target);
  plan.discovery_references.emplace_back(0, 1);

  // 2020-04-19 (index 2): references recorded but not followed.
  CampaignRun before_gate(plan, 2);
  EXPECT_EQ(before_gate.count("camp-1"), 0);
  EXPECT_EQ(before_gate.count("lds:camp"), 1);

  // 2020-05-04 (index 3): the paper switched reference-following on.
  CampaignRun after_gate(plan, 3);
  EXPECT_EQ(after_gate.count("camp-1"), 1);
}

// ---------------------------------------------------------- hostile replies

TEST(Campaign, UndefinedApplicationTypeNeverReachesTheSnapshot) {
  // A server advertising application type 7, which no OPC UA application
  // has: its GetEndpoints reply fails to decode, so the grab drops the host
  // like any other undecodable server, and the written snapshot loads.
  ServerConfig server;
  server.identity.application_uri = "urn:hostile";
  server.identity.application_type = static_cast<ApplicationType>(7);
  EndpointConfig ep;
  ep.url = "opc.tcp://10.7.0.1:4840/";
  ep.certificate_index = -1;
  server.endpoints.push_back(ep);
  Network net;
  net.listen(make_ipv4(10, 7, 0, 1), kOpcUaDefaultPort,
             make_opcua_factory(std::make_shared<Server>(std::move(server), 1)));

  KeyFactory keys(31, "");
  CampaignConfig config;
  config.grabber.client = make_scanner_identity(31, keys);
  config.grabber.traverse_address_space = false;
  Campaign campaign(config, net);
  const ScanSnapshot snapshot = campaign.run(7);
  EXPECT_EQ(snapshot.tcp_open_count, 1u);
  EXPECT_TRUE(snapshot.hosts.empty());

  const std::string path = "/tmp/opcua_test_campaign_app_type7.bin";
  save_snapshots(path, 31, {snapshot});
  std::string error;
  const auto loaded = load_snapshots(path, 31, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->front().hosts.size(), snapshot.hosts.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opcua_study
