// End-to-end pipeline tests on a small hand-built population: deploy real
// servers, sweep + grab + follow references with the scanner, and verify
// the analysis recovers exactly the planted configurations.
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/dataset.hpp"
#include "study/study.hpp"

namespace opcua_study {
namespace {

HostPlan base_host(int index, std::uint32_t asn) {
  HostPlan host;
  host.index = index;
  host.cohort = "test";
  host.manufacturer = "other";
  host.application_uri = "urn:generic:opcua:e2e-" + std::to_string(index);
  host.product_uri = "http://example.org/opcua";
  host.application_name = "e2e host " + std::to_string(index);
  host.asn = asn;
  host.tokens = {UserTokenType::Anonymous, UserTokenType::UserName};
  host.modes = {MessageSecurityMode::None};
  host.policies = {SecurityPolicy::None};
  host.certificate.present = true;
  host.certificate.signature_hash = HashAlgorithm::sha1;
  host.certificate.key_bits = 1024;
  host.certificate.not_before_days = days_from_civil({2019, 6, 1});
  host.outcome = PlannedOutcome::accessible;
  host.classification = PlannedClass::production;
  host.variable_count = 10;
  host.method_count = 3;
  host.readable_fraction = 1.0;
  host.writable_fraction = 0.3;
  host.executable_fraction = 0.67;
  return host;
}

PopulationPlan small_plan() {
  PopulationPlan plan;
  // A: None-only, anonymous, accessible production system.
  plan.hosts.push_back(base_host(0, 64503));

  // B: full mode/policy spread, credentials only -> auth-rejected.
  HostPlan b = base_host(1, 64504);
  b.modes = {MessageSecurityMode::None, MessageSecurityMode::Sign,
             MessageSecurityMode::SignAndEncrypt};
  b.policies = {SecurityPolicy::None, SecurityPolicy::Basic128Rsa15,
                SecurityPolicy::Basic256Sha256};
  b.tokens = {UserTokenType::UserName};
  b.outcome = PlannedOutcome::auth_rejected;
  b.classification = PlannedClass::not_applicable;
  plan.hosts.push_back(b);

  // C: secure-only, strict certificate validation -> channel rejected.
  HostPlan c = base_host(2, 64505);
  c.modes = {MessageSecurityMode::SignAndEncrypt};
  c.policies = {SecurityPolicy::Basic256Sha256};
  c.certificate.signature_hash = HashAlgorithm::sha256;
  c.certificate.key_bits = 2048;
  c.trust_all_client_certs = false;
  c.outcome = PlannedOutcome::channel_rejected;
  c.classification = PlannedClass::not_applicable;
  plan.hosts.push_back(c);

  // D: discovery server referencing E.
  HostPlan d = base_host(3, 64506);
  d.discovery = true;
  d.manufacturer = "OPC Foundation";
  d.application_uri = "urn:opcfoundation:ua:lds:e2e";
  d.certificate.present = false;
  d.tokens = {UserTokenType::Anonymous};
  d.classification = PlannedClass::not_applicable;
  plan.hosts.push_back(d);

  // E: only reachable via the discovery reference, non-default port, test system.
  HostPlan e = base_host(4, 64507);
  e.port = 4841;
  e.via_reference_only = true;
  e.classification = PlannedClass::test;
  e.writable_fraction = 0.0;
  plan.hosts.push_back(e);

  // F: anonymous offered but the server rejects sessions (faulty config).
  HostPlan f = base_host(5, 64503);
  f.tokens = {UserTokenType::Anonymous};
  f.reject_all_sessions = true;
  f.outcome = PlannedOutcome::auth_rejected;
  f.classification = PlannedClass::not_applicable;
  plan.hosts.push_back(f);

  plan.discovery_references.emplace_back(3, 4);
  return plan;
}

struct PipelineFixture {
  PopulationPlan plan = small_plan();
  Network net;
  ScanSnapshot snapshot;

  explicit PipelineFixture(int week = 7) {
    DeployConfig deploy_config;
    deploy_config.seed = 99;
    deploy_config.dummy_hosts = 40;
    deploy_config.fast_keys = true;
    deploy_config.key_cache_path = "";
    Deployer deployer(plan, deploy_config);
    deployer.deploy_week(net, week);

    KeyFactory scanner_keys(99, "");
    CampaignConfig config;
    config.seed = 7;
    config.grabber.client = make_scanner_identity(99, scanner_keys);
    Campaign campaign(config, net);
    snapshot = campaign.run(week);
  }

  const HostScanRecord* find(const std::string& uri_suffix) const {
    for (const auto& host : snapshot.hosts) {
      if (host.application_uri.ends_with(uri_suffix)) return &host;
    }
    return nullptr;
  }
};

const PipelineFixture& fixture() {
  static const PipelineFixture f;
  return f;
}

TEST(Pipeline, FindsAllOpcUaHostsAndOnlyThem) {
  const auto& snapshot = fixture().snapshot;
  // 5 directly + 1 via reference; 40 dummies are probed but dropped.
  EXPECT_EQ(snapshot.hosts.size(), 6u);
  EXPECT_GE(snapshot.tcp_open_count, 6u + 40u - 1);  // dummies may collide
  EXPECT_EQ(snapshot.server_count(), 5u);
  EXPECT_EQ(snapshot.discovery_count(), 1u);
}

TEST(Pipeline, ReferenceFollowingReachesNonDefaultPort) {
  const auto* e = fixture().find("e2e-4");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->found_via_reference);
  EXPECT_EQ(e->port, 4841);
  EXPECT_EQ(e->session, SessionOutcome::accessible);
}

TEST(Pipeline, AccessibleHostTraversed) {
  const auto* a = fixture().find("e2e-0");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->session, SessionOutcome::accessible);
  EXPECT_FALSE(a->namespaces.empty());
  int vars = 0, writable = 0, methods = 0, executable = 0;
  for (const auto& node : a->nodes) {
    if (node.node_class == NodeClass::Variable) {
      ++vars;
      writable += node.writable;
      EXPECT_TRUE(node.readable);
    }
    if (node.node_class == NodeClass::Method) {
      ++methods;
      executable += node.executable;
    }
  }
  EXPECT_EQ(vars, 14);  // 10 planted + 4 standard ns0 variables
  EXPECT_EQ(writable, 3);
  EXPECT_EQ(methods, 3);
  EXPECT_EQ(executable, 3);  // ceil(0.67 * 3)
  EXPECT_GT(a->bytes_sent, 0u);
  EXPECT_GT(a->duration_seconds, 0.0);
}

TEST(Pipeline, ModesPoliciesAndTokensRecovered) {
  const auto* b = fixture().find("e2e-1");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->advertised_modes().size(), 3u);
  const auto policies = b->advertised_policies();
  EXPECT_EQ(policies.size(), 3u);
  EXPECT_EQ(b->advertised_token_types(),
            (std::vector<UserTokenType>{UserTokenType::UserName}));
  EXPECT_EQ(b->session, SessionOutcome::auth_rejected);
  // The scanner connected on the strongest endpoint with its certificate.
  EXPECT_EQ(b->channel, ChannelOutcome::established);
  EXPECT_EQ(b->channel_mode, MessageSecurityMode::SignAndEncrypt);
  EXPECT_EQ(b->channel_policy, SecurityPolicy::Basic256Sha256);
  EXPECT_TRUE(b->server_signature_valid);
}

TEST(Pipeline, StrictServerCountsAsCertificateRejected) {
  const auto* c = fixture().find("e2e-2");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->channel, ChannelOutcome::cert_rejected);
  EXPECT_EQ(c->session, SessionOutcome::channel_rejected);
}

TEST(Pipeline, FaultyAnonymousServerIsAuthRejected) {
  const auto* f = fixture().find("e2e-5");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->anonymous_offered);
  EXPECT_EQ(f->session, SessionOutcome::auth_rejected);
}

TEST(Pipeline, AssessmentRecoversPlantedDistributions) {
  AnalysisOptions options;
  options.shared_primes = true;
  const StudyAnalysis analysis = analyze_snapshots({fixture().snapshot}, options);
  ModePolicyStats modes = analysis.modes;
  EXPECT_EQ(modes.servers, 5);
  EXPECT_EQ(modes.none_only, 3);  // A, E, F
  EXPECT_EQ(modes.mode_support[MessageSecurityMode::SignAndEncrypt], 2);
  EXPECT_EQ(modes.policy_support[SecurityPolicy::Basic256Sha256], 2);

  const AuthStats& auth = analysis.auth;
  EXPECT_EQ(auth.accessible, 2);
  EXPECT_EQ(auth.auth_rejected, 2);
  EXPECT_EQ(auth.channel_rejected, 1);
  EXPECT_EQ(auth.anonymous_offered, 4);
  EXPECT_EQ(auth.production, 1);
  EXPECT_EQ(auth.test, 1);

  const AccessRightsStats& access = analysis.access_rights;
  ASSERT_EQ(access.read_fractions.size(), 2u);
  EXPECT_DOUBLE_EQ(access.read_fractions[0], 1.0);

  const ReuseStats& reuse = analysis.reuse;
  EXPECT_EQ(reuse.clusters_ge3, 0);
  EXPECT_EQ(reuse.distinct_certificates, 5);  // A,B,C,E,F have distinct certs

  const SharedPrimeStats& primes = analysis.shared_primes;
  EXPECT_EQ(primes.distinct_moduli, 5u);
  EXPECT_EQ(primes.moduli_with_shared_prime, 0u);
}

TEST(Pipeline, ManufacturerClustering) {
  EXPECT_EQ(manufacturer_cluster("urn:bachmann:m1com:device-17"), "Bachmann");
  EXPECT_EQ(manufacturer_cluster("urn:beckhoff:TwinCAT:plc1"), "Beckhoff");
  EXPECT_EQ(manufacturer_cluster("urn:opcfoundation:ua:lds:3"), "OPC Foundation");
  EXPECT_EQ(manufacturer_cluster("urn:something:else"), "other");
}

TEST(Pipeline, NamespaceClassifier) {
  EXPECT_EQ(classify_namespaces({"http://opcfoundation.org/UA/",
                                 "http://PLCopen.org/OpcUa/IEC61131-3/"}),
            SystemClass::production);
  EXPECT_EQ(classify_namespaces({"http://opcfoundation.org/UA/",
                                 "http://examples.freeopcua.github.io"}),
            SystemClass::test);
  EXPECT_EQ(classify_namespaces({"http://opcfoundation.org/UA/"}), SystemClass::unclassified);
  // Production wins over test when both appear.
  EXPECT_EQ(classify_namespaces({"urn:factory:line:press", "urn:open62541:tutorial:server"}),
            SystemClass::production);
}

TEST(Pipeline, DatasetAnonymization) {
  const auto& snapshot = fixture().snapshot;
  Anonymizer anonymizer;
  const std::string jsonl = to_release_jsonl(snapshot, anonymizer);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 6);
  // No raw IPs, URIs or subjects in the release.
  EXPECT_EQ(jsonl.find("opc.tcp://"), std::string::npos);
  EXPECT_EQ(jsonl.find("e2e-"), std::string::npos);
  EXPECT_NE(jsonl.find("[blackened]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"accessible\""), std::string::npos);
  EXPECT_EQ(anonymizer.distinct_ips(), 6u);
}

TEST(Pipeline, EthicsExclusionListHonored) {
  PopulationPlan plan = small_plan();
  Network net;
  DeployConfig deploy_config;
  deploy_config.seed = 99;
  deploy_config.dummy_hosts = 0;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  deployer.deploy_week(net, 7);

  KeyFactory keys(99, "");
  CampaignConfig config;
  config.seed = 7;
  config.grabber.client = make_scanner_identity(99, keys);
  // Exclude host A's whole AS block: it must not be scanned.
  config.exclusions = {Cidr{deployer.ip_of(plan.hosts[0], 7), 32}};
  Campaign campaign(config, net);
  const ScanSnapshot snapshot = campaign.run(7);
  for (const auto& host : snapshot.hosts) {
    EXPECT_NE(host.application_uri, "urn:generic:opcua:e2e-0");
  }
}

TEST(Pipeline, LfsrSweepFindsSameHostsAsOracle) {
  PopulationPlan plan = small_plan();
  // Move every host into one /16 so the LFSR walk is fast.
  Network net;
  DeployConfig deploy_config;
  deploy_config.seed = 99;
  deploy_config.dummy_hosts = 0;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  for (auto& host : plan.hosts) host.asn = 64503;  // same /15 block
  Deployer deployer(plan, deploy_config);
  deployer.deploy_week(net, 7);

  KeyFactory keys(99, "");
  CampaignConfig config;
  config.seed = 7;
  config.grabber.client = make_scanner_identity(99, keys);
  config.oracle_sweep = false;
  config.universe = Cidr{deployer.ip_of(plan.hosts[0], 7) & 0xffff0000u, 16};
  Campaign campaign(config, net);
  const ScanSnapshot snapshot = campaign.run(7);
  EXPECT_EQ(snapshot.probes_sent, 65536u);
  EXPECT_EQ(snapshot.hosts.size(), 6u);  // same five + referenced host
}

}  // namespace
}  // namespace opcua_study
