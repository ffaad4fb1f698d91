// Protocol-plugin scan layer tests:
//  - the ProtocolProbe registry and the scheme-aware endpoint parser,
//  - OPC UA routed through the registry is byte-identical to the legacy
//    single-protocol engine (including across scan-thread counts),
//  - mixed OPC UA + MQTT fleets scan deterministically across in-flight
//    windows and shard layouts, and shared device certificates come out
//    byte-identical across the two services,
//  - the v6 protocol column round trips (and the mask footer with it),
//    and campaign chains with differing protocol sets are rejected,
//  - the streaming Aggregator's per-protocol split matches counts read off
//    the generator, and the dimension shows up in diff and series output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/analysis.hpp"
#include "diff/diff.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/host_task.hpp"
#include "scanner/protocol.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/series.hpp"
#include "study/sharded.hpp"
#include "study/study.hpp"
#include "util/date.hpp"

namespace opcua_study {
namespace {

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// ----------------------------------------------------------- the registry

TEST(ProtocolRegistry, BuiltinBackendsInIdOrder) {
  const auto& registry = protocol_registry();
  ASSERT_EQ(registry.size(), static_cast<std::size_t>(kProtocolCount));
  EXPECT_EQ(registry[0]->id(), ProtocolId::opcua);
  EXPECT_EQ(registry[0]->name(), "opcua");
  EXPECT_EQ(registry[0]->default_port(), kOpcUaDefaultPort);
  EXPECT_EQ(registry[1]->id(), ProtocolId::mqtt_tls);
  EXPECT_EQ(registry[1]->name(), "mqtt-tls");
  EXPECT_EQ(registry[1]->default_port(), kMqttTlsDefaultPort);

  EXPECT_EQ(&protocol_probe(ProtocolId::opcua), registry[0]);
  EXPECT_EQ(&protocol_probe(ProtocolId::mqtt_tls), registry[1]);
  EXPECT_EQ(find_protocol_probe("mqtt-tls"), registry[1]);
  EXPECT_EQ(find_protocol_probe("opcua"), registry[0]);
  EXPECT_EQ(find_protocol_probe("modbus"), nullptr);
  EXPECT_THROW(protocol_probe(static_cast<ProtocolId>(200)), std::invalid_argument);
  EXPECT_EQ(protocol_name(ProtocolId::mqtt_tls), "mqtt-tls");
  EXPECT_EQ(protocol_name(static_cast<ProtocolId>(7)), "protocol-7");
}

TEST(ProtocolRegistry, SchemeAwareEndpointParser) {
  const auto opc = parse_endpoint_url("opc.tcp://10.1.2.3/");
  ASSERT_TRUE(opc.has_value());
  EXPECT_EQ(opc->protocol, ProtocolId::opcua);
  EXPECT_EQ(opc->ip, make_ipv4(10, 1, 2, 3));
  EXPECT_EQ(opc->port, kOpcUaDefaultPort);

  const auto mqtt = parse_endpoint_url("mqtts://10.1.2.4/");
  ASSERT_TRUE(mqtt.has_value());
  EXPECT_EQ(mqtt->protocol, ProtocolId::mqtt_tls);
  EXPECT_EQ(mqtt->port, kMqttTlsDefaultPort);  // per-scheme default, not 4840

  const auto explicit_port = parse_endpoint_url("mqtts://10.1.2.4:1883/topics");
  ASSERT_TRUE(explicit_port.has_value());
  EXPECT_EQ(explicit_port->port, 1883);

  EXPECT_FALSE(parse_endpoint_url("http://10.1.2.3/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://broker.example:4840/").has_value());
  EXPECT_FALSE(parse_endpoint_url("opc.tcp://10.1.2.3:99999/").has_value());
}

// ------------------------------------------------- mixed-fleet populations

/// Small OPC UA population (a spread of postures plus a certificate reuse
/// group) with an MQTT broker fleet grown next to it. Two brokers run on
/// the reuse-group device image, presenting the fleet certificate.
PopulationPlan mixed_plan() {
  PopulationPlan plan;
  plan.reuse_groups.push_back({0, HashAlgorithm::sha1, 1024, 2, "Bachmann electronic"});
  for (int i = 0; i < 8; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "mixed";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:mixed-" + std::to_string(i);
    host.application_name = "mixed host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 3);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    if (i < 2) {
      host.certificate.reuse_group = 0;
      host.certificate.signature_hash = HashAlgorithm::sha1;
    }
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

CampaignConfig mixed_campaign_config(KeyFactory& keys) {
  CampaignConfig config;
  config.seed = 5;
  config.grabber.client = make_scanner_identity(42, keys);
  config.protocols = {ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort},
                      ProtocolTarget{ProtocolId::mqtt_tls, kMqttTlsDefaultPort}};
  return config;
}

ScanSnapshot run_mixed_campaign(const PopulationPlan& plan, std::size_t max_in_flight,
                                int week = 7) {
  Network net;
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  deployer.deploy_week(net, week);

  KeyFactory keys(42, "");
  CampaignConfig config = mixed_campaign_config(keys);
  config.max_in_flight = max_in_flight;
  Campaign campaign(config, net);
  return campaign.run(week);
}

// ------------------------------------- OPC UA through the registry: bytes

TEST(ProtocolPlugin, OpcUaThroughRegistryIsByteIdentical) {
  // The same campaign routed (a) through the legacy single-protocol
  // default and (b) through an explicit one-entry registry mix must
  // produce identical snapshots — and identical snapshot files.
  PopulationPlan plan = mixed_plan();
  plan.mqtt_hosts.clear();  // OPC UA only, both ways

  auto run_with = [&](bool explicit_mix) {
    Network net;
    DeployConfig deploy_config;
    deploy_config.seed = 42;
    deploy_config.dummy_hosts = 20;
    deploy_config.fast_keys = true;
    deploy_config.key_cache_path = "";
    Deployer deployer(plan, deploy_config);
    deployer.deploy_week(net, 7);
    KeyFactory keys(42, "");
    CampaignConfig config;
    config.seed = 5;
    config.grabber.client = make_scanner_identity(42, keys);
    if (explicit_mix) config.protocols = {ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort}};
    Campaign campaign(config, net);
    return campaign.run(7);
  };
  const ScanSnapshot legacy = run_with(false);
  const ScanSnapshot registry = run_with(true);
  EXPECT_EQ(legacy, registry);

  const std::string legacy_path = "test_proto_legacy.bin";
  const std::string registry_path = "test_proto_registry.bin";
  save_snapshots(legacy_path, 5, {legacy});
  save_snapshots(registry_path, 5, {registry});
  EXPECT_EQ(read_file_bytes(legacy_path), read_file_bytes(registry_path));
  // OPC-UA-only output never declares a protocol mask (that is what keeps
  // it byte-identical to pre-registry files).
  const SnapshotReader reader(registry_path, 5);
  ASSERT_EQ(reader.snapshots().size(), 1u);
  EXPECT_EQ(reader.snapshots()[0].protocol_mask, 0u);
  std::remove(legacy_path.c_str());
  std::remove(registry_path.c_str());
}

TEST(ProtocolPlugin, MixedShardedStreamIsThreadCountInvariant) {
  const PopulationPlan plan = mixed_plan();
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";

  auto stream_with_threads = [&](int threads, const std::string& path) {
    Deployer deployer(plan, deploy_config);
    KeyFactory keys(42, "");
    ScanOptions options;
    options.shards = 3;
    options.threads = threads;
    options.protocols = {ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort},
                         ProtocolTarget{ProtocolId::mqtt_tls, kMqttTlsDefaultPort}};
    const ShardedCampaignConfig config =
        make_sharded_config(mixed_campaign_config(keys), options);
    SnapshotWriter writer(path, 5);
    run_sharded_campaign_streamed(deployer, 7, config, writer);
    writer.finish();
  };
  stream_with_threads(1, "test_proto_t1.bin");
  stream_with_threads(8, "test_proto_t8.bin");
  EXPECT_EQ(read_file_bytes("test_proto_t1.bin"), read_file_bytes("test_proto_t8.bin"));

  // The mixed file declares both families in its protocol mask.
  const SnapshotReader reader("test_proto_t8.bin", 5);
  ASSERT_EQ(reader.snapshots().size(), 1u);
  EXPECT_EQ(reader.snapshots()[0].protocol_mask, 0b11u);
  std::remove("test_proto_t1.bin");
  std::remove("test_proto_t8.bin");
}

TEST(ProtocolPlugin, MixedFleetInterleaveDeterminism) {
  const PopulationPlan plan = mixed_plan();
  const ScanSnapshot lock_step = run_mixed_campaign(plan, 1);
  const ScanSnapshot interleaved = run_mixed_campaign(plan, 256);
  EXPECT_EQ(lock_step, interleaved);

  std::size_t opcua_count = 0, mqtt_count = 0;
  for (const auto& host : interleaved.hosts) {
    if (host.protocol == ProtocolId::opcua) ++opcua_count;
    if (host.protocol == ProtocolId::mqtt_tls) {
      ++mqtt_count;
      EXPECT_EQ(host.port, kMqttTlsDefaultPort);
      EXPECT_TRUE(host.speaks_opcua);  // "completed the probed handshake"
    }
  }
  EXPECT_EQ(opcua_count, 8u);
  EXPECT_EQ(mqtt_count, 8u);

  // Shard layouts repartition the universe but never the result.
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  auto sharded = [&](int shards) {
    Deployer deployer(plan, deploy_config);
    KeyFactory keys(42, "");
    ShardedCampaignConfig config;
    config.campaign = mixed_campaign_config(keys);
    config.shards = shards;
    config.threads = 2;
    return run_sharded_campaign(deployer, 7, config);
  };
  EXPECT_EQ(sharded(1), sharded(3));
}

TEST(ProtocolPlugin, SharedDeviceImageCertificateIsByteIdentical) {
  // Brokers deployed on an OPC UA reuse-group device image must present
  // the exact fleet certificate DER — which the matcher then must *not*
  // use to link the two services into one identity.
  const PopulationPlan plan = mixed_plan();
  const ScanSnapshot snapshot = run_mixed_campaign(plan, 256);

  std::vector<Bytes> opcua_fleet_certs;
  for (const auto& host : snapshot.hosts) {
    if (host.protocol != ProtocolId::opcua) continue;
    for (const auto& ep : host.endpoints) {
      if (!ep.certificate_der.empty()) opcua_fleet_certs.push_back(ep.certificate_der);
    }
  }
  std::size_t shared = 0;
  for (const auto& host : snapshot.hosts) {
    if (host.protocol != ProtocolId::mqtt_tls) continue;
    ASSERT_FALSE(host.endpoints.empty());
    const Bytes& der = host.endpoints.front().certificate_der;
    ASSERT_FALSE(der.empty());
    for (const auto& fleet : opcua_fleet_certs) {
      if (fleet == der) {
        ++shared;
        break;
      }
    }
  }
  EXPECT_EQ(shared, 2u);  // brokers 0 and 7 ride reuse group 0
}

// ---------------------------------------------------- v6 protocol column

std::vector<ScanSnapshot> synthetic_mixed_study(int weeks = 2) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 500;
    snapshot.tcp_open_count = 40;
    for (std::size_t i = 0; i < 20; ++i) {
      HostScanRecord host;
      const bool mqtt = i % 3 == 2;
      host.protocol = mqtt ? ProtocolId::mqtt_tls : ProtocolId::opcua;
      host.ip = static_cast<Ipv4>(0x15000000u + static_cast<std::uint32_t>(i));
      host.port = mqtt ? kMqttTlsDefaultPort : kOpcUaDefaultPort;
      host.asn = 64500;
      host.tcp_open = true;
      host.speaks_opcua = true;
      host.application_uri = "urn:test:mixed:" + std::to_string(i);
      EndpointObservation ep;
      ep.url = (mqtt ? "mqtts://" : "opc.tcp://") + format_ipv4(host.ip);
      const SecurityPolicy policy =
          i % 2 == 0 ? SecurityPolicy::Basic128Rsa15 : SecurityPolicy::Basic256Sha256;
      ep.mode = MessageSecurityMode::SignAndEncrypt;
      ep.policy_uri = std::string(policy_info(policy).uri);
      ep.policy = policy;
      ep.policy_known = true;
      ep.token_types = {i % 4 == 0 ? UserTokenType::Anonymous : UserTokenType::UserName};
      ep.certificate_der = Bytes{0x30, 0x01, static_cast<std::uint8_t>(i % 5)};
      host.endpoints.push_back(std::move(ep));
      host.anonymous_offered = i % 4 == 0;
      host.bytes_sent = 100 + i;
      host.duration_seconds = 1.0;
      // Some records also carry a scan-quality tail, so the tail order
      // (quality first, protocol byte last) is exercised both ways.
      if (i % 5 == 1) host.retries = 2;
      snapshot.hosts.push_back(std::move(host));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

TEST(ProtocolColumn, V6RoundTripCarriesProtocolAndMask) {
  const std::vector<ScanSnapshot> study = synthetic_mixed_study();
  const std::string path = "test_proto_column.bin";
  save_snapshots(path, 11, study);

  const SnapshotReader reader(path, 11);
  ASSERT_EQ(reader.snapshots().size(), study.size());
  for (const auto& meta : reader.snapshots()) EXPECT_EQ(meta.protocol_mask, 0b11u);
  const std::vector<ScanSnapshot> loaded = reader.load_all();
  ASSERT_EQ(loaded.size(), study.size());
  for (std::size_t w = 0; w < study.size(); ++w) {
    ASSERT_EQ(loaded[w].hosts.size(), study[w].hosts.size());
    for (std::size_t i = 0; i < study[w].hosts.size(); ++i) {
      EXPECT_EQ(loaded[w].hosts[i], study[w].hosts[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(ProtocolColumn, ChainValidationRejectsDifferingProtocolSets) {
  SnapshotMeta opcua_only;
  opcua_only.campaign_label = "a";
  opcua_only.campaign_epoch_days = 100;
  opcua_only.protocol_mask = 0b01;
  SnapshotMeta mixed;
  mixed.campaign_label = "b";
  mixed.campaign_epoch_days = 200;
  mixed.protocol_mask = 0b11;
  try {
    validate_campaign_chain({opcua_only, mixed});
    FAIL() << "differing protocol masks must not chain";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("mqtt-tls"), std::string::npos) << e.what();
  }
  // Equal masks — and undeclared (mask-0) members — chain fine.
  SnapshotMeta legacy;
  legacy.campaign_label = "c";
  legacy.campaign_epoch_days = 300;
  EXPECT_NO_THROW(validate_campaign_chain({mixed, legacy}));
  opcua_only.protocol_mask = 0b11;
  EXPECT_NO_THROW(validate_campaign_chain({opcua_only, mixed}));
}

// ------------------------------------------- the per-protocol dimension

TEST(ProtocolAnalysis, AggregatorMatchesAssessReference) {
  // Counts read off synthetic_mixed_study: per week 14 OPC UA hosts and 6
  // MQTT brokers (i % 3 == 2), all servers; even i announce only the
  // deprecated Basic128Rsa15 (deficient: 7 and 3), i % 4 == 0 offers
  // anonymous access (4 and 1). Odd i announce Basic256Sha256 with a
  // certificate that does not parse, so no other rule fires.
  const std::vector<ScanSnapshot> study = synthetic_mixed_study();
  ProtocolStats expected;
  for (const ScanSnapshot& snapshot : study) {
    expected.weeks.push_back({snapshot.measurement_index,
                              {{ProtocolId::opcua, 14}, {ProtocolId::mqtt_tls, 6}}});
  }
  expected.servers = {{ProtocolId::opcua, 14}, {ProtocolId::mqtt_tls, 6}};
  expected.deficient = {{ProtocolId::opcua, 7}, {ProtocolId::mqtt_tls, 3}};
  expected.anonymous = {{ProtocolId::opcua, 4}, {ProtocolId::mqtt_tls, 1}};
  ASSERT_EQ(expected.weeks.size(), 2u);

  const StudyAnalysis in_memory = analyze_snapshots(study);
  EXPECT_EQ(in_memory.protocols, expected);

  // The columnar fast path decodes the protocol tail the same way.
  const std::string path = "test_proto_analysis.bin";
  save_snapshots(path, 11, study);
  const StudyAnalysis from_file = analyze_file(path, 11);
  EXPECT_EQ(from_file.protocols, expected);
  std::remove(path.c_str());
}

TEST(ProtocolAnalysis, DiffAndSeriesSplitByProtocol) {
  std::vector<ScanSnapshot> base = synthetic_mixed_study(1);
  std::vector<ScanSnapshot> followup = synthetic_mixed_study(1);
  followup[0].measurement_index = 1;
  followup[0].date_days += 28;

  const CampaignDiff diff =
      diff_campaigns(SnapshotVectorSource(base, 7), SnapshotVectorSource(followup, 7));
  ASSERT_EQ(diff.by_protocol.size(), 2u);
  const ProtocolDiffRow& opcua_row = diff.by_protocol.at(ProtocolId::opcua);
  const ProtocolDiffRow& mqtt_row = diff.by_protocol.at(ProtocolId::mqtt_tls);
  EXPECT_EQ(opcua_row.base_hosts, 14u);
  EXPECT_EQ(mqtt_row.base_hosts, 6u);
  EXPECT_EQ(opcua_row.followup_hosts, 14u);
  EXPECT_EQ(mqtt_row.followup_hosts, 6u);
  // Identical populations at identical addresses: everything matches,
  // within its own protocol.
  EXPECT_EQ(opcua_row.matched, 14u);
  EXPECT_EQ(mqtt_row.matched, 6u);

  CampaignSet set;
  set.add_snapshots(std::move(base), "campaign-a", 100);
  set.add_snapshots(std::move(followup), "campaign-b", 200);
  const SeriesAnalysis series = analyze_series(set);
  ASSERT_EQ(series.members.size(), 2u);
  for (const auto& member : series.members) {
    EXPECT_EQ(member.hosts_by_protocol.at(ProtocolId::opcua), 14u);
    EXPECT_EQ(member.hosts_by_protocol.at(ProtocolId::mqtt_tls), 6u);
    EXPECT_EQ(member.deficient_by_protocol.size(), 2u);
  }
  const std::string json = series_analysis_json(series);
  EXPECT_NE(json.find("\"mqtt-tls\""), std::string::npos);
  EXPECT_NE(json.find("\"opcua\""), std::string::npos);
}

}  // namespace
}  // namespace opcua_study
