// The campaign-series API:
//  - hand-crafted N=3 identity chains: stable hosts, a churned-IP host
//    re-identified by certificate across all three campaigns (with
//    evidence grading), an ambiguous fleet certificate that must *not*
//    chain, remediation / relapse timelines,
//  - a two-member series reproduces the pairwise CampaignDiff field for
//    field (the N=2 specialization contract),
//  - extend_series grows deterministic file-backed and in-memory series
//    that analyze byte-identically, for any thread count,
//  - a 4-member series grown from 2,000 hosts keeps >= 18% of its
//    timelines across every member, at a mean link confidence >= 0.9,
//  - campaign-chain validation and SnapshotError on short sets, empty
//    members, and a truncated middle member,
//  - posture sketch sidecars with out-of-range fields under a valid
//    checksum fail with SnapshotError naming the field,
//  - the early-prefix-merge aggregation stays thread-count-invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "analysis/analysis.hpp"
#include "diff/diff.hpp"
#include "series/matcher.hpp"
#include "series/series.hpp"
#include "series/sketch.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {
namespace {

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Per-index unique certificates from a small key pool: the certificate
/// matcher needs fingerprints that identify hosts.
const std::vector<Bytes>& unique_certs() {
  static const std::vector<Bytes> certs = [] {
    KeyFactory keys(773, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 40; ++i) {
      const RsaKeyPair kp = keys.get("series-test-" + std::to_string(i % 4), 512);
      CertificateSpec spec;
      spec.subject = {"series device " + std::to_string(i), "Series Test Org", "DE"};
      spec.signature_hash = HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(7000 + i)};
      spec.not_before_days = days_from_civil({2019, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:seriestest:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return certs;
}

struct HostSpec {
  Ipv4 ip = 0;
  SecurityPolicy policy = SecurityPolicy::None;
  int cert = -1;                // index into unique_certs(), -1 = none
  std::string uri;              // application URI (corroboration signal)
  std::uint32_t asn = 0;        // corroboration signal
};

HostScanRecord make_host(const HostSpec& spec) {
  HostScanRecord host;
  host.ip = spec.ip;
  host.port = kOpcUaDefaultPort;
  host.asn = spec.asn;
  host.speaks_opcua = true;
  host.application_uri = spec.uri;
  EndpointObservation ep;
  ep.url = "opc.tcp://x:4840/";
  ep.mode = spec.policy == SecurityPolicy::None ? MessageSecurityMode::None
                                                : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(spec.policy).uri);
  ep.policy = spec.policy;
  ep.policy_known = true;
  ep.token_types = {UserTokenType::UserName};
  if (spec.cert >= 0) ep.certificate_der = unique_certs()[static_cast<std::size_t>(spec.cert)];
  host.endpoints.push_back(std::move(ep));
  return host;
}

ScanSnapshot make_measurement(std::int64_t date_days, const std::vector<HostSpec>& specs) {
  ScanSnapshot snapshot;
  snapshot.measurement_index = 0;
  snapshot.date_days = date_days;
  snapshot.probes_sent = 1000;
  snapshot.tcp_open_count = 100;
  for (const auto& spec : specs) snapshot.hosts.push_back(make_host(spec));
  return snapshot;
}

FollowupConfig small_followup_config() {
  FollowupConfig config;
  config.mint_keys = 4;
  config.mint_fleet = 32;
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  return config;
}

/// A deterministic synthetic base campaign (same archetypes the diff
/// tests use).
std::vector<ScanSnapshot> make_base_study(std::size_t hosts, int weeks = 1) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 5000;
    snapshot.tcp_open_count = 500;
    for (std::size_t i = 0; i < hosts; ++i) {
      HostSpec spec;
      spec.ip = static_cast<Ipv4>(0x16000000u + static_cast<std::uint32_t>(i));
      spec.policy = i % 4 == 0   ? SecurityPolicy::None
                    : i % 4 == 1 ? SecurityPolicy::Basic256
                                 : SecurityPolicy::Basic256Sha256;
      spec.cert = i % 5 == 0 ? -1 : static_cast<int>(i % unique_certs().size());
      spec.uri = "urn:generic:seriestest-" + std::to_string(i);
      spec.asn = 64500 + static_cast<std::uint32_t>(i % 5);
      snapshot.hosts.push_back(make_host(spec));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

// ------------------------------------------------- hand-crafted chains ----

TEST(SeriesChain, HandCraftedThreeMemberTimelines) {
  constexpr SecurityPolicy kNone = SecurityPolicy::None;
  constexpr SecurityPolicy kDepr = SecurityPolicy::Basic256;        // deprecated
  constexpr SecurityPolicy kSecure = SecurityPolicy::Basic256Sha256;
  const std::string uri_b = "urn:series:host-b";

  // Member 0: A stable None; B churner with corroborating URI; C1/C2
  // sharing one fleet certificate (ambiguous); D future relapser; E
  // retiree; G bare-evidence churner (no URI, no AS).
  const ScanSnapshot m0 = make_measurement(100, {
      {10, kNone, -1, "", 0},         // A
      {11, kDepr, 0, uri_b, 0},       // B
      {12, kDepr, 3, "", 0},          // C1
      {13, kDepr, 3, "", 0},          // C2
      {14, kNone, -1, "", 0},         // D
      {15, kNone, -1, "", 0},         // E (retires)
      {17, kDepr, 5, "", 0},          // G
  });
  // Member 1: B churned (cert 0 re-identifies, URI corroborates); C1/C2
  // churned with the shared cert (must NOT chain -> retire + arrive); D
  // upgraded to secure; F arrives; G still at its address.
  const ScanSnapshot m1 = make_measurement(200, {
      {10, kNone, -1, "", 0},         // A
      {60, kDepr, 0, uri_b, 0},       // B after churn
      {61, kDepr, 3, "", 0},          // "C1'" — ambiguous, new identity
      {62, kDepr, 3, "", 0},          // "C2'"
      {14, kSecure, -1, "", 0},       // D remediated after 1 campaign
      {16, kSecure, -1, "", 0},       // F arrival
      {17, kDepr, 5, "", 0},          // G
  });
  // Member 2: A remediates; B churns again (cert + URI); D relapses; G
  // churns with only the bare fingerprint as evidence.
  const ScanSnapshot m2 = make_measurement(300, {
      {10, kSecure, -1, "", 0},       // A remediated after 2 campaigns
      {70, kDepr, 0, uri_b, 0},       // B after second churn
      {61, kDepr, 3, "", 0},          // C1' stays
      {62, kDepr, 3, "", 0},          // C2' stays
      {14, kNone, -1, "", 0},         // D relapsed
      {16, kSecure, -1, "", 0},       // F
      {90, kDepr, 5, "", 0},          // G after churn, bare evidence
  });

  CampaignSet set;
  set.add_snapshots({m0}, "m0", 100);
  set.add_snapshots({m1}, "m1", 200);
  set.add_snapshots({m2}, "m2", 300);
  const SeriesAnalysis series = analyze_series(set, {});

  ASSERT_EQ(series.members.size(), 3u);
  ASSERT_EQ(series.steps.size(), 2u);

  // Step 0: A, D, G by address; B by corroborated certificate; the
  // ambiguous fleet certificate re-identifies nobody.
  EXPECT_EQ(series.steps[0].matched_by_address, 3u);
  EXPECT_EQ(series.steps[0].matched_by_certificate, 1u);
  EXPECT_EQ(series.steps[0].cert_matches_corroborated, 1u);
  EXPECT_EQ(series.steps[0].cert_matches_bare, 0u);
  EXPECT_EQ(series.steps[0].retired, 3u);   // C1, C2, E
  EXPECT_EQ(series.steps[0].arrived, 3u);   // C1', C2', F

  // Step 1: A, C1', C2', D, F by address; B corroborated; G bare.
  EXPECT_EQ(series.steps[1].matched_by_address, 5u);
  EXPECT_EQ(series.steps[1].matched_by_certificate, 2u);
  EXPECT_EQ(series.steps[1].cert_matches_corroborated, 1u);
  EXPECT_EQ(series.steps[1].cert_matches_bare, 1u);
  EXPECT_EQ(series.steps[1].retired, 0u);
  EXPECT_EQ(series.steps[1].arrived, 0u);

  // Evidence totals and the confidence grade they imply.
  EXPECT_EQ(series.links_by_address, 8u);
  EXPECT_EQ(series.links_by_cert_corroborated, 2u);
  EXPECT_EQ(series.links_by_cert_bare, 1u);
  EXPECT_NEAR(series.mean_link_confidence(), (8 * 1.0 + 2 * 0.9 + 1 * 0.6) / 11.0, 1e-12);
  EXPECT_NEAR(series.steps[1].mean_match_confidence(), (5 * 1.0 + 0.9 + 0.6) / 7.0, 1e-12);

  // Timelines: 7 starting at member 0, 3 arrivals at member 1.
  EXPECT_EQ(series.timelines.total, 10u);
  EXPECT_EQ(series.timelines.full_span, 4u);  // A, B, D, G
  ASSERT_EQ(series.timelines.length_histogram.size(), 4u);
  EXPECT_EQ(series.timelines.length_histogram[1], 3u);  // C1, C2, E
  EXPECT_EQ(series.timelines.length_histogram[2], 3u);  // C1', C2', F
  EXPECT_EQ(series.timelines.length_histogram[3], 4u);  // A, B, D, G

  // Remediation: everything except F starts below secure; D upgrades
  // after one campaign (then relapses), A after two.
  EXPECT_EQ(series.remediation.insecure_at_start, 9u);
  EXPECT_EQ(series.remediation.remediated, 2u);
  ASSERT_EQ(series.remediation.steps_to_secure.size(), 3u);
  EXPECT_EQ(series.remediation.steps_to_secure[1], 1u);  // D
  EXPECT_EQ(series.remediation.steps_to_secure[2], 1u);  // A
  EXPECT_EQ(series.remediation.never_remediated, 7u);
  EXPECT_EQ(series.remediation.relapsed, 1u);  // D

  // Fleet curve.
  EXPECT_EQ(series.members[0].hosts, 7u);
  EXPECT_EQ(series.members[0].arrived, 7u);
  EXPECT_EQ(series.members[0].retired_into_next, 3u);
  EXPECT_EQ(series.members[1].matched_from_previous, 4u);
  EXPECT_EQ(series.members[1].arrived, 3u);
  EXPECT_EQ(series.members[2].matched_from_previous, 7u);
  EXPECT_EQ(series.members[2].arrived, 0u);
  EXPECT_EQ(series.members[2].retired_into_next, 0u);
  EXPECT_EQ(series.members[0].deficient, 7u);
  EXPECT_EQ(series.members[1].deficient, 5u);  // D and F are clean
  EXPECT_EQ(series.members[2].deficient, 5u);  // A and F are clean

  // The annotations drive the member identity in the report.
  EXPECT_EQ(series.members[0].meta.campaign_label, "m0");
  EXPECT_EQ(series.members[2].meta.campaign_epoch_days, 300);
  const std::string json = series_analysis_json(series);
  EXPECT_NE(json.find("\"match_evidence\""), std::string::npos);
  EXPECT_NE(json.find("\"steps_to_secure\""), std::string::npos);
}

// ------------------------------------------------- N=2 specialization ----

TEST(SeriesEquivalence, TwoMemberSeriesReproducesPairwiseDiff) {
  const std::string base_path = "/tmp/opcua_series_pair_base.bin";
  const std::string followup_path = "/tmp/opcua_series_pair_followup.bin";
  {
    SnapshotWriter writer(base_path, 42);
    writer.set_campaign("series-base", days_from_civil({2020, 8, 30}));
    for (const auto& snapshot : make_base_study(120, 2)) writer.add_snapshot(snapshot);
    writer.finish();
  }
  CampaignSet set;
  set.add_file(base_path, 42);
  const SnapshotMeta followup_meta =
      extend_series(set, small_followup_config(), followup_path, 77);
  EXPECT_GT(followup_meta.host_count, 0u);
  EXPECT_EQ(followup_meta.campaign_label, "followup-2022");

  SeriesOptions series_options;
  series_options.threads = 4;
  const SeriesAnalysis series = analyze_series(set, series_options);
  DiffOptions diff_options;
  diff_options.threads = 2;
  const CampaignDiff diff = diff_files(base_path, 42, followup_path, 77, diff_options);

  // Field for field: the series' only step IS the pairwise diff,
  // including the campaign identity metadata and evidence grading.
  ASSERT_EQ(series.steps.size(), 1u);
  EXPECT_EQ(series.steps[0], diff);
  EXPECT_GT(diff.matched(), 0u);
  EXPECT_GT(diff.matched_by_certificate, 0u);
  EXPECT_EQ(diff.matched_by_certificate,
            diff.cert_matches_corroborated + diff.cert_matches_bare);
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

// ------------------------------------- determinism across input shapes ----

TEST(SeriesDeterminism, ThreadCountAndStreamedVsLoadAllAreByteIdentical) {
  const std::string base_path = "/tmp/opcua_series_det_base.bin";
  const std::vector<std::string> followup_paths = {
      "/tmp/opcua_series_det_f1.bin", "/tmp/opcua_series_det_f2.bin",
      "/tmp/opcua_series_det_f3.bin"};
  {
    // Small chunks -> many parallel posture work units with ragged tails.
    SnapshotWriter writer(base_path, 42, 17);
    writer.set_campaign("det-base", 100);
    for (const auto& snapshot : make_base_study(90)) writer.add_snapshot(snapshot);
    writer.finish();
  }
  CampaignSet files;
  files.add_file(base_path, 42);
  for (std::size_t k = 0; k < followup_paths.size(); ++k) {
    extend_series(files, small_followup_config(), followup_paths[k], 1000 + k);
  }
  ASSERT_EQ(files.size(), 4u);
  // Distinct labels from default-config iteration, epochs +2y per step.
  const std::vector<SnapshotMeta> metas = files.final_metas();
  EXPECT_EQ(metas[1].campaign_label, "followup-2022");
  EXPECT_EQ(metas[2].campaign_label, "followup-2022-2");
  EXPECT_EQ(metas[3].campaign_label, "followup-2022-3");
  EXPECT_NO_THROW(files.validate());

  SeriesOptions serial;
  serial.threads = 1;
  SeriesOptions parallel;
  parallel.threads = 8;
  const SeriesAnalysis streamed1 = analyze_series(files, serial);
  const SeriesAnalysis streamed8 = analyze_series(files, parallel);
  EXPECT_EQ(streamed1, streamed8);
  EXPECT_EQ(series_analysis_json(streamed1), series_analysis_json(streamed8));

  // Load-all members (annotated with the files' identities) must analyze
  // byte-identically, for any chunking.
  CampaignSet memory;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const CampaignMember& member = files.member(i);
    memory.add_snapshots(SnapshotReader(member.path, member.seed).load_all(),
                         metas[i].campaign_label, metas[i].campaign_epoch_days);
  }
  SeriesOptions tiny_chunks;
  tiny_chunks.threads = 8;
  tiny_chunks.chunk_records = 7;
  const SeriesAnalysis load_all = analyze_series(memory, tiny_chunks);
  EXPECT_EQ(streamed1, load_all);
  EXPECT_EQ(series_analysis_json(streamed1), series_analysis_json(load_all));

  // The series exercises the interesting flows on this population.
  EXPECT_GT(streamed1.links_by_address, 0u);
  EXPECT_GT(streamed1.links_by_cert_corroborated + streamed1.links_by_cert_bare, 0u);
  EXPECT_GT(streamed1.timelines.full_span, 0u);
  EXPECT_GT(streamed1.remediation.insecure_at_start, 0u);
  std::remove(base_path.c_str());
  for (const auto& path : followup_paths) std::remove(path.c_str());
}

/// Base host #i of the series-shape test: the study's posture archetypes,
/// anonymous on every third host, an 80/20 split of per-host certificates
/// (a signed fleet DER with perturbed trailing signature bytes) and
/// fleet-shared ones.
HostScanRecord fleet_host(std::size_t i, const std::vector<Bytes>& fleet) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = i % 13 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 48);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.product_uri = "http://example.org/series";
  host.application_name = "series host " + std::to_string(i);
  host.application_uri = "urn:generic:opcua:series-" + std::to_string(i);
  host.software_version = "2." + std::to_string(i % 4) + ".0";

  Bytes cert = fleet[i % fleet.size()];
  if (i % 5 != 4) {
    for (std::size_t b = 0; b < 4; ++b) {
      cert[cert.size() - 1 - b] ^= static_cast<std::uint8_t>(i >> (8 * b));
    }
  }
  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://series" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = i % 3 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                : std::vector<UserTokenType>{UserTokenType::UserName};
    if (with_cert) ep.certificate_der = cert;
    host.endpoints.push_back(std::move(ep));
  };
  switch (i % 4) {
    case 0: add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false); break;
    case 1:
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256, true);
      break;
    case 2:
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
    default:
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
  }
  host.channel = ChannelOutcome::established;
  host.anonymous_offered = i % 3 == 0;
  host.session = SessionOutcome::not_attempted;
  host.bytes_sent = 40000 + (i % 1000);
  host.duration_seconds = 90.0;
  return host;
}

TEST(SeriesShape, EvolvedSeriesKeepsFullSpanTimelinesAndConfidentLinks) {
  // Each step retires 12% of the hosts and churns a quarter of the
  // addresses. Certificate links keep churned hosts on their timeline
  // (without them the full-span share falls to 14%), and most links are
  // address links, so the mean confidence stays near 1.
  constexpr std::size_t kHosts = 2000;
  constexpr std::uint64_t kBaseSeed = 20200830;
  std::vector<Bytes> fleet;
  KeyFactory keys(kBaseSeed, "");
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("series-base-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"series device " + std::to_string(i), "Series Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(3000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:series:device:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  std::vector<std::string> paths;
  for (int m = 0; m < 4; ++m) {
    paths.push_back("/tmp/opcua_series_shape_m" + std::to_string(m) + ".bin");
  }
  {
    SnapshotWriter writer(paths[0], kBaseSeed);
    writer.set_campaign("bench-series-2020", days_from_civil({2020, 8, 30}));
    writer.begin_snapshot(0, days_from_civil({2020, 8, 30}));
    for (std::size_t i = 0; i < kHosts; ++i) writer.add_host(fleet_host(i, fleet));
    writer.end_snapshot(kHosts * 2, kHosts + kHosts / 2);
    writer.finish();
  }
  CampaignSet series;
  series.add_file(paths[0], kBaseSeed);
  FollowupConfig config;
  config.campaign_label = "bench-series-followup";
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  for (std::size_t m = 1; m < paths.size(); ++m) {
    extend_series(series, config, paths[m], kBaseSeed + m);
  }
  SeriesOptions options;
  options.threads = 1;
  const SeriesAnalysis analysis = analyze_series(series, options);
  ASSERT_GT(analysis.timelines.total, 0u);
  // Reads 0.255 and 0.987.
  EXPECT_GE(static_cast<double>(analysis.timelines.full_span),
            0.18 * static_cast<double>(analysis.timelines.total))
      << analysis.timelines.full_span << " of " << analysis.timelines.total;
  EXPECT_GE(analysis.mean_link_confidence(), 0.9);
  for (const auto& path : paths) {
    std::remove(path.c_str());
    std::remove(posture_sketch_path(path).c_str());
  }
}

TEST(SeriesDeterminism, ExplicitEpochStillYieldsAValidChainWhenIterated) {
  CampaignSet set;
  set.add_snapshots({make_measurement(100, {{10, SecurityPolicy::None, -1, "", 0}})},
                    "explicit-base", 100);
  FollowupConfig config = small_followup_config();
  config.epoch_days = 3000;  // anchors the first extension
  const SnapshotMeta first = extend_series(set, config);
  const SnapshotMeta second = extend_series(set, config);
  EXPECT_EQ(first.campaign_epoch_days, 3000);
  EXPECT_EQ(second.campaign_epoch_days, 3000 + 730);  // advanced per step
  EXPECT_NO_THROW(set.validate());
  EXPECT_NO_THROW(analyze_series(set, {}));
}

// ----------------------------------------------------- error surfaces ----

TEST(SeriesErrors, ShortSetsEmptyMembersAndTruncationFail) {
  CampaignSet empty_set;
  EXPECT_THROW(analyze_series(empty_set, {}), SnapshotError);

  CampaignSet one;
  one.add_snapshots({make_measurement(100, {{10, SecurityPolicy::None, -1, "", 0}})});
  EXPECT_THROW(analyze_series(one, {}), SnapshotError);
  EXPECT_THROW(extend_series(empty_set, small_followup_config()), SnapshotError);

  // A member with zero measurements fails at open.
  CampaignSet with_empty;
  with_empty.add_snapshots({make_measurement(100, {{10, SecurityPolicy::None, -1, "", 0}})});
  with_empty.add_snapshots(std::vector<ScanSnapshot>{});
  EXPECT_THROW(analyze_series(with_empty, {}), SnapshotError);
}

TEST(SeriesErrors, TruncatedMiddleMemberFailsWithSnapshotError) {
  const std::string base_path = "/tmp/opcua_series_trunc_base.bin";
  const std::string mid_path = "/tmp/opcua_series_trunc_mid.bin";
  const std::string last_path = "/tmp/opcua_series_trunc_last.bin";
  {
    SnapshotWriter writer(base_path, 42);
    writer.set_campaign("trunc-base", 100);
    for (const auto& snapshot : make_base_study(40)) writer.add_snapshot(snapshot);
    writer.finish();
  }
  CampaignSet set;
  set.add_file(base_path, 42);
  extend_series(set, small_followup_config(), mid_path, 43);
  extend_series(set, small_followup_config(), last_path, 44);
  EXPECT_NO_THROW(analyze_series(set, {}));

  const Bytes full = read_file_bytes(mid_path);
  ASSERT_GT(full.size(), 120u);
  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{40}}) {
    write_file_bytes(mid_path, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    try {
      analyze_series(set, {});
      FAIL() << "series with member 1 truncated at " << cut << " did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }
  std::remove(base_path.c_str());
  std::remove(mid_path.c_str());
  std::remove(last_path.c_str());
}

TEST(SeriesChainValidation, OrderingRules) {
  auto member = [](const std::string& label, std::int64_t epoch) {
    SnapshotMeta meta;
    meta.campaign_label = label;
    meta.campaign_epoch_days = epoch;
    return meta;
  };
  // Strictly increasing epochs over declared members, undeclared skipped.
  EXPECT_NO_THROW(validate_campaign_chain({member("a", 100), member("b", 200), member("c", 300)}));
  EXPECT_NO_THROW(validate_campaign_chain({member("a", 100), member("", 0), member("c", 300)}));
  EXPECT_THROW(validate_campaign_chain({member("a", 200), member("b", 100)}), SnapshotError);
  EXPECT_THROW(validate_campaign_chain({member("a", 100), member("b", 200), member("c", 150)}),
               SnapshotError);
  EXPECT_THROW(validate_campaign_chain({member("a", 100), member("a", 100)}), SnapshotError);

  // A label-only member in between cannot hide a time-reversed series:
  // epochs compare against the last declared one.
  EXPECT_THROW(validate_campaign_chain({member("a", 100), member("b", 0), member("c", 50)}),
               SnapshotError);
  EXPECT_NO_THROW(validate_campaign_chain({member("a", 100), member("b", 0), member("c", 150)}));

  // The same rules through the CampaignSet / analyze_series surface.
  const ScanSnapshot week = make_measurement(100, {{10, SecurityPolicy::None, -1, "", 0}});
  CampaignSet backwards;
  backwards.add_snapshots({week}, "late", 300);
  backwards.add_snapshots({week}, "early", 200);
  EXPECT_THROW(analyze_series(backwards, {}), SnapshotError);
}

// ---------------------------------------- early-merge thread invariance ----

TEST(AnalysisEarlyMerge, ThrowingMergeNeverMergesAnIndexTwice) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> merged(64);
  for (auto& m : merged) m = 0;
  try {
    pool.parallel_for_merged(
        merged.size(), [](std::size_t) {},
        [&](std::size_t i) {
          if (++merged[i] > 1) std::abort();  // exactly-once contract
          if (i == 5) throw std::runtime_error("merge failed");
        });
    FAIL() << "merge exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "merge failed");
  }
  // The ascending prefix up to the failure merged exactly once; the
  // poisoned drain never touched anything past it.
  for (std::size_t i = 0; i <= 5; ++i) EXPECT_EQ(merged[i].load(), 1) << i;
  for (std::size_t i = 6; i < merged.size(); ++i) EXPECT_EQ(merged[i].load(), 0) << i;
}

TEST(AnalysisEarlyMerge, PrefixMergedAggregationStaysThreadInvariant) {
  const std::vector<ScanSnapshot> study = make_base_study(70, 3);
  const SnapshotVectorSource source(study, 7);  // many ragged chunks -> many prefix merges
  AnalysisOptions serial;
  serial.threads = 1;
  AnalysisOptions parallel;
  parallel.threads = 8;
  const StudyAnalysis a = analyze_source(source, serial);
  const StudyAnalysis b = analyze_source(source, parallel);
  EXPECT_TRUE(a.figures_equal(b));
}

// The sidecar checksum is no MAC: write_posture_sketch checksums whatever
// it is given, so out-of-range fields arrive with a valid checksum. The
// reader must reject them before a bucket indexes a transition table.
TEST(PostureSketch, OutOfRangeFieldsFailNamingTheField) {
  const std::string sidecar = "/tmp/opcua_test_sketch_range.bin.sketch";
  std::vector<HostPosture> postures(3);
  for (std::size_t i = 0; i < postures.size(); ++i) {
    postures[i].ip = make_ipv4(10, 9, 0, static_cast<std::uint8_t>(i + 1));
    postures[i].port = kOpcUaDefaultPort;
    postures[i].mode_bucket = 2;
    postures[i].policy_bucket = 2;
    postures[i].supports_deprecated = postures[i].anonymous = postures[i].deficient = true;
  }
  postures[2].protocol = ProtocolId::mqtt_tls;
  write_posture_sketch(sidecar, 77, postures);
  const auto in_range = read_posture_sketch(sidecar, "snap.bin", 77, postures.size());
  ASSERT_TRUE(in_range.has_value());
  EXPECT_EQ(*in_range, postures);

  struct Case {
    const char* field;
    unsigned value;
    void (*plant)(HostPosture&);
  };
  const Case cases[] = {
      {"mode_bucket", 200, [](HostPosture& p) { p.mode_bucket = 200; }},
      {"mode_bucket", 3, [](HostPosture& p) { p.mode_bucket = 3; }},
      {"policy_bucket", 9, [](HostPosture& p) { p.policy_bucket = 9; }},
      {"protocol", 77, [](HostPosture& p) { p.protocol = static_cast<ProtocolId>(77); }},
      {"protocol", kProtocolCount, [](HostPosture& p) { p.protocol = static_cast<ProtocolId>(kProtocolCount); }},
  };
  for (const Case& c : cases) {
    std::vector<HostPosture> bad = postures;
    c.plant(bad[1]);
    write_posture_sketch(sidecar, 77, bad);
    try {
      read_posture_sketch(sidecar, "snap.bin", 77, bad.size());
      ADD_FAILURE() << c.field << " " << c.value << " was accepted";
    } catch (const SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(sidecar), std::string::npos) << what;
      EXPECT_NE(what.find("posture 1 "), std::string::npos) << what;
      EXPECT_NE(what.find(std::string(c.field) + " " + std::to_string(c.value)),
                std::string::npos)
          << what;
    }
  }

  // Flag bits above the three the writer sets: patch the flags byte of
  // posture 0 (header 24 bytes, then ip 4 + port 2 + protocol 1) and
  // re-stamp the payload checksum the way the writer computes it.
  write_posture_sketch(sidecar, 77, postures);
  std::ifstream in(sidecar, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  bytes[24 + 4 + 2 + 1] = static_cast<char>(0x08);
  const std::uint64_t sum = hash64(std::string_view(bytes).substr(24, bytes.size() - 24 - 8));
  for (int i = 0; i < 8; ++i) bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
  std::ofstream(sidecar, std::ios::binary | std::ios::trunc) << bytes;
  try {
    read_posture_sketch(sidecar, "snap.bin", 77, postures.size());
    ADD_FAILURE() << "flags 8 was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("posture 0 has flags 8"), std::string::npos) << e.what();
  }
  std::remove(sidecar.c_str());
}

}  // namespace
}  // namespace opcua_study
