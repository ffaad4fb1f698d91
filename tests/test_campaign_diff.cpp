// Cross-campaign differential analysis:
//  - campaign label/epoch round-trips through the footer (files without
//    it default),
//  - the follow-up evolution model is deterministic and the streamed
//    follow-up equals its core run over the same records in memory,
//  - the matcher re-identifies hosts by address and by certificate, and
//    every CampaignDiff count matches hand-crafted expectations; each
//    host posture's deficiency follows the rules its generator plants,
//  - the diff is identical for any thread count and for streamed vs.
//    load-all inputs, and a corrupt second campaign fails with a
//    descriptive SnapshotError,
//  - on a 2,000-host base with per-host certificates, the matcher
//    re-identifies >= 70% of the base hosts in the evolved follow-up,
//  - the sharded streamed study writer produces the sharded campaign's
//    host set with thread-count-invariant bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "diff/diff.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/matcher.hpp"
#include "study/followup.hpp"
#include "study/sharded.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"

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

FollowupConfig small_followup_config() {
  FollowupConfig config;
  // Keep the test-time mint cheap and hermetic: the diff tests exercise
  // fingerprints and determinism, not minted-certificate conformance.
  config.mint_keys = 4;
  config.mint_fleet = 32;
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  return config;
}

/// Per-host unique certificates (serial = host index) from a small key
/// pool: the certificate matcher needs fingerprints that identify hosts.
const std::vector<Bytes>& unique_certs() {
  static const std::vector<Bytes> certs = [] {
    KeyFactory keys(991, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 80; ++i) {
      const RsaKeyPair kp = keys.get("diff-test-" + std::to_string(i % 6), 512);
      CertificateSpec spec;
      spec.subject = {"diff device " + std::to_string(i), "Diff Test Org", "DE"};
      spec.signature_hash = i % 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(5000 + i)};
      spec.not_before_days = days_from_civil({2019, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:difftest:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return certs;
}

HostScanRecord make_host(std::size_t i) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x16000000u + static_cast<std::uint32_t>(i));
  host.port = kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:generic:difftest-" + std::to_string(i);
  host.software_version = "1.0";

  EndpointObservation ep;
  ep.url = "opc.tcp://d" + std::to_string(i) + ":4840/";
  const SecurityPolicy policy = i % 4 == 0   ? SecurityPolicy::None
                                : i % 4 == 1 ? SecurityPolicy::Basic256
                                             : SecurityPolicy::Basic256Sha256;
  ep.mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                           : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy = policy;
  ep.policy_known = true;
  ep.token_types = i % 2 ? std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                      UserTokenType::UserName}
                         : std::vector<UserTokenType>{UserTokenType::UserName};
  if (i % 5 != 0) ep.certificate_der = unique_certs()[i % unique_certs().size()];
  host.endpoints.push_back(std::move(ep));

  host.channel = ChannelOutcome::established;
  host.anonymous_offered = i % 2 == 1;
  host.session = host.anonymous_offered ? SessionOutcome::accessible
                                        : SessionOutcome::not_attempted;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  host.bytes_sent = 1000 + i;
  host.duration_seconds = 50.0;
  return host;
}

std::vector<ScanSnapshot> make_base_study(std::size_t hosts_per_week, int weeks = 2) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 5000;
    snapshot.tcp_open_count = 500;
    for (std::size_t i = 0; i < hosts_per_week; ++i) snapshot.hosts.push_back(make_host(i));
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

/// The follow-up campaign of `base`, in memory: evolve_final_measurement
/// (the core run_followup_study_streamed runs) over the same records.
std::vector<ScanSnapshot> evolve_in_memory(const std::vector<ScanSnapshot>& base,
                                           const FollowupConfig& config) {
  const SnapshotVectorSource source(base, SnapshotWriter::kDefaultChunkRecords);
  const SnapshotMeta shell = followup_shell(config, source.week_meta(base.size() - 1));
  ScanSnapshot snapshot;
  snapshot.measurement_index = shell.measurement_index;
  snapshot.date_days = shell.date_days;
  snapshot.probes_sent = shell.probes_sent;
  snapshot.tcp_open_count = shell.tcp_open_count;
  evolve_final_measurement(source, config, [&](HostScanRecord&& host) {
    snapshot.hosts.push_back(std::move(host));
  });
  return {std::move(snapshot)};
}

/// diff_campaigns over two in-memory campaigns, chunked `chunk_records`
/// records at a time.
CampaignDiff diff_in_memory(const std::vector<ScanSnapshot>& base,
                            const std::vector<ScanSnapshot>& followup,
                            std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords,
                            const DiffOptions& options = {}) {
  return diff_campaigns(SnapshotVectorSource(base, chunk_records),
                        SnapshotVectorSource(followup, chunk_records), options);
}

// ------------------------------------------------ campaign label/epoch ----

TEST(CampaignMeta, RoundTripsThroughFooter) {
  const std::string path = "/tmp/opcua_diff_meta.bin";
  const std::vector<ScanSnapshot> study = make_base_study(4, 2);
  {
    SnapshotWriter writer(path, 42);
    writer.set_campaign("imc2020-study", days_from_civil({2020, 2, 9}));
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  ASSERT_EQ(reader.snapshots().size(), 2u);
  for (const auto& meta : reader.snapshots()) {
    EXPECT_EQ(meta.campaign_label, "imc2020-study");
    EXPECT_EQ(meta.campaign_epoch_days, days_from_civil({2020, 2, 9}));
  }
  // The records themselves are untouched by the campaign block.
  EXPECT_EQ(reader.load_all(), study);
  std::remove(path.c_str());
}

TEST(CampaignMeta, FilesWithoutLabelDefaultAndStayByteIdentical) {
  const std::string labeled = "/tmp/opcua_diff_meta_labeled.bin";
  const std::string plain = "/tmp/opcua_diff_meta_plain.bin";
  const std::vector<ScanSnapshot> study = make_base_study(3, 1);
  save_snapshots(plain, 42, study);  // never calls set_campaign
  {
    SnapshotWriter writer(labeled, 42);
    writer.set_campaign("x", 1);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  // Unlabeled writers omit the campaign block entirely: the file is
  // byte-identical to the pre-label format, and readers default the meta.
  const SnapshotReader reader(plain, 42);
  EXPECT_EQ(reader.snapshots()[0].campaign_label, "");
  EXPECT_EQ(reader.snapshots()[0].campaign_epoch_days, 0);
  EXPECT_NE(read_file_bytes(plain), read_file_bytes(labeled));
  EXPECT_EQ(read_file_bytes(plain).size() +
                (4 + 4 + 1 + 8),  // CAMP magic + string "x" (len+1 byte) + i64
            read_file_bytes(labeled).size());
  std::remove(labeled.c_str());
  std::remove(plain.c_str());
}

// ------------------------------------------------------ evolution model ----

TEST(FollowupModel, EvolutionIsAPureFunctionOfHostIdentity) {
  const FollowupModel model(small_followup_config());
  const FollowupModel twin(small_followup_config());
  int retired = 0, churned = 0, renewed = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const HostScanRecord host = make_host(i);
    const auto a = model.evolve(host);
    const auto b = model.evolve(host);   // same model, repeated call
    const auto c = twin.evolve(host);    // independent model, same config
    ASSERT_EQ(a.has_value(), b.has_value());
    ASSERT_EQ(a.has_value(), c.has_value());
    if (!a) {
      ++retired;
      continue;
    }
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
    EXPECT_EQ(a->port, host.port);
    if (a->ip != host.ip) {
      ++churned;
      EXPECT_EQ(a->ip, FollowupModel::churned_ip(host.ip));
      EXPECT_GE(a->ip, 0x80000000u);  // churn range disjoint from base
    }
    if (!host.endpoints[0].certificate_der.empty() &&
        a->endpoints[0].certificate_der != host.endpoints[0].certificate_der) {
      ++renewed;
    }
  }
  // The model exercises its interesting transitions on this population.
  EXPECT_GT(retired, 0);
  EXPECT_GT(churned, 0);
  EXPECT_GT(renewed, 0);
}

TEST(FollowupModel, ChurnedAddressesNeverCollide) {
  std::set<Ipv4> seen;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const Ipv4 ip = 0x16000000u + i * 7;
    EXPECT_TRUE(seen.insert(FollowupModel::churned_ip(ip)).second);
  }
}

TEST(FollowupStudy, StreamedMatchesInMemory) {
  const std::string base_path = "/tmp/opcua_diff_base_stream.bin";
  const std::string followup_path = "/tmp/opcua_diff_followup_stream.bin";
  const std::vector<ScanSnapshot> base = make_base_study(50);
  save_snapshots(base_path, 42, base);

  FollowupConfig config = small_followup_config();
  config.campaign_label = "followup-test";
  const std::vector<ScanSnapshot> in_memory = evolve_in_memory(base, config);
  ASSERT_EQ(in_memory.size(), 1u);
  {
    const SnapshotReader reader(base_path, 42);
    SnapshotWriter writer(followup_path, config.seed);
    run_followup_study_streamed(reader, config, writer);
  }
  const SnapshotReader followup(followup_path, config.seed);
  EXPECT_EQ(followup.load_all(), in_memory);
  ASSERT_EQ(followup.snapshots().size(), 1u);
  EXPECT_EQ(followup.snapshots()[0].campaign_label, "followup-test");
  EXPECT_EQ(followup.snapshots()[0].campaign_epoch_days,
            followup_epoch_days(config, base.back().date_days));
  // The evolved population mixes survivors and new deployments.
  EXPECT_GT(followup.total_records(), 0u);
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

// --------------------------------------------------------- the matcher ----

TEST(CampaignDiffTest, MatchesHandCraftedExpectations) {
  // Hosts without certificates keep the posture logic free of the
  // key-length conformance dimension; the cert cases get their own hosts.
  auto bare_host = [](Ipv4 ip, MessageSecurityMode mode, SecurityPolicy policy, bool anonymous) {
    HostScanRecord host;
    host.ip = ip;
    host.port = kOpcUaDefaultPort;
    host.speaks_opcua = true;
    EndpointObservation ep;
    ep.url = "opc.tcp://x:4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = anonymous ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                               : std::vector<UserTokenType>{UserTokenType::UserName};
    host.endpoints.push_back(std::move(ep));
    host.anonymous_offered = anonymous;
    return host;
  };
  auto with_cert = [&](HostScanRecord host, std::size_t cert_index) {
    host.endpoints[0].certificate_der = unique_certs()[cert_index];
    return host;
  };

  ScanSnapshot base;
  base.measurement_index = 0;
  base.date_days = 100;
  // 1: stays at its address, upgrades None-only -> SignAndEncrypt/secure,
  //    drops anonymous (deficient -> clean: remediated).
  base.hosts.push_back(bare_host(10, MessageSecurityMode::None, SecurityPolicy::None, true));
  // 2: churns IP but keeps its certificate verbatim -> re-identified.
  base.hosts.push_back(
      with_cert(bare_host(11, MessageSecurityMode::Sign, SecurityPolicy::Basic256, false), 0));
  // 3: retires.
  base.hosts.push_back(bare_host(12, MessageSecurityMode::None, SecurityPolicy::None, true));
  // 4: stays, renews its certificate (disjoint fingerprints).
  base.hosts.push_back(with_cert(
      bare_host(13, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false),
      1));
  // 6: stays None-only/anonymous but gains a first certificate.
  base.hosts.push_back(bare_host(14, MessageSecurityMode::None, SecurityPolicy::None, true));

  ScanSnapshot followup;
  followup.measurement_index = 0;
  followup.date_days = 830;
  followup.hosts.push_back(
      bare_host(10, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false));
  followup.hosts.push_back(
      with_cert(bare_host(77, MessageSecurityMode::Sign, SecurityPolicy::Basic256, false), 0));
  followup.hosts.push_back(with_cert(
      bare_host(13, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false),
      2));
  // 5: brand new arrival.
  followup.hosts.push_back(bare_host(99, MessageSecurityMode::None, SecurityPolicy::None, true));
  followup.hosts.push_back(
      with_cert(bare_host(14, MessageSecurityMode::None, SecurityPolicy::None, true), 4));

  const CampaignDiff diff = diff_in_memory({base}, {followup});
  EXPECT_EQ(diff.base_hosts, 5u);
  EXPECT_EQ(diff.followup_hosts, 5u);
  EXPECT_EQ(diff.matched_by_address, 3u);      // hosts 1, 4 and 6
  EXPECT_EQ(diff.matched_by_certificate, 1u);  // host 2 across the churn
  EXPECT_EQ(diff.retired, 1u);                 // host 3
  EXPECT_EQ(diff.arrived, 1u);                 // host 5

  EXPECT_EQ(diff.mode_transitions.at(0, 0), 1u);  // host 6 stays None
  EXPECT_EQ(diff.mode_transitions.at(0, 2), 1u);  // None -> SignAndEncrypt
  EXPECT_EQ(diff.mode_transitions.at(1, 1), 1u);  // Sign stays
  EXPECT_EQ(diff.mode_transitions.at(2, 2), 1u);
  EXPECT_EQ(diff.mode_transitions.upgraded(), 1u);
  EXPECT_EQ(diff.mode_transitions.downgraded(), 0u);
  EXPECT_EQ(diff.policy_transitions.at(0, 0), 1u);
  EXPECT_EQ(diff.policy_transitions.at(0, 2), 1u);  // None -> secure
  EXPECT_EQ(diff.policy_transitions.at(1, 1), 1u);  // deprecated retained
  EXPECT_EQ(diff.policy_transitions.at(2, 2), 1u);

  EXPECT_EQ(diff.deprecated_retained, 1u);
  EXPECT_EQ(diff.deprecated_dropped, 0u);
  EXPECT_EQ(diff.anonymous_retained, 1u);  // host 6
  EXPECT_EQ(diff.anonymous_dropped, 1u);
  EXPECT_EQ(diff.anonymous_adopted, 0u);

  EXPECT_EQ(diff.certs_verbatim, 1u);  // host 2
  EXPECT_EQ(diff.certs_renewed, 1u);   // host 4
  EXPECT_EQ(diff.certs_gained, 1u);    // host 6
  EXPECT_EQ(diff.certs_lost, 0u);
  EXPECT_EQ(diff.certs_absent, 1u);    // host 1
  EXPECT_EQ(diff.certs_rotated, 0u);

  EXPECT_EQ(diff.remediated, 1u);       // host 1
  // host 2 (deprecated maximum), host 4 (512-bit key too weak for its
  // announced Basic256Sha256) and host 6 (anonymous) stay deficient.
  EXPECT_EQ(diff.still_deficient, 3u);
  EXPECT_EQ(diff.regressed, 0u);
  EXPECT_EQ(diff.never_deficient, 0u);
}

TEST(CampaignDiffTest, PostureDeficiencyMatchesAssessReference) {
  // Every §5.2 deficiency kind plus clean hosts, and multi-endpoint hosts
  // whose first certificate does not parse. Each host's expected deficiency
  // follows from the rules make_host plants:
  //  - security None on i % 4 == 0, deprecated Basic256 on i % 4 == 1,
  //    Basic256Sha256 otherwise;
  //  - a 512-bit certificate, too weak for Basic256Sha256, on i % 5 != 0
  //    and on every host rewritten below (i % 8 == 2): its leading DER does
  //    not parse, so the next endpoint's certificate becomes primary;
  //  - anonymous access on odd i.
  std::vector<ScanSnapshot> study = make_base_study(40, 1);
  for (std::size_t i = 2; i < study.back().hosts.size(); i += 8) {
    HostScanRecord& host = study.back().hosts[i];
    EndpointObservation garbled = host.endpoints.front();
    garbled.url += "garbled";
    garbled.certificate_der = {0x30, 0x03, 0x02, 0x01, 0x07};
    EndpointObservation second = host.endpoints.front();
    second.url += "second";
    second.certificate_der = unique_certs()[(i + 40) % unique_certs().size()];
    host.endpoints = {garbled, second, host.endpoints.front()};
  }
  const std::vector<HostScanRecord>& hosts = study.back().hosts;
  std::vector<bool> expected_deficient(hosts.size());
  int none = 0, deprecated = 0, weak = 0, anonymous = 0, clean = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    none += i % 4 == 0;
    deprecated += i % 4 == 1;
    const bool weak_cert = i % 4 >= 2 && (i % 5 != 0 || i % 8 == 2);
    weak += weak_cert;
    anonymous += i % 2;
    expected_deficient[i] = i % 4 < 2 || weak_cert || i % 2 == 1;
    clean += !expected_deficient[i];
  }
  EXPECT_GT(none, 0);
  EXPECT_GT(deprecated, 0);
  EXPECT_GT(weak, 0);
  EXPECT_GT(anonymous, 0);
  EXPECT_GT(clean, 0);

  const std::string path = "/tmp/opcua_diff_posture_reference.bin";
  save_snapshots(path, 42, study);
  const SnapshotReader reader(path, 42);
  ThreadPool pool(2);
  const std::vector<HostPosture> in_memory = collect_postures(SnapshotVectorSource(study, 7), pool);
  const std::vector<HostPosture> from_file = collect_postures(ReaderRecordSource(reader), pool);
  ASSERT_EQ(in_memory.size(), hosts.size());
  ASSERT_EQ(from_file.size(), hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // The mapped v6 columns and the same records transposed per chunk give
    // the same postures, field for field.
    EXPECT_TRUE(in_memory[i] == from_file[i]) << "host " << i;
    std::vector<std::uint64_t> fps;
    for (const Bytes& der : hosts[i].distinct_certificates()) {
      fps.push_back(certificate_fingerprint64(der));
    }
    std::sort(fps.begin(), fps.end());
    fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
    for (const std::vector<HostPosture>* postures : {&in_memory, &from_file}) {
      const HostPosture& p = (*postures)[i];
      EXPECT_EQ(p.deficient, expected_deficient[i]) << "host " << i;
      EXPECT_EQ(p.anonymous, hosts[i].anonymous_offered) << "host " << i;
      EXPECT_EQ(p.fps, fps) << "host " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(CampaignDiffTest, ReusedCertificatesReIdentifyNobody) {
  // Two base hosts share one certificate; both churn. The fingerprint is
  // ambiguous on the base side, so neither may be cert-matched.
  auto host_with = [&](Ipv4 ip, std::size_t cert_index) {
    HostScanRecord host;
    host.ip = ip;
    host.port = kOpcUaDefaultPort;
    host.speaks_opcua = true;
    EndpointObservation ep;
    ep.url = "opc.tcp://x:4840/";
    ep.mode = MessageSecurityMode::SignAndEncrypt;
    ep.policy = SecurityPolicy::Basic256Sha256;
    ep.policy_uri = std::string(policy_info(ep.policy).uri);
    ep.policy_known = true;
    ep.token_types = {UserTokenType::UserName};
    ep.certificate_der = unique_certs()[cert_index];
    host.endpoints.push_back(std::move(ep));
    return host;
  };
  ScanSnapshot base, followup;
  base.hosts = {host_with(1, 3), host_with(2, 3)};
  followup.hosts = {host_with(50, 3), host_with(51, 3)};
  const CampaignDiff diff = diff_in_memory({base}, {followup});
  EXPECT_EQ(diff.matched_by_certificate, 0u);
  EXPECT_EQ(diff.retired, 2u);
  EXPECT_EQ(diff.arrived, 2u);
}

// ------------------------------------------------ determinism and scale ----

TEST(CampaignDiffTest, DeterministicAcrossThreadsAndStreamedVsLoadAll) {
  const std::string base_path = "/tmp/opcua_diff_det_base.bin";
  const std::string followup_path = "/tmp/opcua_diff_det_followup.bin";
  const std::vector<ScanSnapshot> base = make_base_study(80);
  const FollowupConfig config = small_followup_config();
  const std::vector<ScanSnapshot> followup = evolve_in_memory(base, config);
  {
    // Small chunks -> many parallel posture work units with ragged tails.
    SnapshotWriter writer(base_path, 42, 17);
    writer.set_campaign("det-base", 100);
    for (const auto& snapshot : base) writer.add_snapshot(snapshot);
    writer.finish();
  }
  {
    SnapshotWriter writer(followup_path, config.seed, 23);
    writer.set_campaign("det-followup", 930);
    for (const auto& snapshot : followup) writer.add_snapshot(snapshot);
    writer.finish();
  }
  DiffOptions serial;
  serial.threads = 1;
  DiffOptions parallel;
  parallel.threads = 8;
  const CampaignDiff streamed1 = diff_files(base_path, 42, followup_path, config.seed, serial);
  const CampaignDiff streamed8 = diff_files(base_path, 42, followup_path, config.seed, parallel);
  EXPECT_EQ(streamed1, streamed8);

  // Load-all inputs (in-memory vectors, no campaign labels) must produce
  // the identical counts, for any chunking.
  const CampaignDiff load_all = diff_in_memory(base, followup, 7, parallel);
  EXPECT_TRUE(streamed1.counts_equal(load_all));
  EXPECT_GT(streamed1.matched(), 0u);
  EXPECT_GT(streamed1.matched_by_certificate, 0u);
  EXPECT_GT(streamed1.retired, 0u);
  EXPECT_GT(streamed1.arrived, 0u);
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

/// Base certificates for the follow-up-shape test: 24 signed DERs, then
/// per-host unique DERs made by perturbing trailing signature bytes
/// (parseable, unique thumbprints, no per-host signing cost).
std::vector<Bytes> followup_fleet() {
  KeyFactory keys(20200830, "");
  std::vector<Bytes> fleet;
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("diff-base-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"diff device " + std::to_string(i),
                    i % 5 == 0 ? "Bachmann electronic" : "Diff Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(2000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:diff:device:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return fleet;
}

/// Base host #i: the study's posture archetypes (None-only, deprecated
/// maximum, strong policy, mixed), anonymous everywhere, an 80/20 split of
/// unique and reused certificates.
HostScanRecord fleet_host(std::size_t i, const std::vector<Bytes>& fleet) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = i % 13 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 48);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.product_uri = "http://example.org/diff";
  host.application_name = "diff host " + std::to_string(i);
  host.software_version = "2." + std::to_string(i % 4) + ".0";
  switch (i % 5) {
    case 0: host.application_uri = "urn:bachmann:diff-" + std::to_string(i); break;
    case 1: host.application_uri = "urn:beckhoff:diff-" + std::to_string(i); break;
    default: host.application_uri = "urn:generic:opcua:diff-" + std::to_string(i); break;
  }

  Bytes cert = fleet[i % fleet.size()];
  if (i % 5 != 4) {  // every fifth host is a member of a reuse cluster
    for (std::size_t b = 0; b < 4; ++b) {
      cert[cert.size() - 1 - b] ^= static_cast<std::uint8_t>(i >> (8 * b));
    }
  }
  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://diff" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = i % 3 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                : std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                             UserTokenType::UserName};
    if (with_cert) ep.certificate_der = cert;
    host.endpoints.push_back(std::move(ep));
  };
  switch (i % 4) {
    case 0:
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false);
      break;
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

  host.channel = i % 11 == 10 ? ChannelOutcome::cert_rejected : ChannelOutcome::established;
  host.channel_policy = host.endpoints.back().policy;
  host.channel_mode = host.endpoints.back().mode;
  host.anonymous_offered = true;
  host.session = (i % 3 == 0 && host.channel == ChannelOutcome::established)
                     ? SessionOutcome::accessible
                     : SessionOutcome::auth_rejected;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  host.bytes_sent = 40000 + (i % 1000);
  host.duration_seconds = 90.0 + static_cast<double>(i % 60);
  return host;
}

TEST(CampaignDiffTest, FollowupReIdentifiesMostBaseHosts) {
  // The default model retires 12% of the hosts and churns a quarter of the
  // addresses, so address matches alone reach 66%: the floor needs the
  // certificate pass to carry churned hosts across.
  const std::string base_path = "/tmp/opcua_diff_shape_base.bin";
  const std::string followup_path = "/tmp/opcua_diff_shape_followup.bin";
  constexpr std::size_t kHosts = 2000;
  constexpr std::uint64_t kBaseSeed = 20200830;
  const std::vector<Bytes> fleet = followup_fleet();
  {
    SnapshotWriter writer(base_path, kBaseSeed);
    writer.set_campaign("bench-base-2020", days_from_civil({2020, 8, 30}));
    writer.begin_snapshot(0, days_from_civil({2020, 8, 30}));
    for (std::size_t i = 0; i < kHosts; ++i) writer.add_host(fleet_host(i, fleet));
    writer.end_snapshot(kHosts * 2, kHosts + kHosts / 2);
    writer.finish();
  }
  FollowupConfig config;
  config.seed = 20220306;
  config.campaign_label = "bench-followup-2022";
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  {
    const SnapshotReader base(base_path, kBaseSeed);
    SnapshotWriter writer(followup_path, config.seed);
    run_followup_study_streamed(base, config, writer);
  }
  const CampaignDiff diff = diff_files(base_path, kBaseSeed, followup_path, config.seed, {});
  ASSERT_EQ(diff.base_hosts, kHosts);
  // Reads 0.7495.
  EXPECT_GE(static_cast<double>(diff.matched()), 0.7 * static_cast<double>(kHosts))
      << diff.matched() << " of " << kHosts << " matched";
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

TEST(CampaignDiffTest, CorruptSecondCampaignFailsWithSnapshotError) {
  const std::string base_path = "/tmp/opcua_diff_corrupt_base.bin";
  const std::string followup_path = "/tmp/opcua_diff_corrupt_followup.bin";
  const std::vector<ScanSnapshot> base = make_base_study(30);
  const std::vector<ScanSnapshot> followup = evolve_in_memory(base, small_followup_config());
  save_snapshots(base_path, 42, base);
  save_snapshots(followup_path, 42, followup);
  const Bytes full = read_file_bytes(followup_path);
  ASSERT_GT(full.size(), 200u);

  // Truncation anywhere in the second campaign must surface as a
  // descriptive SnapshotError from the diff entry point.
  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{40}}) {
    write_file_bytes(followup_path, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    try {
      diff_files(base_path, 42, followup_path, 42, {});
      FAIL() << "diff of a truncated follow-up campaign (cut at " << cut << ") did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }

  // A flipped byte inside a record payload fails on decode, not before:
  // corrupt the first chunk's payload and expect the posture pass to
  // surface the SnapshotError (or the flip to land harmlessly).
  Bytes mutated = full;
  mutated[80] ^= 0x40;
  write_file_bytes(followup_path, mutated);
  try {
    const CampaignDiff diff = diff_files(base_path, 42, followup_path, 42, {});
    EXPECT_EQ(diff.followup_hosts, followup.back().hosts.size());
  } catch (const SnapshotError& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

TEST(CampaignDiffTest, PairingValidation) {
  const std::vector<ScanSnapshot> base = make_base_study(10, 1);
  const std::vector<ScanSnapshot> followup = evolve_in_memory(base, small_followup_config());
  auto write_labeled = [&](const std::string& path, const std::vector<ScanSnapshot>& study,
                           const std::string& label, std::int64_t epoch) {
    SnapshotWriter writer(path, 42);
    writer.set_campaign(label, epoch);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  };
  const std::string a = "/tmp/opcua_diff_pair_a.bin";
  const std::string b = "/tmp/opcua_diff_pair_b.bin";

  // Follow-up epoch before the base epoch: the pairing is backwards.
  write_labeled(a, base, "study-2020", 2000);
  write_labeled(b, followup, "study-2022", 1000);
  EXPECT_THROW(diff_files(a, 42, b, 42, {}), SnapshotError);

  // The same campaign on both sides is not a pair either.
  EXPECT_THROW(diff_files(a, 42, a, 42, {}), SnapshotError);

  // Correctly ordered pair passes.
  write_labeled(b, followup, "study-2022", 2730);
  EXPECT_NO_THROW(diff_files(a, 42, b, 42, {}));

  // Unlabeled inputs predate the campaign block: nothing to validate.
  save_snapshots(a, 42, base);
  save_snapshots(b, 42, followup);
  EXPECT_NO_THROW(diff_files(a, 42, b, 42, {}));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ------------------------------------------- sharded streamed scan side ----

PopulationPlan diff_engine_plan() {
  PopulationPlan plan;
  for (int i = 0; i < 10; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "diff-engine";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:diff-engine-" + std::to_string(i);
    host.application_name = "diff engine host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 3);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    if (i % 3 == 0) {
      host.modes = {MessageSecurityMode::None};
      host.policies = {SecurityPolicy::None};
      host.tokens = {UserTokenType::Anonymous};
      host.outcome = PlannedOutcome::accessible;
      host.classification = PlannedClass::test;
      host.variable_count = 3;
    } else {
      host.modes = {MessageSecurityMode::None, MessageSecurityMode::Sign};
      host.policies = {SecurityPolicy::None, SecurityPolicy::Basic256Sha256};
      host.tokens = {UserTokenType::UserName};
      host.outcome = PlannedOutcome::auth_rejected;
    }
    plan.hosts.push_back(std::move(host));
  }
  return plan;
}

TEST(ShardedStreamedStudy, MatchesShardedCampaignWithThreadInvariantBytes) {
  const PopulationPlan plan = diff_engine_plan();
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  KeyFactory keys(42, "");

  ShardedCampaignConfig config;
  config.campaign.seed = 5;
  config.campaign.grabber.client = make_scanner_identity(42, keys);
  config.shards = 5;

  auto run_streamed = [&](const std::string& path, int threads) {
    Deployer deployer(plan, deploy_config);
    ShardedCampaignConfig streamed_config = config;
    streamed_config.threads = threads;
    SnapshotWriter writer(path, 42);
    const SnapshotMeta meta =
        run_sharded_campaign_streamed(deployer, 7, streamed_config, writer);
    writer.finish();
    return meta;
  };
  const std::string serial_path = "/tmp/opcua_diff_sharded_serial.bin";
  const std::string threaded_path = "/tmp/opcua_diff_sharded_threaded.bin";
  const SnapshotMeta meta1 = run_streamed(serial_path, 1);

  // Same bytes for any worker-thread count: shard batches land in shard
  // order regardless of completion order. At 2 threads the five shards
  // run in two windows (4 + 1); at 4 threads in one.
  for (const int threads : {2, 4}) {
    EXPECT_EQ(meta1, run_streamed(threaded_path, threads)) << threads << " threads";
    EXPECT_EQ(read_file_bytes(serial_path), read_file_bytes(threaded_path))
        << threads << " threads";
  }

  // Same host set (and records) as the buffered sharded merge; only the
  // canonical order differs (shard-major vs. global sort).
  Deployer deployer(plan, deploy_config);
  ShardedCampaignConfig merged_config = config;
  merged_config.threads = 2;
  const ScanSnapshot merged = run_sharded_campaign(deployer, 7, merged_config);
  std::vector<ScanSnapshot> streamed = SnapshotReader(serial_path, 42).load_all();
  ASSERT_EQ(streamed.size(), 1u);
  std::sort(streamed[0].hosts.begin(), streamed[0].hosts.end(),
            [](const HostScanRecord& a, const HostScanRecord& b) {
              return std::make_pair(a.ip, a.port) < std::make_pair(b.ip, b.port);
            });
  EXPECT_EQ(streamed[0].hosts, merged.hosts);
  EXPECT_EQ(meta1.probes_sent, merged.probes_sent);
  EXPECT_EQ(meta1.tcp_open_count, merged.tcp_open_count);
  EXPECT_EQ(meta1.host_count, merged.hosts.size());
  std::remove(serial_path.c_str());
  std::remove(threaded_path.c_str());
}

}  // namespace
}  // namespace opcua_study
