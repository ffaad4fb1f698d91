// The study-service layer:
//  - posture sketch sidecars: round trip, absent-sidecar fallback, and
//    the staleness contract (a sidecar whose fingerprint mismatches its
//    snapshot fails with an error naming BOTH paths — never served,
//    never silently skipped; truncation and bit flips fail the checksum),
//    and a write the disk refuses throws and leaves no sidecar,
//  - sketch-fed series analysis is byte-identical to the full walk, and
//    diff_files serves valid sidecars without reading a snapshot chunk
//    and rejects a stale one naming both paths,
//  - the incremental-append contract: appending a sketched campaign to a
//    resident series reads zero snapshot chunks (pinned through the
//    snapshot_chunks_read counter), and a repeated study or posture query
//    is one cache hit that computes nothing,
//  - a query for a campaign not yet registered fails without a cache
//    entry, so the name answers normally once it is registered,
//  - the cold study artifact (analyze_reader at hardware width) of a
//    grown member with minted certificates equals an 8-thread analysis,
//    and cold studies raced through 2 and 8 workers of a fresh catalog
//    render the inline bodies,
//  - every comparison path (diff_files, a walked diff_campaigns, the
//    catalog's diff, the steps of analyze_series and of the resident
//    series) computes the same step, with sidecars and without, and a
//    backwards pair fails on each with one error text,
//  - query responses are byte-identical across inline execution, a
//    1-worker pool, and an 8-worker pool — including error documents,
//  - posture responses over a mixed OPC UA + MQTT fleet equal the
//    goldens in tests/data/svc.posture_battery.txt, and study, diff,
//    series and catalog responses over that fleet, with error and
//    rejected documents, equal tests/data/svc.response_battery.txt,
//  - admission control: submits beyond max_queue are rejected
//    immediately; workers == 0 + drain() runs the queue deterministically,
//  - parse_query_request round trips and rejects malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "analysis/analysis.hpp"
#include "figure_dump.hpp"
#include "obs/metrics.hpp"
#include "series/sketch.hpp"
#include "study/followup.hpp"
#include "svc/service.hpp"
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

/// Per-index unique certificates from a small key pool (same scheme as
/// the series tests): the matcher needs identifying fingerprints.
const std::vector<Bytes>& unique_certs() {
  static const std::vector<Bytes> certs = [] {
    KeyFactory keys(911, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 24; ++i) {
      const RsaKeyPair kp = keys.get("svc-test-" + std::to_string(i % 4), 512);
      CertificateSpec spec;
      spec.subject = {"svc device " + std::to_string(i), "Svc Test Org", "DE"};
      spec.signature_hash = HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(9000 + i)};
      spec.not_before_days = days_from_civil({2019, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:svctest:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return certs;
}

HostScanRecord make_host(std::size_t i) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x20000000u + static_cast<std::uint32_t>(i));
  host.port = kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.speaks_opcua = true;
  host.application_uri = "urn:generic:svctest-" + std::to_string(i);
  EndpointObservation ep;
  ep.url = "opc.tcp://x:4840/";
  const SecurityPolicy policy = i % 3 == 0   ? SecurityPolicy::None
                                : i % 3 == 1 ? SecurityPolicy::Basic256
                                             : SecurityPolicy::Basic256Sha256;
  ep.mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                           : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy = policy;
  ep.policy_known = true;
  ep.token_types = i % 4 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                              : std::vector<UserTokenType>{UserTokenType::UserName};
  if (i % 5 != 0) ep.certificate_der = unique_certs()[i % unique_certs().size()];
  host.endpoints.push_back(std::move(ep));
  host.anonymous_offered = i % 4 == 0;
  return host;
}

/// Write a one-measurement campaign of `hosts` hosts to `path`.
void write_campaign(const std::string& path, std::uint64_t seed, const std::string& label,
                    std::int64_t epoch_days, std::size_t hosts,
                    HostScanRecord (*host_at)(std::size_t) = make_host) {
  SnapshotWriter writer(path, seed);
  writer.set_campaign(label, epoch_days);
  writer.begin_snapshot(0, epoch_days);
  for (std::size_t i = 0; i < hosts; ++i) writer.add_host(host_at(i));
  writer.end_snapshot(hosts * 2, hosts);
  writer.finish();
}

/// A mixed OPC UA + MQTT fleet for the posture goldens: all three mode
/// and policy buckets, 48 ASes (AS 0 among them, so the default as_limit
/// truncates), anonymous and deficient hosts beside clean ones.
HostScanRecord make_fleet_host(std::size_t i) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x30000000u + static_cast<std::uint32_t>(i));
  host.asn = i % 41 == 0 ? 0 : 64500 + static_cast<std::uint32_t>((i * 7) % 47);
  host.speaks_opcua = true;
  host.application_uri = "urn:generic:svcfleet-" + std::to_string(i);
  const bool mqtt = i % 5 == 2;
  host.protocol = mqtt ? ProtocolId::mqtt_tls : ProtocolId::opcua;
  host.port = mqtt ? kMqttTlsDefaultPort : kOpcUaDefaultPort;
  host.anonymous_offered = i % 4 == 1;
  using Mode = MessageSecurityMode;
  using Policy = SecurityPolicy;
  std::vector<std::pair<Mode, Policy>> endpoints;
  if (mqtt) {
    const Policy tls = i % 3 == 0 ? Policy::Basic128Rsa15 : Policy::Basic256Sha256;
    endpoints = {{Mode::SignAndEncrypt, tls}};
  } else {
    switch ((i / 3) % 6) {
      case 0: endpoints = {{Mode::None, Policy::None}}; break;
      case 1: endpoints = {{Mode::Sign, Policy::Basic128Rsa15}}; break;
      case 2: endpoints = {{Mode::SignAndEncrypt, Policy::Basic256Sha256}}; break;
      case 3:
        endpoints = {{Mode::None, Policy::None}, {Mode::SignAndEncrypt, Policy::Basic256}};
        break;
      case 4:
        endpoints = {{Mode::Sign, Policy::Basic256Sha256},
                     {Mode::SignAndEncrypt, Policy::Basic128Rsa15}};
        break;
      default: endpoints = {{Mode::None, Policy::None}, {Mode::Sign, Policy::Basic256Sha256}};
    }
  }
  for (const auto& [mode, policy] : endpoints) {
    EndpointObservation ep;
    ep.url = mqtt ? "mqtts://x:8883/" : "opc.tcp://x:4840/";
    ep.mode = mode;
    ep.policy = policy;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy_known = true;
    ep.token_types = host.anonymous_offered
                         ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                         : std::vector<UserTokenType>{UserTokenType::UserName};
    // 512-bit keys: a certificate makes a secure-policy host deficient.
    if (i % 3 == 1) ep.certificate_der = unique_certs()[i % unique_certs().size()];
    host.endpoints.push_back(std::move(ep));
  }
  return host;
}

std::vector<HostPosture> walk_postures(const std::string& path, std::uint64_t seed) {
  const SnapshotReader reader(path, seed);
  ThreadPool pool(1);
  const ReaderRecordSource source(reader);
  return collect_postures(source, pool);
}

FollowupConfig small_followup_config() {
  FollowupConfig config;
  config.mint_keys = 4;
  config.mint_fleet = 32;
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  return config;
}

struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const auto& path : paths) {
      std::remove(path.c_str());
      std::remove(posture_sketch_path(path).c_str());
    }
  }
  const std::string& add(const std::string& path) {
    paths.push_back(path);
    return paths.back();
  }
};

// ------------------------------------------------------ sketch sidecars ----

TEST(PostureSketch, RoundTripPreservesEveryPosture) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_rt.bin");
  write_campaign(path, 42, "sketch-rt", 100, 60);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  ASSERT_EQ(walked.size(), 60u);

  const std::string sidecar = posture_sketch_path(path);
  EXPECT_EQ(sidecar, path + ".sketch");
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  const auto loaded =
      read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, walked);
}

TEST(PostureSketch, AbsentSidecarReturnsNullopt) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_absent.bin");
  write_campaign(path, 42, "sketch-absent", 100, 5);
  EXPECT_FALSE(read_posture_sketch(posture_sketch_path(path), path, 1234, 5).has_value());
}

TEST(PostureSketch, StaleFingerprintFailsNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_stale.bin");
  write_campaign(path, 42, "sketch-stale", 100, 20);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  const std::string sidecar = posture_sketch_path(path);
  // A sketch cut from "another" snapshot: stamp a different fingerprint.
  write_posture_sketch(sidecar, reader.file_fingerprint() ^ 1, walked);
  try {
    read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size());
    FAIL() << "stale sketch did not throw";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos) << what;
    EXPECT_NE(what.find(sidecar), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(PostureSketch, HostCountMismatchFailsNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_count.bin");
  write_campaign(path, 42, "sketch-count", 100, 20);
  const SnapshotReader reader(path, 42);
  std::vector<HostPosture> walked = walk_postures(path, 42);
  walked.pop_back();  // one posture short of the snapshot's host count
  const std::string sidecar = posture_sketch_path(path);
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  try {
    read_posture_sketch(sidecar, path, reader.file_fingerprint(), 20);
    FAIL() << "count-mismatched sketch did not throw";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(sidecar), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(PostureSketch, TruncationAndBitFlipsFailTheChecksum) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_corrupt.bin");
  write_campaign(path, 42, "sketch-corrupt", 100, 30);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  const std::string sidecar = posture_sketch_path(path);
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  const Bytes full = read_file_bytes(sidecar);
  ASSERT_GT(full.size(), 48u);

  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{10}}) {
    write_file_bytes(sidecar, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    EXPECT_THROW(read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()),
                 SnapshotError)
        << "cut at " << cut;
  }
  Bytes flipped = full;
  flipped[flipped.size() / 2] ^= 0x40;
  write_file_bytes(sidecar, flipped);
  EXPECT_THROW(read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()),
               SnapshotError);
  // The pristine bytes still load.
  write_file_bytes(sidecar, full);
  EXPECT_TRUE(
      read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()).has_value());
}

TEST(PostureSketch, EnsureWritesOnceThenLoads) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_sketch_ensure.bin");
  write_campaign(path, 42, "sketch-ensure", 100, 25);
  ThreadPool pool(1);
  const std::vector<HostPosture> first = ensure_posture_sketch(path, 42, pool);
  const Bytes sidecar_bytes = read_file_bytes(posture_sketch_path(path));
  ASSERT_FALSE(sidecar_bytes.empty());
  const std::vector<HostPosture> second = ensure_posture_sketch(path, 42, pool);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, walk_postures(path, 42));
  // Second call loaded the sidecar instead of rewriting it.
  EXPECT_EQ(read_file_bytes(posture_sketch_path(path)), sidecar_bytes);
}

// A write the disk refuses must throw and leave nothing at the sidecar
// path: the .tmp is a link to /dev/full, so the bytes are refused when the
// stream flushes. The sidecar path is never opened, since a write that
// wrongly succeeded renames that link into place.
TEST(PostureSketch, FailedWriteLeavesNoSidecar) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const std::string sidecar = "/tmp/opcua_svc_sketch_full.bin.sketch";
  std::filesystem::remove(sidecar);
  std::filesystem::remove(sidecar + ".tmp");
  std::filesystem::create_symlink("/dev/full", sidecar + ".tmp");
  std::vector<HostPosture> postures(5);
  for (std::size_t i = 0; i < postures.size(); ++i) {
    postures[i].ip = make_ipv4(10, 8, 0, static_cast<std::uint8_t>(i + 1));
    postures[i].port = kOpcUaDefaultPort;
  }
  EXPECT_THROW(write_posture_sketch(sidecar, 77, postures), SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::symlink_status(sidecar)));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::symlink_status(sidecar + ".tmp")));
  std::filesystem::remove(sidecar);
  std::filesystem::remove(sidecar + ".tmp");
}

// -------------------------------------------- sketch-fed series analysis ----

TEST(SeriesSketches, SketchFedAnalysisIsByteIdenticalToTheWalk) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_series_base.bin");
  write_campaign(base, 42, "svc-series-base", 100, 80);
  CampaignSet set;
  set.add_file(base, 42);
  // File-backed extend_series cuts a sketch sidecar per member.
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_series_f1.bin"), 43);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_series_f2.bin"), 44);
  EXPECT_TRUE(read_posture_sketch(posture_sketch_path(tmp.paths[1]), tmp.paths[1],
                                  SnapshotReader(tmp.paths[1], 43).file_fingerprint(),
                                  set.final_metas()[1].host_count)
                  .has_value());

  SeriesOptions with_sketches;
  with_sketches.threads = 1;
  SeriesOptions without_sketches;
  without_sketches.threads = 1;
  without_sketches.use_sketches = false;
  const SeriesAnalysis fed = analyze_series(set, with_sketches);
  const SeriesAnalysis walked = analyze_series(set, without_sketches);
  EXPECT_EQ(fed, walked);
  EXPECT_EQ(series_analysis_json(fed), series_analysis_json(walked));
}

// diff_files loads its members' postures as analyze_series does: valid
// sidecars stand in for the walk (no snapshot chunk is read), and a stale
// one fails naming the sidecar and the snapshot instead of being walked
// past.
TEST(SeriesSketches, DiffFilesServesValidSidecarsAndRejectsStaleOnes) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_diff_sketch_m0.bin");
  write_campaign(base, 42, "svc-diff-sketch-base", 100, 60);
  CampaignSet set;
  set.add_file(base, 42);
  const std::string grown = tmp.add("/tmp/opcua_svc_diff_sketch_m1.bin");
  extend_series(set, small_followup_config(), grown, 43);
  ThreadPool pool(1);
  ensure_posture_sketch(base, 42, pool);
  const SnapshotReader base_reader(base, 42);
  const SnapshotReader grown_reader(grown, 43);
  const CampaignDiff walked =
      diff_campaigns(ReaderRecordSource(base_reader), ReaderRecordSource(grown_reader));

  obs::reset();
  obs::set_enabled(true);
  const CampaignDiff sketched = diff_files(base, 42, grown, 43);
  EXPECT_EQ(obs::collect()[obs::Metric::snapshot_chunks_read].total(), 0u);
  obs::set_enabled(false);
  obs::reset();
  EXPECT_TRUE(sketched == walked);
  EXPECT_EQ(campaign_diff_json(sketched), campaign_diff_json(walked));

  const std::string sidecar = posture_sketch_path(grown);
  write_posture_sketch(sidecar, grown_reader.file_fingerprint() ^ 1, walk_postures(grown, 43));
  try {
    diff_files(base, 42, grown, 43);
    FAIL() << "diff_files served a stale sidecar";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos) << what;
    EXPECT_NE(what.find("sidecar '" + sidecar + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("snapshot '" + grown + "'"), std::string::npos) << what;
  }
}

// ------------------------------------------------- incremental appends ----

TEST(CampaignCatalog, IncrementalAppendReadsZeroSnapshotChunks) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_cat_base.bin");
  write_campaign(base, 42, "svc-cat-base", 100, 80);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cat_f1.bin"), 43);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cat_f2.bin"), 44);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cat_f3.bin"), 45);

  obs::reset();
  obs::set_enabled(true);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_campaign("m1", tmp.paths[1], 43);
  catalog.register_campaign("m2", tmp.paths[2], 44);
  catalog.register_campaign("m3", tmp.paths[3], 45);
  catalog.register_series("history", {"m0", "m1", "m2"});
  const std::shared_ptr<const SeriesAnalysis> before = catalog.series("history");
  EXPECT_EQ(before->members.size(), 3u);

  // The appended member was generated by extend_series, so its posture
  // sketch sidecar exists: the append is one sketch load plus one match —
  // no snapshot chunk is decoded or mapped, for any series length.
  const std::uint64_t chunks_before =
      obs::collect()[obs::Metric::snapshot_chunks_read].total();
  EXPECT_EQ(catalog.append_to_series("history", "m3"), 4u);
  const std::uint64_t chunks_after =
      obs::collect()[obs::Metric::snapshot_chunks_read].total();
  EXPECT_EQ(chunks_after - chunks_before, 0u);

  // The refreshed analysis matches the batch path over the same members.
  const std::shared_ptr<const SeriesAnalysis> after = catalog.series("history");
  EXPECT_EQ(after->members.size(), 4u);
  SeriesOptions batch_options;
  batch_options.threads = 1;
  const SeriesAnalysis batch = analyze_series(set, batch_options);
  EXPECT_EQ(*after, batch);
  EXPECT_EQ(series_analysis_json(*after), series_analysis_json(batch));

  // A repeated study or posture query is served from the resident
  // artifact: the same body, one hit in its artifact cell, no miss and no
  // chunk read.
  svc::QueryService service(catalog);
  const std::pair<const char*, std::string_view> repeats[] = {
      {"kind=study campaign=m0", "study"},
      {"kind=posture campaign=m1", "postures"},
  };
  for (const auto& [text, artifact] : repeats) {
    const svc::QueryRequest request = svc::parse_query_request(text);
    const std::string first = service.execute(request).body;
    const obs::MetricsSample pre = obs::collect();
    EXPECT_EQ(service.execute(request).body, first) << text;
    const obs::MetricsSample post = obs::collect();
    const auto delta = [&](obs::Metric metric) {
      return post[metric].total() - pre[metric].total();
    };
    const std::size_t cell = static_cast<std::size_t>(
        std::find(std::begin(obs::kArtifactCells), std::end(obs::kArtifactCells), artifact) -
        std::begin(obs::kArtifactCells));
    EXPECT_EQ(post[obs::Metric::svc_cache_hits].cells.at(cell) -
                  pre[obs::Metric::svc_cache_hits].cells.at(cell),
              1u)
        << text;
    EXPECT_EQ(delta(obs::Metric::svc_cache_hits), 1u) << text;
    EXPECT_EQ(delta(obs::Metric::svc_cache_misses), 0u) << text;
    EXPECT_EQ(delta(obs::Metric::snapshot_chunks_read), 0u) << text;
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(CampaignCatalog, UnknownNameDoesNotPoisonLaterRegistration) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_unknown_base.bin");
  write_campaign(base, 42, "svc-unknown-base", 100, 40);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_unknown_f1.bin"), 43);

  const std::vector<std::string> battery = {
      "kind=posture campaign=m1",
      "kind=study campaign=m1",
      "kind=diff base=m0 followup=m1",
  };
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_series("history", {"m0"});
  svc::QueryService service(catalog);
  obs::reset();
  obs::set_enabled(true);
  // Before m1 exists: error documents naming it, and no artifact computed.
  for (const std::string& text : battery) {
    const svc::QueryResponse response = service.execute(svc::parse_query_request(text));
    EXPECT_FALSE(response.ok) << text;
    EXPECT_NE(response.body.find("unknown campaign 'm1'"), std::string::npos) << response.body;
  }
  EXPECT_THROW(catalog.append_to_series("history", "m1"), SnapshotError);
  for (int i = 0; i < 100; ++i) {
    service.execute(svc::parse_query_request("kind=posture campaign=x" + std::to_string(i)));
  }
  EXPECT_EQ(obs::collect()[obs::Metric::svc_cache_misses].total(), 0u);
  obs::set_enabled(false);
  obs::reset();

  // Registered later, m1 answers exactly as in a catalog that never saw
  // the unknown name.
  catalog.register_campaign("m1", tmp.paths[1], 43);
  std::size_t members = 0;
  EXPECT_NO_THROW(members = catalog.append_to_series("history", "m1"));
  EXPECT_EQ(members, 2u);
  svc::CampaignCatalog fresh;
  fresh.register_campaign("m0", tmp.paths[0], 42);
  fresh.register_campaign("m1", tmp.paths[1], 43);
  svc::QueryService fresh_service(fresh);
  for (const std::string& text : battery) {
    const svc::QueryRequest request = svc::parse_query_request(text);
    const svc::QueryResponse response = service.execute(request);
    EXPECT_TRUE(response.ok) << text << ": " << response.body;
    EXPECT_EQ(response.body, fresh_service.execute(request).body) << text;
  }
}

// The catalog computes a study artifact inline on the querying worker, at
// threads=1. On a single-week member grown the way the service benchmark
// grows its history (512-bit mint keys, one mint fleet, a sketch sidecar)
// it equals the 8-thread analysis of the same file, struct for struct and
// in its figure dump.
TEST(CampaignCatalog, ColdStudyEqualsEightThreadAnalysis) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_study_base.bin");
  write_campaign(base, 42, "svc-study-base", 100, 400);
  CampaignSet set;
  set.add_file(base, 42);
  FollowupConfig config;
  config.campaign_label = "svc-study-followup";
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  const std::string grown = tmp.add("/tmp/opcua_svc_study_f1.bin");
  extend_series(set, config, grown, 43);
  ASSERT_TRUE(std::ifstream(posture_sketch_path(grown)).good());

  svc::CampaignCatalog catalog;
  catalog.register_campaign("m1", grown, 43);
  const std::shared_ptr<const StudyAnalysis> study = catalog.study("m1");
  AnalysisOptions options;
  options.threads = 8;
  const StudyAnalysis reference = analyze_file(grown, 43, options);
  EXPECT_TRUE(study->figures_equal(reference));
  EXPECT_EQ(figure_dump_text(*study), figure_dump_text(reference));

  // Minted certificates sit beside the base's 24, and the base's reuse
  // clusters survive the evolution.
  ASSERT_EQ(reference.weeks.size(), 1u);
  EXPECT_GT(reference.longitudinal.total_distinct_certificates, unique_certs().size());
  EXPECT_GT(reference.reuse.clusters_ge3, 0);
}

// Cold studies race on pool workers. Each round registers the members in
// a fresh catalog and submits every study query twice before any is
// cached: the first of a pair computes on a worker, its analysis on a
// pool of hardware width started there, and the second waits on the same
// future or hits the cache. Members of about 9,000 hosts span three
// chunks, so the analysis pool starts threads.
TEST(CampaignCatalog, ConcurrentColdStudiesMatchInline) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_cold_m0.bin");
  write_campaign(base, 42, "svc-cold-base", 100, 9000);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cold_m1.bin"), 43);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cold_m2.bin"), 44);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_cold_m3.bin"), 45);
  const std::uint64_t seeds[] = {42, 43, 44, 45};
  const auto register_members = [&](svc::CampaignCatalog& catalog) {
    for (std::size_t m = 0; m < tmp.paths.size(); ++m) {
      catalog.register_campaign("m" + std::to_string(m), tmp.paths[m], seeds[m]);
    }
  };

  std::vector<svc::QueryRequest> requests;
  std::vector<std::string> inline_bodies;
  {
    svc::CampaignCatalog catalog;
    register_members(catalog);
    ASSERT_GT(catalog.reader("m3").chunks().size(), 1u);
    svc::QueryService service(catalog);
    for (std::size_t m = 0; m < tmp.paths.size(); ++m) {
      requests.push_back(svc::parse_query_request("kind=study campaign=m" + std::to_string(m)));
      const svc::QueryResponse response = service.execute(requests.back());
      EXPECT_TRUE(response.ok) << response.body;
      inline_bodies.push_back(response.body);
    }
  }
  for (const int workers : {2, 8}) {
    svc::CampaignCatalog catalog;
    register_members(catalog);
    svc::QueryServiceOptions options;
    options.workers = workers;
    options.max_queue = 64;
    svc::QueryService service(catalog, options);
    std::vector<std::future<svc::QueryResponse>> futures;
    for (const svc::QueryRequest& request : requests) {
      futures.push_back(service.submit(request));
      futures.push_back(service.submit(request));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const svc::QueryResponse response = futures[i].get();
      EXPECT_FALSE(response.rejected);
      EXPECT_EQ(response.body, inline_bodies[i / 2]) << "workers=" << workers << " m" << i / 2;
    }
  }
}

// Every way into the comparison computes the same step. Over a grown
// three-member history, each adjacent pair's diff_files, diff_campaigns
// over two walked readers, the catalog's diff, and the step of
// analyze_series and of the catalog's resident series are equal, struct
// for struct and in their JSON, with every sidecar present and again with
// none. A backwards pair fails on every path with one error text.
TEST(CampaignCatalog, ComparisonPathsAgree) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_paths_m0.bin");
  write_campaign(base, 42, "svc-paths-base", 100, 80);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_paths_m1.bin"), 43);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_paths_m2.bin"), 44);
  {
    ThreadPool pool(1);
    ensure_posture_sketch(base, 42, pool);
  }
  const std::uint64_t seeds[] = {42, 43, 44};
  const std::vector<std::string> names = {"m0", "m1", "m2"};

  for (const bool sidecars : {true, false}) {
    if (!sidecars) {
      for (const std::string& path : tmp.paths) std::remove(posture_sketch_path(path).c_str());
    }
    for (const std::string& path : tmp.paths) {
      ASSERT_EQ(std::ifstream(posture_sketch_path(path)).good(), sidecars) << path;
    }
    const char* const round = sidecars ? "with sidecars" : "without sidecars";
    SeriesOptions series_options;
    series_options.threads = 1;
    const SeriesAnalysis batch = analyze_series(set, series_options);
    std::vector<CampaignDiff> walked;
    std::vector<CampaignDiff> files;
    for (std::size_t k = 0; k + 1 < names.size(); ++k) {
      const SnapshotReader from(tmp.paths[k], seeds[k]);
      const SnapshotReader to(tmp.paths[k + 1], seeds[k + 1]);
      walked.push_back(diff_campaigns(ReaderRecordSource(from), ReaderRecordSource(to)));
      files.push_back(diff_files(tmp.paths[k], seeds[k], tmp.paths[k + 1], seeds[k + 1]));
    }
    // The catalog cuts a sidecar for each member it walks, so it runs
    // after the batch paths.
    svc::CampaignCatalog catalog;
    for (std::size_t m = 0; m < names.size(); ++m) {
      catalog.register_campaign(names[m], tmp.paths[m], seeds[m]);
    }
    catalog.register_series("history", names);
    const std::shared_ptr<const SeriesAnalysis> resident = catalog.series("history");
    ASSERT_EQ(batch.steps.size(), walked.size()) << round;
    ASSERT_EQ(resident->steps.size(), walked.size()) << round;
    for (std::size_t k = 0; k < walked.size(); ++k) {
      const CampaignDiff& reference = walked[k];
      EXPECT_GT(reference.matched(), 0u) << round;
      const std::string json = campaign_diff_json(reference);
      const std::pair<const char*, CampaignDiff> paths[] = {
          {"diff_files", files[k]},
          {"catalog.diff", *catalog.diff(names[k], names[k + 1])},
          {"analyze_series", batch.steps[k]},
          {"catalog.series", resident->steps[k]},
      };
      for (const auto& [path, diff] : paths) {
        EXPECT_TRUE(diff == reference) << path << ", step " << k << ", " << round;
        EXPECT_EQ(campaign_diff_json(diff), json) << path << ", step " << k << ", " << round;
      }
    }
  }

  // The pair (m1, m0) runs backwards in time.
  const auto error_of = [](const std::function<void()>& run) {
    try {
      run();
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  const SnapshotReader r0(tmp.paths[0], 42);
  const SnapshotReader r1(tmp.paths[1], 43);
  const std::string expected =
      error_of([&] { diff_campaigns(ReaderRecordSource(r1), ReaderRecordSource(r0)); });
  EXPECT_NE(expected.find("campaign chain"), std::string::npos) << expected;
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_campaign("m1", tmp.paths[1], 43);
  catalog.register_series("forward", {"m1"});
  CampaignSet backwards;
  backwards.add_file(tmp.paths[1], 43);
  backwards.add_file(tmp.paths[0], 42);
  const std::pair<const char*, std::function<void()>> paths[] = {
      {"diff_files", [&] { diff_files(tmp.paths[1], 43, tmp.paths[0], 42); }},
      {"catalog.diff", [&] { catalog.diff("m1", "m0"); }},
      {"analyze_series", [&] { analyze_series(backwards); }},
      {"catalog.register_series", [&] { catalog.register_series("backwards", {"m1", "m0"}); }},
      {"catalog.append_to_series", [&] { catalog.append_to_series("forward", "m0"); }},
  };
  for (const auto& [path, run] : paths) EXPECT_EQ(error_of(run), expected) << path;
}

// ------------------------------------------------ concurrent query API ----

TEST(QueryService, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_det_base.bin");
  write_campaign(base, 42, "svc-det-base", 100, 60);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add("/tmp/opcua_svc_det_f1.bin"), 43);

  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_campaign("m1", tmp.paths[1], 43);
  catalog.register_series("history", {"m0", "m1"});

  const std::vector<std::string> battery = {
      "kind=catalog",
      "kind=posture campaign=m0",
      "kind=posture campaign=m0 deficient=1 as_limit=2",
      "kind=posture campaign=m1 asn=64502",
      "kind=study campaign=m0",
      "kind=diff base=m0 followup=m1",
      "kind=series series=history",
      "kind=posture campaign=nope",  // error document, same contract
  };
  std::vector<svc::QueryRequest> requests;
  for (const auto& text : battery) requests.push_back(svc::parse_query_request(text));

  // Inline baseline.
  std::vector<std::string> inline_bodies;
  {
    svc::QueryService service(catalog);
    for (const auto& request : requests) {
      inline_bodies.push_back(service.execute(request).body);
    }
    EXPECT_FALSE(service.execute(requests.back()).ok);
  }
  // Pooled at 1 and 8 workers; each request submitted twice to force
  // same-artifact races.
  for (const int workers : {1, 8}) {
    svc::QueryServiceOptions options;
    options.workers = workers;
    options.max_queue = 64;
    svc::QueryService service(catalog, options);
    std::vector<std::future<svc::QueryResponse>> futures;
    for (int round = 0; round < 2; ++round) {
      for (const auto& request : requests) futures.push_back(service.submit(request));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const svc::QueryResponse response = futures[i].get();
      EXPECT_FALSE(response.rejected);
      EXPECT_EQ(response.body, inline_bodies[i % requests.size()])
          << "workers=" << workers << " request " << i % requests.size();
    }
  }
}

/// Posture requests over the golden fleet: every single filter, pairs and
/// triples, as_limit 0 and 1 and below, at and above the 48 ASes, a
/// filter no host passes, and error documents. c0 is sketch-fed, c1
/// walked.
const char* const kPostureBattery[] = {
    "kind=posture campaign=c0",
    "kind=posture campaign=c1",
    "kind=posture campaign=c0 asn=64503",
    "kind=posture campaign=c1 asn=0",
    "kind=posture campaign=c0 protocol=opcua",
    "kind=posture campaign=c0 protocol=mqtt-tls",
    "kind=posture campaign=c1 protocol=mqtt-tls",
    "kind=posture campaign=c0 mode=0",
    "kind=posture campaign=c0 mode=1",
    "kind=posture campaign=c1 mode=2",
    "kind=posture campaign=c0 policy=0",
    "kind=posture campaign=c1 policy=1",
    "kind=posture campaign=c0 policy=2",
    "kind=posture campaign=c0 anonymous=1",
    "kind=posture campaign=c0 deficient=1",
    "kind=posture campaign=c1 deficient=1",
    "kind=posture campaign=c0 protocol=mqtt-tls deficient=1",
    "kind=posture campaign=c1 mode=0 anonymous=1",
    "kind=posture campaign=c0 asn=64510 policy=2",
    "kind=posture campaign=c1 policy=1 deficient=1",
    "kind=posture campaign=c0 protocol=opcua mode=2",
    "kind=posture campaign=c0 protocol=opcua policy=1 anonymous=1",
    "kind=posture campaign=c1 asn=64520 mode=2 deficient=1",
    "kind=posture campaign=c0 protocol=mqtt-tls mode=2 policy=2",
    "kind=posture campaign=c0 asn=64501 protocol=opcua mode=2 policy=2 anonymous=1 deficient=1",
    "kind=posture campaign=c0 as_limit=0",
    "kind=posture campaign=c1 as_limit=1",
    "kind=posture campaign=c0 as_limit=8",
    "kind=posture campaign=c0 as_limit=47",
    "kind=posture campaign=c0 as_limit=48",
    "kind=posture campaign=c0 as_limit=49",
    "kind=posture campaign=c1 as_limit=100000",
    "kind=posture campaign=c0 deficient=1 as_limit=3",
    "kind=posture campaign=c0 asn=1",
    "kind=posture campaign=c0 protocol=mqtt-tls mode=0",
    "kind=posture campaign=c1 asn=64505 protocol=mqtt-tls anonymous=1 as_limit=0",
    "kind=posture campaign=nope",
    "kind=posture",
};

TEST(QueryService, PostureResponsesMatchGoldens) {
  TempFiles tmp;
  const std::string sketched = tmp.add("/tmp/opcua_svc_gold_c0.bin");
  const std::string walked = tmp.add("/tmp/opcua_svc_gold_c1.bin");
  write_campaign(sketched, 42, "svc-gold-sketched", 120, 300, make_fleet_host);
  write_campaign(walked, 43, "svc-gold-walked", 127, 200,
                 [](std::size_t i) { return make_fleet_host(2 * i + 1); });
  ThreadPool pool(1);
  ensure_posture_sketch(sketched, 42, pool);
  ASSERT_TRUE(std::ifstream(posture_sketch_path(sketched)).good());
  ASSERT_FALSE(std::ifstream(posture_sketch_path(walked)).good());

  svc::CampaignCatalog catalog;
  catalog.register_campaign("c0", sketched, 42);
  catalog.register_campaign("c1", walked, 43);
  svc::QueryService service(catalog);
  std::vector<std::string> actual;
  for (const char* text : kPostureBattery) {
    actual.push_back(std::string("> ") + text);
    std::string body = service.execute(svc::parse_query_request(text)).body;
    body.pop_back();  // the document's closing newline
    actual.push_back(std::move(body));
  }
  // The walked campaign cut its sidecar on the way.
  EXPECT_TRUE(std::ifstream(posture_sketch_path(walked)).good());

  const std::string golden = "svc.posture_battery.txt";
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  EXPECT_EQ(actual.size(), expected.size()) << "line count differs from tests/data/" << golden;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_TRUE(actual[i] == expected[i]) << "tests/data/" << golden << " line " << i + 1
                                          << "\n  golden: " << expected[i]
                                          << "\n  actual: " << actual[i];
  }
}

/// Study, diff, series and catalog requests over the posture goldens'
/// campaigns, a third that remediates, and a series of all three; an
/// unknown name, a backwards pair and, below, one rejected document.
const char* const kResponseBattery[] = {
    "kind=catalog",
    "kind=study campaign=c0",
    "kind=study campaign=c1",
    "kind=study campaign=c2",
    "kind=diff base=c0 followup=c1",
    "kind=diff base=c1 followup=c2",
    "kind=series series=history",
    "kind=study campaign=nope",
    "kind=diff base=c1 followup=c0",
};

TEST(QueryService, EveryKindMatchesGoldens) {
  TempFiles tmp;
  const std::string sketched = tmp.add("/tmp/opcua_svc_kinds_c0.bin");
  const std::string walked = tmp.add("/tmp/opcua_svc_kinds_c1.bin");
  write_campaign(sketched, 42, "svc-gold-sketched", 120, 300, make_fleet_host);
  write_campaign(walked, 43, "svc-gold-walked", 127, 200,
                 [](std::size_t i) { return make_fleet_host(2 * i + 1); });
  // c2 sees c1's hosts again, and every other one now offers only
  // Basic256Sha256, so the remediation curve's fractions are not 0.
  const std::string upgraded = tmp.add("/tmp/opcua_svc_kinds_c2.bin");
  write_campaign(upgraded, 44, "svc-gold-upgraded", 134, 200, [](std::size_t i) {
    HostScanRecord host = make_fleet_host(2 * i + 1);
    if (i % 2 == 0) {
      for (EndpointObservation& ep : host.endpoints) {
        ep.mode = MessageSecurityMode::SignAndEncrypt;
        ep.policy = SecurityPolicy::Basic256Sha256;
        ep.policy_uri = std::string(policy_info(ep.policy).uri);
      }
    }
    return host;
  });
  ThreadPool pool(1);
  ensure_posture_sketch(sketched, 42, pool);

  svc::CampaignCatalog catalog;
  catalog.register_campaign("c0", sketched, 42);
  catalog.register_campaign("c1", walked, 43);
  catalog.register_campaign("c2", upgraded, 44);
  catalog.register_series("history", {"c0", "c1", "c2"});
  std::vector<std::string> actual;
  const auto record = [&actual](const std::string& request, std::string body) {
    actual.push_back("> " + request);
    body.pop_back();  // the document's closing newline
    actual.push_back(std::move(body));
  };
  svc::QueryService service(catalog);
  for (const char* text : kResponseBattery) {
    record(text, service.execute(svc::parse_query_request(text)).body);
  }
  svc::QueryServiceOptions options;
  options.workers = 0;
  options.max_queue = 0;
  svc::QueryService full(catalog, options);
  record("submit kind=catalog (max_queue=0)",
         full.submit(svc::parse_query_request("kind=catalog")).get().body);

  const std::string golden = "svc.response_battery.txt";
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  EXPECT_EQ(actual.size(), expected.size()) << "line count differs from tests/data/" << golden;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_TRUE(actual[i] == expected[i]) << "tests/data/" << golden << " line " << i + 1
                                          << "\n  golden: " << expected[i]
                                          << "\n  actual: " << actual[i];
  }
}

TEST(QueryService, AdmissionControlRejectsBeyondMaxQueue) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_adm_base.bin");
  write_campaign(base, 42, "svc-adm-base", 100, 10);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", base, 42);

  svc::QueryServiceOptions options;
  options.workers = 0;  // nothing drains until drain() — deterministic
  options.max_queue = 2;
  svc::QueryService service(catalog, options);
  svc::QueryRequest request = svc::parse_query_request("kind=catalog");

  auto accepted1 = service.submit(request);
  auto accepted2 = service.submit(request);
  auto rejected = service.submit(request);
  // The rejection resolves immediately, before anything ran.
  const svc::QueryResponse shed = rejected.get();
  EXPECT_TRUE(shed.rejected);
  EXPECT_FALSE(shed.ok);
  EXPECT_NE(shed.body.find("queue is full"), std::string::npos) << shed.body;

  EXPECT_EQ(service.drain(), 2u);
  EXPECT_TRUE(accepted1.get().ok);
  EXPECT_TRUE(accepted2.get().ok);
  EXPECT_EQ(service.drain(), 0u);

  // Queued-but-unrun requests complete rejected at destruction.
  auto orphaned = service.submit(request);
  {
    svc::QueryService ignored(catalog, options);
  }
  SUCCEED();  // destructor with empty queue is clean
  // `service` still alive: drain the orphan so its promise resolves ok.
  EXPECT_EQ(service.drain(), 1u);
  EXPECT_TRUE(orphaned.get().ok);
}

TEST(QueryService, DestructorCompletesQueuedRequestsAsRejected) {
  TempFiles tmp;
  const std::string base = tmp.add("/tmp/opcua_svc_dtor_base.bin");
  write_campaign(base, 42, "svc-dtor-base", 100, 10);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", base, 42);

  std::future<svc::QueryResponse> orphan;
  {
    svc::QueryServiceOptions options;
    options.workers = 0;
    svc::QueryService service(catalog, options);
    orphan = service.submit(svc::parse_query_request("kind=catalog"));
  }
  const svc::QueryResponse response = orphan.get();
  EXPECT_TRUE(response.rejected);
  EXPECT_NE(response.body.find("shut down"), std::string::npos) << response.body;
}

TEST(QueryService, StaleSketchSurfacesAsDeterministicErrorNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add("/tmp/opcua_svc_stale_q.bin");
  write_campaign(path, 42, "svc-stale-q", 100, 20);
  const SnapshotReader reader(path, 42);
  write_posture_sketch(posture_sketch_path(path), reader.file_fingerprint() ^ 1,
                       walk_postures(path, 42));

  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", path, 42);
  svc::QueryService service(catalog);
  const svc::QueryRequest request = svc::parse_query_request("kind=posture campaign=m0");
  const svc::QueryResponse first = service.execute(request);
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.body.find("stale"), std::string::npos) << first.body;
  EXPECT_NE(first.body.find(path), std::string::npos) << first.body;
  EXPECT_NE(first.body.find(posture_sketch_path(path)), std::string::npos) << first.body;
  // The cached failure re-raises deterministically: identical bytes.
  EXPECT_EQ(service.execute(request).body, first.body);
}

// ----------------------------------------------------- request parsing ----

TEST(QueryParsing, RoundTripsEveryKey) {
  const svc::QueryRequest request = svc::parse_query_request(
      "kind=posture campaign=c1 asn=64503 protocol=opcua mode=2 policy=1 anonymous=1 "
      "deficient=1 as_limit=8");
  EXPECT_EQ(request.kind, svc::QueryRequest::Kind::posture);
  EXPECT_EQ(request.campaign, "c1");
  ASSERT_TRUE(request.asn.has_value());
  EXPECT_EQ(*request.asn, 64503u);
  ASSERT_TRUE(request.protocol.has_value());
  EXPECT_EQ(*request.protocol, "opcua");
  ASSERT_TRUE(request.mode_bucket.has_value());
  EXPECT_EQ(*request.mode_bucket, 2);
  ASSERT_TRUE(request.policy_bucket.has_value());
  EXPECT_EQ(*request.policy_bucket, 1);
  EXPECT_TRUE(request.anonymous_only);
  EXPECT_TRUE(request.deficient_only);
  EXPECT_EQ(request.as_limit, 8u);

  const svc::QueryRequest diff = svc::parse_query_request("kind=diff base=a followup=b");
  EXPECT_EQ(diff.kind, svc::QueryRequest::Kind::diff);
  EXPECT_EQ(diff.base, "a");
  EXPECT_EQ(diff.followup, "b");
  EXPECT_EQ(svc::parse_query_request("kind=series series=s").series, "s");
  EXPECT_EQ(svc::parse_query_request("").kind, svc::QueryRequest::Kind::catalog);
}

TEST(QueryParsing, RejectsMalformedInput) {
  EXPECT_THROW(svc::parse_query_request("kind=bogus"), std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("wat=1"), std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("kind=posture asn=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("kind"), std::invalid_argument);
  // Numbers outside their field are rejected, not wrapped or truncated, a
  // cohort filter takes only 1 ("0" would count every host), and the error
  // names the key and the value.
  for (const char* text : {"asn=4294967297", "asn=-1", "mode=4294967296", "mode=7", "policy=-2",
                           "as_limit=-1", "anonymous=+5", "anonymous=2", "protocol=modbus",
                           "protocol=", "protocol=OPCUA", "anonymous=0", "deficient=0",
                           "deficient=01"}) {
    try {
      svc::parse_query_request(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
  }
  const svc::QueryRequest edge = svc::parse_query_request("asn=4294967295 mode=0");
  EXPECT_EQ(edge.asn, std::optional<std::uint32_t>(4294967295u));
  EXPECT_EQ(edge.mode_bucket, std::optional<int>(0));
  EXPECT_EQ(svc::parse_query_request("protocol=mqtt-tls").protocol,
            std::optional<std::string>("mqtt-tls"));
}

}  // namespace
}  // namespace opcua_study
