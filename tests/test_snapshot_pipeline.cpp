// Chunked snapshot pipeline + shared analysis library:
//  - v6 (columnar + cert dictionary) round trips across chunk boundaries,
//    the committed v4 and v5 fixtures (tests/data) still load, and
//    rewriting either as v6 preserves every record byte-deterministically,
//  - truncated / corrupt files fail with SnapshotError instead of
//    yielding garbage records; out-of-range dictionary ids are rejected;
//    a failed chunk write stops the writer at that chunk,
//  - the streaming Aggregator is deterministic in the thread count and
//    input format, whether it reads mapped v6 columns or rows transposed
//    into columns, and reproduces field for field the golden dumps under
//    tests/data/ (multi-endpoint hosts included, and a study whose records
//    arrive out of endpoint order), which were recorded from earlier
//    implementations of the same figures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "analysis/analysis.hpp"
#include "crypto/keycache.hpp"
#include "figure_dump.hpp"
#include "grab_dump.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/matcher.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

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

/// Certificates shared across synthetic hosts so the reuse/deficit/
/// longitudinal passes have real clusters, renewals, and weak keys.
const std::vector<Bytes>& cert_fleet() {
  static const std::vector<Bytes> fleet = [] {
    KeyFactory keys(777, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 6; ++i) {
      const RsaKeyPair kp = keys.get("pipe-test-" + std::to_string(i), 512);
      CertificateSpec spec;
      spec.subject = {"device " + std::to_string(i),
                      i < 2 ? "Bachmann electronic" : "Test Org", "DE"};
      spec.signature_hash = i % 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(100 + i)};
      spec.not_before_days = days_from_civil({2018 + i % 3, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:test:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return fleet;
}

HostScanRecord make_host(std::size_t i, int week) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x14000000u + static_cast<std::uint32_t>(i));
  host.port = i % 9 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.found_via_reference = i % 7 == 0;
  host.application_uri =
      i % 3 == 0 ? "urn:bachmann:test-" + std::to_string(i) : "urn:generic:test-" + std::to_string(i);
  host.software_version = (i % 11 == 0 && week > 0) ? "2.0" : "1.0";
  if (i % 10 == 9) host.application_type = ApplicationType::DiscoveryServer;

  EndpointObservation ep;
  ep.url = "opc.tcp://t" + std::to_string(i) + ":4840/";
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
                         : std::vector<UserTokenType>{UserTokenType::Anonymous};
  // Certificate rotation in the final week on some hosts -> renewal events.
  const std::size_t cert_index = (i + ((week > 0 && i % 11 == 0) ? 1 : 0)) % cert_fleet().size();
  if (i % 4 != 0) ep.certificate_der = cert_fleet()[cert_index];
  host.endpoints.push_back(std::move(ep));

  host.channel = i % 8 == 7 ? ChannelOutcome::cert_rejected : ChannelOutcome::established;
  host.anonymous_offered = true;
  host.session = (i % 3 == 0 && host.channel == ChannelOutcome::established)
                     ? SessionOutcome::accessible
                     : SessionOutcome::auth_rejected;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  if (host.session == SessionOutcome::accessible) {
    if (i % 6 == 0) host.namespaces.push_back("urn:plant:unit");
    for (int n = 0; n < 5; ++n) {
      NodeObservation node;
      node.browse_name = "n" + std::to_string(n);
      node.node_class = n < 4 ? NodeClass::Variable : NodeClass::Method;
      node.readable = true;
      node.writable = n % 2 == 0;
      node.executable = n == 4 && i % 2 == 0;
      host.nodes.push_back(node);
    }
  }
  host.bytes_sent = 1000 + i;
  host.duration_seconds = 100.0 + static_cast<double>(i % 20);
  return host;
}

std::vector<ScanSnapshot> make_study(std::size_t hosts_per_week, int weeks = 2) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 1000 * (week + 1);
    snapshot.tcp_open_count = 100 * (week + 1);
    for (std::size_t i = 0; i < hosts_per_week; ++i) {
      snapshot.hosts.push_back(make_host(i, week));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

/// make_study plus the endpoint shapes its one-endpoint hosts never show,
/// so the column passes' mask-order and first-parseable-certificate
/// equivalences meet the record-order reference: every third host gains a
/// second endpoint with another mode/policy pair and another certificate
/// (listed after a stronger policy on some hosts, before it on others),
/// and host 1 leads with an unparseable DER under a policy URI outside the
/// table (policy_known = false, as a decoded record reports it).
std::vector<ScanSnapshot> make_multi_endpoint_study(std::size_t hosts_per_week, int weeks = 2) {
  std::vector<ScanSnapshot> study = make_study(hosts_per_week, weeks);
  for (ScanSnapshot& snapshot : study) {
    for (std::size_t i = 0; i < snapshot.hosts.size(); ++i) {
      HostScanRecord& host = snapshot.hosts[i];
      if (i % 3 != 1) continue;
      EndpointObservation ep;
      ep.url = "opc.tcp://t" + std::to_string(i) + ":4843/";
      const SecurityPolicy policy =
          i % 2 ? SecurityPolicy::Basic128Rsa15 : SecurityPolicy::Aes128Sha256RsaOaep;
      ep.mode = i % 4 == 1 ? MessageSecurityMode::Sign : MessageSecurityMode::SignAndEncrypt;
      ep.policy_uri = std::string(policy_info(policy).uri);
      ep.policy = policy;
      ep.policy_known = true;
      ep.token_types = {UserTokenType::Certificate};
      ep.certificate_der = cert_fleet()[(i + 3) % cert_fleet().size()];
      if (i % 6 == 1) {
        host.endpoints.insert(host.endpoints.begin(), std::move(ep));
      } else {
        host.endpoints.push_back(std::move(ep));
      }
    }
    if (snapshot.hosts.size() > 1) {
      EndpointObservation odd;
      odd.url = "opc.tcp://t1:4844/";
      odd.mode = MessageSecurityMode::SignAndEncrypt;
      odd.policy_uri = "http://opcfoundation.org/UA/SecurityPolicy#NotInTheTable";
      odd.policy_known = false;
      odd.token_types = {UserTokenType::UserName};
      odd.certificate_der = {0x30, 0x03, 0x02, 0x01, 0x07};
      auto& endpoints = snapshot.hosts[1].endpoints;
      endpoints.insert(endpoints.begin(), std::move(odd));
    }
  }
  return study;
}

/// Certificates of make_reuse_churn_study, indexed by ChurnCert.
enum ChurnCert : std::size_t { kB0, kB1, kB2, kT0, kT1, kT2, kT3, kD0, kUnparseable };

const std::vector<Bytes>& churn_fleet() {
  static const std::vector<Bytes> fleet = [] {
    KeyFactory keys(778, "");
    struct Spec {
      const char* org;
      HashAlgorithm hash;
    };
    const Spec specs[] = {{"Bachmann electronic", HashAlgorithm::sha256},
                          {"Bachmann electronic", HashAlgorithm::sha1},
                          {"Bachmann electronic", HashAlgorithm::sha256},
                          {"Test Org", HashAlgorithm::sha1},
                          {"Test Org", HashAlgorithm::sha256},
                          {"Test Org", HashAlgorithm::sha256},
                          {"Test Org", HashAlgorithm::sha1},
                          {"Test Org", HashAlgorithm::sha256}};
    std::vector<Bytes> ders;
    for (std::size_t i = 0; i < std::size(specs); ++i) {
      const RsaKeyPair kp = keys.get("churn-" + std::to_string(i), 512);
      RsaPublicKey subject_key = kp.pub;
      // kD0's modulus shares its first prime with kT0's, so the §5.3
      // sweep finds a shared prime only if it reads discovery servers.
      if (i == kD0) {
        subject_key.n = keys.get("churn-" + std::to_string(kT0), 512).priv.p * kp.priv.q;
      }
      CertificateSpec spec;
      spec.subject = {"churn " + std::to_string(i), specs[i].org, "DE"};
      spec.signature_hash = specs[i].hash;
      spec.serial = Bignum{static_cast<std::uint64_t>(200 + i)};
      spec.not_before_days = days_from_civil({2016 + static_cast<int>(i % 4), 6, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:test:churn:" + std::to_string(i);
      ders.push_back(x509_create(spec, subject_key, kp.priv));
    }
    ders.push_back({0x30, 0x03, 0x02, 0x01, 0x09});  // kUnparseable
    return ders;
  }();
  return fleet;
}

/// Three weeks over different host sets (ids 0-29, 6-35, 12-41), built
/// to pin the two tallies that need the final week's >= 3-host
/// certificate sets (Fig. 8's reuse deficit and each week's distributor
/// fleet, §5.5) when weeks differ:
///  - kB0 ("Bachmann electronic") sits on four final-week servers, on
///    servers 0, 3 and 7 of earlier weeks, which the final week lacks,
///    twice on server 33 (two endpoints) and on discovery server 19;
///  - kB1 (Bachmann) is on two servers only; kB2 (Bachmann) is on four
///    servers of week 0 (two of them also in week 1) and on discovery
///    server 9, never in the final week;
///  - server 25 carries two reused certificates, kT0 and kT1;
///  - kD0 is on discovery servers 29 and 39 only, and its modulus shares a
///    prime with kT0's;
///  - an unparseable DER is on three final-week servers;
///  - server 22 renews a SHA-1 certificate to SHA-256 with a software
///    update, server 24 a SHA-256 one to SHA-1.
/// At 7 records per chunk every final-week reuse cluster straddles chunks.
std::vector<ScanSnapshot> make_reuse_churn_study() {
  const std::pair<ChurnCert, std::vector<std::size_t>> carriers[] = {
      {kB0, {0, 3, 7, 12, 19, 20, 27, 33, 33}},
      {kB1, {1, 14, 30}},
      {kB2, {2, 5, 8, 9, 11}},
      {kT0, {13, 18, 25, 32, 40}},
      {kT1, {16, 25, 34, 41}},
      {kD0, {29, 39}},
      {kUnparseable, {15, 21, 35}}};
  std::vector<ScanSnapshot> study;
  for (int week = 0; week < 3; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 1000 * (week + 1);
    snapshot.tcp_open_count = 100 * (week + 1);
    const std::size_t first_id = 6 * static_cast<std::size_t>(week);
    for (std::size_t id = first_id; id < first_id + 30; ++id) {
      HostScanRecord host = make_host(id, week);
      std::vector<ChurnCert> certs;
      for (const auto& [cert, ids] : carriers) {
        for (const std::size_t carrier : ids) {
          if (carrier == id) certs.push_back(cert);
        }
      }
      if (id == 22) {
        certs = {week < 2 ? kT3 : kT2};
        host.software_version = week < 2 ? "1.0" : "1.1";
      }
      if (id == 24) certs = {week < 2 ? kT1 : kT3};
      const EndpointObservation first = host.endpoints.front();
      host.endpoints.clear();
      for (std::size_t e = 0; e < std::max<std::size_t>(1, certs.size()); ++e) {
        EndpointObservation ep = first;
        ep.url = "opc.tcp://c" + std::to_string(id) + ":" + std::to_string(4840 + e) + "/";
        ep.certificate_der = e < certs.size() ? churn_fleet()[certs[e]] : Bytes{};
        host.endpoints.push_back(std::move(ep));
      }
      snapshot.hosts.push_back(std::move(host));
    }
    study.push_back(std::move(snapshot));
  }
  return study;
}

/// make_reuse_churn_study with the records of each week in a fixed seeded
/// permutation, so no endpoint's records arrive in (ip, port) order, and
/// with server 22 also on port 4841 (kT1 in week 0, kT0 from week 1): one
/// IP renews on two ports, at week 2 on 4840 and at week 1 on 4841.
std::vector<ScanSnapshot> make_shuffled_churn_study() {
  std::vector<ScanSnapshot> study = make_reuse_churn_study();
  Rng rng(2027);
  for (std::size_t week = 0; week < study.size(); ++week) {
    auto& hosts = study[week].hosts;
    const auto server22 = std::ranges::find(hosts, static_cast<Ipv4>(0x14000000u + 22),
                                            &HostScanRecord::ip);
    HostScanRecord second = *server22;
    second.port = 4841;
    second.endpoints.resize(1);
    second.endpoints[0].url = "opc.tcp://c22:4841/";
    second.endpoints[0].certificate_der = churn_fleet()[week == 0 ? kT1 : kT0];
    hosts.push_back(std::move(second));
    rng.shuffle(hosts);
  }
  return study;
}

/// Path of a committed row-format fixture. tests/data holds the output of
/// make_multi_endpoint_study(48) above, seed 42, written by the retired
/// row writers: "v4" by the monolithic v4 writer, "v5" by the chunked row
/// writer at 11 records per chunk. SnapshotWriter only writes v6, so these
/// two files are what keeps the v4 and v5 read paths covered.
std::string row_fixture(const std::string& version) {
  return (std::filesystem::path(__FILE__).parent_path() / "data" /
          ("multi_endpoint_48." + version + ".bin"))
      .string();
}

/// Compares figure_dump_text(analysis) with tests/data/<golden>. Each
/// golden is the dump of the record-based reference functions the
/// Aggregator replaced (one per figure, whole snapshot in RAM), recorded
/// on the same generator input; the Aggregator's dump equalled it there.
void expect_golden_figures(const StudyAnalysis& analysis, const std::string& golden) {
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  const std::string actual = figure_dump_text(analysis);
  EXPECT_TRUE(actual == expected) << "figures differ from tests/data/" << golden
                                  << "\n--- expected\n" << expected << "--- actual\n"
                                  << actual;
}

/// First 16 hex digits of the SHA-256 of `text`.
std::string short_digest(const std::string& text) {
  return to_hex(hash(HashAlgorithm::sha256, text)).substr(0, 16);
}

/// What the reader makes of the (mutated) file at `path`, as one line. A
/// rejected file gives the load_snapshots error, with `path` written as
/// <file>. A loaded file gives its week count, the hosts of each week, a
/// digest of its records as grab_dump renders them, and what analyze_file
/// makes of it: a digest of the figure dump, or the SnapshotError text.
std::string reader_outcome(const std::string& path) {
  const auto normalized = [&](std::string text) {
    for (std::size_t at; (at = text.find(path)) != std::string::npos;) {
      text.replace(at, path.size(), "<file>");
    }
    return text;
  };
  std::string error;
  const auto loaded = load_snapshots(path, 42, &error);
  if (!loaded.has_value()) return "rejected: " + normalized(error);
  std::string out = "loaded weeks=" + std::to_string(loaded->size()) + " hosts=";
  std::string records;
  for (const ScanSnapshot& snapshot : *loaded) {
    if (&snapshot != &loaded->front()) out += '+';
    out += std::to_string(snapshot.hosts.size());
    for (const HostScanRecord& host : snapshot.hosts) records += grab_dump::line(host) + '\n';
  }
  out += " records=" + short_digest(records);
  try {
    out += " analysis=" + short_digest(figure_dump_text(analyze_file(path, 42, {})));
  } catch (const SnapshotError& e) {
    out += " analysis rejected: " + normalized(e.what());
  }
  return out;
}

/// Compares `actual` with the lines of the reader-outcome golden
/// (tests/data/snapshot.reader_outcomes.txt) that belong to `sweep`,
/// printing the golden and the actual line of every case that differs.
/// Each line names its sweep, input and case, then the reader_outcome.
/// The golden was recorded with the reader that stream-read the v4 and v5
/// files and parsed the v5 and v6 footers in two copies, so it pins that
/// every truncated or flipped file is still rejected with the same message,
/// or still loads the same records.
void expect_golden_outcomes(const std::string& sweep, const std::vector<std::string>& actual) {
  const std::string golden = "snapshot.reader_outcomes.txt";
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(sweep + ' ')) expected.push_back(line);
  }
  EXPECT_EQ(actual.size(), expected.size())
      << sweep << " case count differs from tests/data/" << golden;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_TRUE(actual[i] == expected[i]) << "tests/data/" << golden << " " << sweep << " case "
                                          << i << "\n  golden: " << expected[i]
                                          << "\n  actual: " << actual[i];
  }
}

TEST(SnapshotV6, RoundTripAcrossChunkBoundaries) {
  const std::string path = "/tmp/opcua_test_v6_chunks.bin";
  const std::vector<ScanSnapshot> study = make_study(10);

  // chunk_records = 3 forces boundaries inside each measurement (10 hosts
  // -> chunks of 3+3+3+1) and a fresh chunk per measurement.
  SnapshotWriter writer(path, 42, 3);
  for (const auto& snapshot : study) writer.add_snapshot(snapshot);
  writer.finish();

  const SnapshotReader reader(path, 42);
  EXPECT_EQ(reader.version(), 6u);
  EXPECT_GT(reader.cert_count(), 0u);
  ASSERT_EQ(reader.snapshots().size(), 2u);
  EXPECT_EQ(reader.snapshots()[0].host_count, 10u);
  EXPECT_EQ(reader.snapshots()[1].measurement_index, 1);
  EXPECT_EQ(reader.snapshots()[1].probes_sent, 2000u);
  ASSERT_EQ(reader.chunks().size(), 8u);  // 4 per measurement
  EXPECT_EQ(reader.chunks()[3].record_count, 1u);
  EXPECT_EQ(reader.chunks()[4].snapshot_ordinal, 1u);

  // Chunk-by-chunk iteration reassembles the records exactly.
  EXPECT_EQ(reader.load_all(), study);
  std::vector<HostScanRecord> streamed;
  reader.for_each_host([&](std::size_t week, const HostScanRecord& host) {
    if (week == 0) streamed.push_back(host);
  });
  EXPECT_EQ(streamed, study[0].hosts);

  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, study);
  std::remove(path.c_str());
}

TEST(SnapshotV5, LegacyV4FilesStillLoad) {
  const std::string path = row_fixture("v4");
  const std::vector<ScanSnapshot> study = make_multi_endpoint_study(48);

  const SnapshotReader reader(path, 42);
  EXPECT_EQ(reader.version(), 4u);
  ASSERT_EQ(reader.snapshots().size(), 2u);
  EXPECT_EQ(reader.snapshots()[0].host_count, 48u);
  EXPECT_EQ(reader.load_all(), study);

  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, study);

  // The analysis pipeline consumes v4 streams through the same interface.
  EXPECT_TRUE(analyze_file(path, 42, {}).figures_equal(analyze_snapshots(study, {})));
}

TEST(SnapshotV5, V5FilesStillLoad) {
  const SnapshotReader reader(row_fixture("v5"), 42);
  EXPECT_EQ(reader.version(), 5u);
  EXPECT_EQ(reader.cert_count(), 0u);
  EXPECT_EQ(reader.load_all(), make_multi_endpoint_study(48));
  EXPECT_THROW(reader.column_view(0), SnapshotError);
}

TEST(SnapshotV5, AbandonedWriterLeavesUnloadableFile) {
  // A writer destroyed without finish() — e.g. stack unwinding after a
  // failed campaign — must not seal the partial dataset: a 3-of-8-week
  // file that loads cleanly would silently skew every longitudinal stat.
  // The writer streams into a sibling .tmp and only finish() renames it,
  // so the final path never even exists for an abandoned campaign.
  const std::string path = "/tmp/opcua_test_v5_abandoned.bin";
  std::remove(path.c_str());
  {
    SnapshotWriter writer(path, 42);
    writer.add_snapshot(make_study(4, 1).front());
    // no finish()
  }
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("not found"), std::string::npos);
  // The partial bytes sit in the unsealed temp file, which also refuses
  // to load (no trailer was ever written).
  std::string tmp_error;
  EXPECT_FALSE(load_snapshots(path + ".tmp", 42, &tmp_error).has_value());
  EXPECT_NE(tmp_error.find("unsealed"), std::string::npos);
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotV5, SeedAndVersionMismatchRejected) {
  const std::string path = "/tmp/opcua_test_v5_seed.bin";
  save_snapshots(path, 42, make_study(3, 1));
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 43, &error).has_value());
  EXPECT_NE(error.find("seed mismatch"), std::string::npos);
  EXPECT_FALSE(load_snapshots("/tmp/no_such_snapshot_file.bin", 42).has_value());
  std::remove(path.c_str());
}

TEST(SnapshotV5, TruncationAlwaysFailsCleanly) {
  const std::string path = "/tmp/opcua_test_v5_trunc.bin";
  const std::string cut_path = "/tmp/opcua_test_v5_trunc_cut.bin";
  save_snapshots(path, 42, make_study(6, 1));

  // Every truncation point (dense near both ends, strided through the
  // middle) must produce a SnapshotError — never garbage records, never a
  // crash — in v6 and in both row formats, with the golden's message.
  std::vector<std::string> outcomes;
  for (const auto& [tag, input] : {std::pair<std::string, std::string>{"v6", path},
                                   {"v4", row_fixture("v4")},
                                   {"v5", row_fixture("v5")}}) {
    const Bytes full = read_file_bytes(input);
    ASSERT_GT(full.size(), 64u) << input;
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n < std::min<std::size_t>(full.size(), 40); ++n) cuts.push_back(n);
    for (std::size_t n = 40; n + 1 < full.size(); n += 97) cuts.push_back(n);
    for (std::size_t back = 1; back <= 24 && back < full.size(); ++back) {
      cuts.push_back(full.size() - back);
    }
    for (const std::size_t cut : cuts) {
      write_file_bytes(cut_path, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
      std::string error;
      EXPECT_FALSE(load_snapshots(cut_path, 42, &error).has_value()) << input << " cut at " << cut;
      EXPECT_FALSE(error.empty()) << input << " cut at " << cut;
      outcomes.push_back("truncate " + tag + " cut=" + std::to_string(cut) + ": " +
                         reader_outcome(cut_path));
    }
  }
  expect_golden_outcomes("truncate", outcomes);
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

/// The SnapshotError text `run` throws, or "no error" when it returns.
template <typename Fn>
std::string snapshot_error_of(Fn&& run) {
  try {
    run();
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "no error";
}

TEST(SnapshotV5, CorruptEnumValuesRejected) {
  const std::string path = "/tmp/opcua_test_v5_enum.bin";
  std::vector<ScanSnapshot> study = make_study(3, 1);
  // An out-of-range enum hidden behind a reinterpreted cast — exactly what
  // a flipped bit in a record payload produces. The column passes reject
  // it as the row reader does: over the file with the load error's text,
  // over the in-memory records naming the same field and value. The
  // posture pass never reads the quality tail, so a bad completeness
  // value does not reach it.
  const auto expect_rejected = [&](const std::string& named, bool postures_read_it = true,
                                   const std::function<void()>& write_file = nullptr) {
    write_file ? write_file() : save_snapshots(path, 42, study);
    std::string error;
    EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
    EXPECT_NE(error.find(named), std::string::npos) << error;
    EXPECT_EQ(snapshot_error_of([&] { analyze_file(path, 42, {}); }), error);
    EXPECT_EQ(snapshot_error_of([&] {
                const SnapshotReader reader(path, 42);
                ThreadPool pool(1);
                collect_postures(ReaderRecordSource(reader), pool);
              }),
              postures_read_it ? error : "no error");
    const std::string in_memory = snapshot_error_of([&] { analyze_snapshots(study); });
    EXPECT_NE(in_memory.find(named), std::string::npos) << in_memory;
  };
  HostScanRecord& host1 = study[0].hosts[1];
  HostScanRecord& host2 = study[0].hosts[2];
  host1.application_type = static_cast<ApplicationType>(0x2a);
  expect_rejected("invalid application type value 42");
  host1.application_type = ApplicationType::Server;

  const SessionOutcome session = host2.session;
  host2.session = static_cast<SessionOutcome>(9);
  expect_rejected("invalid session outcome value 9");
  host2.session = session;

  host1.completeness = static_cast<ProbeOutcome>(7);
  expect_rejected("invalid completeness value 7", /*postures_read_it=*/false);
  host1.completeness = ProbeOutcome::complete;

  // The writer refuses a protocol id past kProtocolCount, so the file gets
  // its bad protocol byte after the write: host 2 is the chunk's last
  // record, and its foreign protocol id is the var column's last byte.
  host2.protocol = static_cast<ProtocolId>(9);
  EXPECT_NE(snapshot_error_of([&] { save_snapshots(path, 42, study); })
                .find("invalid protocol value 9"),
            std::string::npos);
  expect_rejected("invalid protocol value 9", /*postures_read_it=*/true, [&] {
    host2.protocol = ProtocolId::mqtt_tls;
    save_snapshots(path, 42, study);
    host2.protocol = static_cast<ProtocolId>(9);
    const SnapshotChunkInfo chunk = SnapshotReader(path, 42).chunks().at(0);
    Bytes bytes = read_file_bytes(path);
    Bytes::value_type& protocol_byte = bytes.at(chunk.file_offset + 24 + chunk.payload_bytes - 1);
    ASSERT_EQ(protocol_byte, static_cast<std::uint8_t>(ProtocolId::mqtt_tls));
    protocol_byte = 9;
    write_file_bytes(path, bytes);
  });
  std::remove(path.c_str());
}

TEST(SnapshotV6, UndefinedEndpointEnumsRejectedAtWrite) {
  // The v6 mode and token masks hold one bit per defined value; a record
  // with a value past its enum is refused by the write, not shifted past
  // the mask (or written for every later read to reject).
  const std::string path = "/tmp/opcua_test_v6_endpoint_enum.bin";
  std::vector<ScanSnapshot> study = make_study(3, 1);
  EndpointObservation& ep = study[0].hosts[1].endpoints[0];
  ep.mode = static_cast<MessageSecurityMode>(40);
  const std::string mode_error = snapshot_error_of([&] { save_snapshots(path, 42, study); });
  EXPECT_NE(mode_error.find("invalid security mode value 40"), std::string::npos) << mode_error;
  ep.mode = MessageSecurityMode::Sign;
  ep.token_types.push_back(static_cast<UserTokenType>(40));
  const std::string token_error = snapshot_error_of([&] { save_snapshots(path, 42, study); });
  EXPECT_NE(token_error.find("invalid user token type value 40"), std::string::npos)
      << token_error;
  ep.token_types.pop_back();
  study[0].hosts[1].protocol = static_cast<ProtocolId>(40);  // past the 32-bit week mask too
  const std::string protocol_error = snapshot_error_of([&] { save_snapshots(path, 42, study); });
  EXPECT_NE(protocol_error.find("snapshot record: invalid protocol value 40"), std::string::npos)
      << protocol_error;
  study[0].hosts[1].protocol = ProtocolId::opcua;
  save_snapshots(path, 42, study);
  EXPECT_TRUE(load_snapshots(path, 42).has_value());

  // A rejected record leaves the writer as it was: the file holds exactly
  // the records around it.
  {
    SnapshotWriter writer(path, 42);
    writer.begin_snapshot(study[0].measurement_index, study[0].date_days);
    writer.add_host(study[0].hosts[0]);
    HostScanRecord bad = study[0].hosts[1];
    bad.endpoints[0].mode = static_cast<MessageSecurityMode>(40);
    EXPECT_NE(snapshot_error_of([&] { writer.add_host(bad); }).find("security mode value 40"),
              std::string::npos);
    bad = study[0].hosts[1];
    bad.protocol = static_cast<ProtocolId>(40);
    EXPECT_NE(snapshot_error_of([&] { writer.add_host(bad); }).find("protocol value 40"),
              std::string::npos);
    writer.add_host(study[0].hosts[2]);
    writer.end_snapshot(study[0].probes_sent, study[0].tcp_open_count);
    writer.finish();
  }
  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->front().hosts,
            (std::vector<HostScanRecord>{study[0].hosts[0], study[0].hosts[2]}));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotV5, RandomPayloadCorruptionNeverCrashes) {
  const std::string path = "/tmp/opcua_test_v5_fuzz.bin";
  const std::string bad_path = "/tmp/opcua_test_v5_fuzz_bad.bin";
  save_snapshots(path, 42, make_study(5, 1));
  struct Input {
    std::string tag, path;
    std::size_t weeks, hosts_per_week;
  };
  // v6 rejects a flipped DER byte at open (dictionary fingerprints); the
  // row formats store DER inline, so their flips reach the certificate
  // parser inside the analysis. Every outcome must match the golden.
  std::vector<std::string> outcomes;
  for (const Input& input : {Input{"v6", path, 1, 5}, Input{"v4", row_fixture("v4"), 2, 48},
                             Input{"v5", row_fixture("v5"), 2, 48}}) {
    const Bytes full = read_file_bytes(input.path);
    // Deterministic xorshift so the sweep is reproducible.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int trial = 0; trial < 200; ++trial) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      Bytes mutated = full;
      mutated[state % mutated.size()] ^= static_cast<std::uint8_t>(1u << (state % 8));
      write_file_bytes(bad_path, mutated);
      outcomes.push_back("flip " + input.tag + " trial=" + std::to_string(trial) +
                         " byte=" + std::to_string(state % mutated.size()) +
                         " bit=" + std::to_string(state % 8) + ": " + reader_outcome(bad_path));
      // Either the flip lands somewhere harmless (a string byte) and the
      // file still loads, or it must be rejected — never UB, never garbage
      // enum values (gtest would flag a crash/sanitizer fault here). A
      // file that loads must also analyze, or fail only with SnapshotError.
      const auto loaded = load_snapshots(bad_path, 42);
      if (!loaded.has_value()) continue;
      ASSERT_EQ(loaded->size(), input.weeks) << input.path << " trial " << trial;
      EXPECT_EQ(loaded->front().hosts.size(), input.hosts_per_week)
          << input.path << " trial " << trial;
      EXPECT_NO_THROW({
        try {
          analyze_file(bad_path, 42, {});
        } catch (const SnapshotError&) {
        }
      }) << input.path << " trial " << trial;
    }
  }
  expect_golden_outcomes("flip", outcomes);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

/// SHA-256 and size of the v6 file WrittenBytesMatchRecordedDigest writes.
constexpr std::size_t kPinnedV6Size = 98393;
constexpr const char* kPinnedV6Sha256 =
    "9ea6e7033ec6c1e30445602dca40ff581c89a97d3d5ca60557b3d36c7bfc77f3";

std::uint32_t read_le32(const Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t read_le64(const Bytes& b, std::size_t at) {
  return static_cast<std::uint64_t>(read_le32(b, at)) |
         (static_cast<std::uint64_t>(read_le32(b, at + 4)) << 32);
}

void write_le32(Bytes& b, std::size_t at, std::uint32_t value) {
  b[at] = static_cast<std::uint8_t>(value);
  b[at + 1] = static_cast<std::uint8_t>(value >> 8);
  b[at + 2] = static_cast<std::uint8_t>(value >> 16);
  b[at + 3] = static_cast<std::uint8_t>(value >> 24);
}

/// Byte offset of the v6 certificate dictionary, recovered the same way
/// the reader finds it: trailer -> footer -> dict_offset field.
std::size_t v6_dict_offset(const Bytes& b) {
  const std::size_t footer = static_cast<std::size_t>(read_le64(b, b.size() - 12));
  const std::uint32_t snapshot_count = read_le32(b, footer + 4);
  std::size_t at = footer + 8 + 36ull * snapshot_count;
  const std::uint32_t chunk_count = read_le32(b, at);
  at += 4 + 24ull * chunk_count;
  return static_cast<std::size_t>(read_le64(b, at));
}

TEST(SnapshotV6, VarOffsetTableCorruptionRejected) {
  const std::string path = "/tmp/opcua_test_v6_offsets.bin";
  const std::string bad_path = "/tmp/opcua_test_v6_offsets_bad.bin";
  save_snapshots(path, 42, make_study(10, 1));
  const Bytes full = read_file_bytes(path);

  // First chunk header sits right after the 16-byte file header; its
  // var_offsets table (n + 1 u32s) starts 24 header + 32n column bytes in.
  const std::size_t chunk = 16;
  ASSERT_EQ(read_le32(full, chunk), 0x4b4e4843u);  // 'CHNK'
  const std::uint32_t n = read_le32(full, chunk + 8);
  ASSERT_EQ(n, 10u);
  const std::size_t offsets = chunk + 24 + 32ull * n;

  const auto expect_rejected = [&](const Bytes& mutated, const char* what) {
    write_file_bytes(bad_path, mutated);
    std::string error;
    EXPECT_FALSE(load_snapshots(bad_path, 42, &error).has_value()) << what;
    EXPECT_NE(error.find("var offsets"), std::string::npos) << what << ": " << error;
  };

  Bytes nonzero_first = full;
  write_le32(nonzero_first, offsets, 1);
  expect_rejected(nonzero_first, "offsets[0] != 0");

  Bytes non_monotone = full;
  ASSERT_GT(read_le32(full, offsets + 4), 0u);  // record 0 has var bytes
  write_le32(non_monotone, offsets + 8, 0);     // offsets[2] < offsets[1]
  expect_rejected(non_monotone, "non-monotone offsets");

  Bytes short_cover = full;
  write_le32(short_cover, offsets + 4ull * n, read_le32(full, offsets + 4ull * n) - 1);
  expect_rejected(short_cover, "offsets stop short of the var column");

  Bytes overflow = full;
  write_le32(overflow, offsets + 4ull * n, 0xffffffffu);
  expect_rejected(overflow, "offsets[n] = 0xffffffff");

  // Strided bit flips across the whole table: every one either still
  // loads (a slack byte is impossible here, but symmetry with the payload
  // fuzz) or throws SnapshotError — never UB.
  for (std::size_t bit = 0; bit < 4ull * (n + 1) * 8; bit += 7) {
    Bytes mutated = full;
    mutated[offsets + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write_file_bytes(bad_path, mutated);
    const auto loaded = load_snapshots(bad_path, 42);
    if (loaded.has_value()) {
      EXPECT_EQ(loaded->front().hosts.size(), 10u);
    }
  }

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(SnapshotV6, CertDictionaryCorruptionRejected) {
  const std::string path = "/tmp/opcua_test_v6_dict.bin";
  const std::string bad_path = "/tmp/opcua_test_v6_dict_bad.bin";
  save_snapshots(path, 42, make_study(10, 1));
  const Bytes full = read_file_bytes(path);
  const std::size_t dict = v6_dict_offset(full);
  ASSERT_EQ(read_le32(full, dict), 0x43494443u);  // 'CDIC'
  const std::uint32_t entries = read_le32(full, dict + 4);
  ASSERT_GT(entries, 0u);  // the cert fleet interned at least one DER

  const auto expect_rejected = [&](const Bytes& mutated, const char* what) {
    write_file_bytes(bad_path, mutated);
    std::string error;
    EXPECT_FALSE(load_snapshots(bad_path, 42, &error).has_value()) << what;
    EXPECT_NE(error.find("dictionary"), std::string::npos) << what << ": " << error;
  };

  Bytes bad_magic = full;
  bad_magic[dict] ^= 0xff;
  expect_rejected(bad_magic, "dictionary magic");

  Bytes bad_count = full;
  write_le32(bad_count, dict + 4, entries + 1);
  expect_rejected(bad_count, "entry count disagrees with footer");

  // Entry 0: u64 fingerprint, i32 DER length, DER bytes. Corrupting the
  // stored fingerprint or any DER byte must fail the open-time
  // recompute-and-compare.
  Bytes bad_fp = full;
  bad_fp[dict + 8] ^= 0x01;
  expect_rejected(bad_fp, "stored fingerprint");

  const std::uint32_t der_len = read_le32(full, dict + 16);
  ASSERT_GT(der_len, 8u);
  Bytes bad_der = full;
  bad_der[dict + 20 + der_len / 2] ^= 0x10;
  expect_rejected(bad_der, "DER content");

  Bytes bad_len = full;
  write_le32(bad_len, dict + 16, 0);
  expect_rejected(bad_len, "zero-length DER");

  // Strided flips across the whole dictionary region never crash.
  const std::size_t dict_end = static_cast<std::size_t>(read_le64(full, full.size() - 12));
  for (std::size_t at = dict; at < dict_end; at += 13) {
    Bytes mutated = full;
    mutated[at] ^= 0x40;
    write_file_bytes(bad_path, mutated);
    const auto loaded = load_snapshots(bad_path, 42);
    if (loaded.has_value()) {
      EXPECT_EQ(loaded->front().hosts.size(), 10u);
    }
  }

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

/// Byte offset of dictionary entry `index` (its stored fingerprint),
/// walking the entries from the 'CDIC' header at `dict`.
std::size_t v6_dict_entry_offset(const Bytes& b, std::size_t dict, std::uint32_t index) {
  std::size_t at = dict + 8;
  for (std::uint32_t i = 0; i < index; ++i) at += 12 + read_le32(b, at + 8);
  return at;
}

// The dictionary hashes run on a pool, but the first bad entry in index
// order is still the one reported, with the message a serial walk gives,
// and a structural error behind a mismatch does not mask it.
TEST(SnapshotV6, CertDictionaryReportsFirstBadEntry) {
  const std::string path = "/tmp/opcua_test_v6_dict_order.bin";
  const std::string bad_path = "/tmp/opcua_test_v6_dict_order_bad.bin";
  save_snapshots(path, 42, make_multi_endpoint_study(48, 1));
  const Bytes full = read_file_bytes(path);
  const std::size_t dict = v6_dict_offset(full);
  ASSERT_GE(read_le32(full, dict + 4), 6u);
  const auto open_error = [&](const Bytes& mutated) {
    write_file_bytes(bad_path, mutated);
    try {
      const SnapshotReader reader(bad_path, 42);
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("opened");
  };
  const std::string prefix = "corrupt certificate dictionary in " + bad_path +
                             " (v6, protocols=opcua, dictionary at byte " +
                             std::to_string(dict) + "): ";

  Bytes two_mismatches = full;
  two_mismatches[v6_dict_entry_offset(full, dict, 5)] ^= 0x01;
  two_mismatches[v6_dict_entry_offset(full, dict, 2)] ^= 0x01;
  EXPECT_EQ(open_error(two_mismatches), prefix + "dictionary entry 2 fingerprint mismatch");

  Bytes only_later = full;
  only_later[v6_dict_entry_offset(full, dict, 5)] ^= 0x01;
  EXPECT_EQ(open_error(only_later), prefix + "dictionary entry 5 fingerprint mismatch");

  Bytes mismatch_then_empty = two_mismatches;
  write_le32(mismatch_then_empty, v6_dict_entry_offset(full, dict, 5) + 8, 0);
  EXPECT_EQ(open_error(mismatch_then_empty), prefix + "dictionary entry 2 fingerprint mismatch");

  Bytes empty_then_mismatch = full;
  write_le32(empty_then_mismatch, v6_dict_entry_offset(full, dict, 2) + 8, 0);
  empty_then_mismatch[v6_dict_entry_offset(full, dict, 1)] ^= 0x01;
  EXPECT_EQ(open_error(empty_then_mismatch), prefix + "dictionary entry 1 fingerprint mismatch");
  empty_then_mismatch[v6_dict_entry_offset(full, dict, 1)] ^= 0x01;
  EXPECT_EQ(open_error(empty_then_mismatch), prefix + "dictionary entry 2 has no DER bytes");

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// cert_sha1 is the thumbprint of cert_der for every entry, whether the
// reader verified it at open or the encoder computed it on insert, and
// whether or not the DER parses. Per-host certificate variants give the
// reader several blocks of entries to hash in parallel.
TEST(SnapshotV6, DictionaryDigestsAreThumbprints) {
  std::vector<ScanSnapshot> study = make_multi_endpoint_study(300, 1);
  for (std::size_t i = 2; i < study[0].hosts.size(); ++i) {
    for (EndpointObservation& ep : study[0].hosts[i].endpoints) {
      if (!ep.certificate_der.empty()) ep.certificate_der.back() ^= static_cast<std::uint8_t>(i);
    }
  }
  const auto expect_thumbprints = [](const CertDictionary& dict) {
    ASSERT_GT(dict.cert_count(), 200u);
    bool saw_unparseable = false;
    for (std::uint32_t id = 0; id < dict.cert_count(); ++id) {
      const auto der = dict.cert_der(id);
      const Sha1Digest& sha1 = dict.cert_sha1(id);
      EXPECT_EQ(Bytes(sha1.begin(), sha1.end()), x509_thumbprint(der)) << "entry " << id;
      EXPECT_EQ(dict.cert_fp64(id), certificate_fingerprint64(der)) << "entry " << id;
      try {
        x509_parse(der);
      } catch (const DecodeError&) {
        saw_unparseable = true;
      }
    }
    EXPECT_TRUE(saw_unparseable);
    EXPECT_THROW(dict.cert_sha1(static_cast<std::uint32_t>(dict.cert_count())), SnapshotError);
  };

  const std::string path = "/tmp/opcua_test_v6_thumbprints.bin";
  save_snapshots(path, 42, study);
  {
    const SnapshotReader reader(path, 42);
    expect_thumbprints(reader);
  }
  ColumnEncoder encoder;
  for (const ScanSnapshot& snapshot : study) {
    for (const HostScanRecord& host : snapshot.hosts) encoder.add(host);
  }
  expect_thumbprints(encoder);
  std::remove(path.c_str());
}

TEST(SnapshotV6, EmptyAndRuntFilesNameTheirSize) {
  const std::string path = "/tmp/opcua_test_v6_runt.bin";
  write_file_bytes(path, Bytes{});
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("empty (0 bytes)"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;

  write_file_bytes(path, Bytes{0x4f, 0x55, 0x41, 0x53, 0x06});  // 5 of 16 header bytes
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("5"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  std::remove(path.c_str());
}

/// `bytes` cut at `keep_until`, then `block`, then the 12-byte trailer:
/// the footer offset stays valid and the footer ends with `block`.
Bytes with_footer_tail(const Bytes& bytes, std::size_t keep_until, const Bytes& block) {
  Bytes out(bytes.begin(), bytes.begin() + static_cast<long>(keep_until));
  out.insert(out.end(), block.begin(), block.end());
  out.insert(out.end(), bytes.end() - 12, bytes.end());
  return out;
}

/// The load_snapshots error for `bytes` written to `path`, or "loaded".
std::string load_error(const std::string& path, const Bytes& bytes) {
  write_file_bytes(path, bytes);
  std::string error;
  return load_snapshots(path, 42, &error).has_value() ? "loaded" : error;
}

// The footer rules only v6 has: chunk offsets are 8-aligned, and the
// optional blocks come at most once each, 'CAMP' before 'PROT'.
TEST(SnapshotV6, FooterRejectsMisalignedChunksAndMisorderedBlocks) {
  const std::string path = "/tmp/opcua_test_v6_footer.bin";
  const std::string bad_path = "/tmp/opcua_test_v6_footer_bad.bin";
  std::vector<ScanSnapshot> study = make_study(10, 1);
  study[0].hosts[3].protocol = ProtocolId::mqtt_tls;  // the footer gains a 'PROT' block
  {
    SnapshotWriter writer(path, 42, 4);
    writer.set_campaign("footer-rules", days_from_civil({2020, 2, 9}));
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const Bytes full = read_file_bytes(path);
  const std::size_t footer = static_cast<std::size_t>(read_le64(full, full.size() - 12));
  // One week: 'FOOT', the count and one meta, then the chunk table; the
  // dictionary's offset, size and count (20 bytes) precede the blocks.
  const std::size_t chunk_table = footer + 8 + 36 + 4;
  ASSERT_EQ(read_le32(full, chunk_table - 4), 3u);
  const std::size_t camp = chunk_table + 3 * 24 + 20;
  const std::size_t prot = full.size() - 12 - 8;  // 'PROT' and one mask
  ASSERT_EQ(read_le32(full, camp), 0x504d4143u);  // 'CAMP'
  ASSERT_EQ(read_le32(full, prot), 0x544f5250u);  // 'PROT'
  const Bytes camp_block(full.begin() + static_cast<long>(camp),
                         full.begin() + static_cast<long>(prot));
  const Bytes prot_block(full.begin() + static_cast<long>(prot), full.end() - 12);
  const std::string prefix = "corrupt snapshot footer in " + bad_path + " (v6, footer at byte " +
                             std::to_string(footer) + "): ";

  Bytes blocks = camp_block;
  blocks.insert(blocks.end(), prot_block.begin(), prot_block.end());
  EXPECT_EQ(load_error(bad_path, with_footer_tail(full, camp, blocks)), "loaded");
  EXPECT_EQ(load_error(bad_path, with_footer_tail(full, camp, prot_block)), "loaded");

  Bytes prot_first = prot_block;
  prot_first.insert(prot_first.end(), camp_block.begin(), camp_block.end());
  EXPECT_EQ(load_error(bad_path, with_footer_tail(full, camp, prot_first)),
            prefix + "bad optional footer block magic");

  Bytes prot_twice = blocks;
  prot_twice.insert(prot_twice.end(), prot_block.begin(), prot_block.end());
  EXPECT_EQ(load_error(bad_path, with_footer_tail(full, camp, prot_twice)),
            prefix + "bad optional footer block magic");

  // Chunk 1's offset moved 4 bytes on: still inside the chunk region and
  // in order, but off the 8-byte grid the column spans need.
  Bytes misaligned = full;
  const std::size_t chunk1_offset = chunk_table + 24 + 8;
  ASSERT_EQ(read_le64(full, chunk1_offset) % 8, 0u);
  write_le32(misaligned, chunk1_offset, read_le32(full, chunk1_offset) + 4);
  EXPECT_EQ(load_error(bad_path, misaligned), prefix + "chunk 1 misaligned");

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// The footer rules only v5 has: chunks sit back to back at any alignment,
// and its one optional block is 'CAMP'.
TEST(SnapshotV5, FooterTakesOnlyACampaignBlockAndUnalignedChunks) {
  const std::string bad_path = "/tmp/opcua_test_v5_footer_bad.bin";
  const Bytes full = read_file_bytes(row_fixture("v5"));
  const std::size_t footer = static_cast<std::size_t>(read_le64(full, full.size() - 12));
  const std::size_t footer_end = full.size() - 12;
  const std::vector<ScanSnapshot> study = make_multi_endpoint_study(48);

  // A 'PROT' block (a mask per week) is no v5 block.
  const Bytes prot = {0x50, 0x52, 0x4f, 0x54, 3, 0, 0, 0, 3, 0, 0, 0};
  write_file_bytes(bad_path, with_footer_tail(full, footer_end, prot));
  try {
    const SnapshotReader reader(bad_path, 42);
    ADD_FAILURE() << "a v5 footer with a 'PROT' block opened";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(std::string(e.what()), "corrupt snapshot footer in " + bad_path +
                                         " (v5, footer at byte " + std::to_string(footer) +
                                         "): bad campaign block magic");
  }

  // A 'CAMP' block (label string and epoch per week) labels the weeks.
  Bytes camp = {0x43, 0x41, 0x4d, 0x50};
  for (const char* label : {"v5-base", "v5-followup"}) {
    const std::string text = label;
    const Bytes length = {static_cast<std::uint8_t>(text.size()), 0, 0, 0};
    camp.insert(camp.end(), length.begin(), length.end());
    camp.insert(camp.end(), text.begin(), text.end());
    const Bytes epoch = {0x7d, 0x47, 0, 0, 0, 0, 0, 0};  // 18301 days
    camp.insert(camp.end(), epoch.begin(), epoch.end());
  }
  write_file_bytes(bad_path, with_footer_tail(full, footer_end, camp));
  {
    const SnapshotReader reader(bad_path, 42);
    ASSERT_EQ(reader.snapshots().size(), 2u);
    EXPECT_EQ(reader.snapshots()[0].campaign_label, "v5-base");
    EXPECT_EQ(reader.snapshots()[1].campaign_label, "v5-followup");
    EXPECT_EQ(reader.snapshots()[1].campaign_epoch_days, 18301);
    EXPECT_EQ(reader.load_all(), study);
  }

  // Chunks of 11 rows sit back to back: six of the ten start off the
  // 8-byte grid, and each decodes to its rows.
  const SnapshotReader reader(row_fixture("v5"), 42);
  std::vector<std::size_t> unaligned;
  std::vector<std::size_t> first_row(study.size(), 0);
  for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
    const SnapshotChunkInfo& info = reader.chunks()[c];
    const auto& hosts = study[info.snapshot_ordinal].hosts;
    const auto first = hosts.begin() + static_cast<long>(first_row[info.snapshot_ordinal]);
    first_row[info.snapshot_ordinal] += info.record_count;
    if (info.file_offset % 8 == 0) continue;
    unaligned.push_back(c);
    EXPECT_EQ(reader.read_chunk(c), std::vector<HostScanRecord>(first, first + info.record_count))
        << "chunk " << c;
  }
  EXPECT_EQ(unaligned, (std::vector<std::size_t>{2, 4, 5, 6, 7, 9}));
  std::remove(bad_path.c_str());
}

/// Appends the `width` low bytes of `value`, little-endian.
void put_le(Bytes& out, std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

// A chunk whose offset plus size wraps past 2^64 back into the chunk
// region is rejected at open in both footers, before a read could reach
// past the file's bytes.
TEST(SnapshotV6, WrappingChunkExtentsRejectedAtOpen) {
  const std::string path = "/tmp/opcua_test_wrapping_extent.bin";
  // One week of one host in one chunk, the footer right behind the header
  // (v5) or behind an empty dictionary (v6).
  const auto crafted = [](std::uint32_t version, std::uint64_t offset, std::uint64_t payload) {
    Bytes b;
    put_le(b, 0x4f554153, 4);  // 'OUAS'
    put_le(b, version, 4);
    put_le(b, 42, 8);
    if (version == 6) {
      put_le(b, 0x43494443, 4);  // 'CDIC', no entries
      put_le(b, 0, 4);
    }
    const std::uint64_t footer = b.size();
    put_le(b, 0x544f4f46, 4);  // 'FOOT'
    put_le(b, 1, 4);
    for (const int width : {4, 8, 8, 8}) put_le(b, 0, width);
    put_le(b, 1, 8);  // host_count
    put_le(b, 1, 4);  // chunk_count
    put_le(b, 0, 4);
    put_le(b, 1, 4);
    put_le(b, offset, 8);
    put_le(b, payload, 8);
    if (version == 6) {
      put_le(b, 16, 8);  // dict_offset
      put_le(b, 8, 8);   // dict_bytes
      put_le(b, 0, 4);   // dict_count
    }
    put_le(b, footer, 8);
    put_le(b, 0x50414e53, 4);  // 'SNAP'
    return b;
  };
  // v6: 2^63 + 24 header bytes + (2^63 - 24) wraps to 0.
  EXPECT_EQ(load_error(path, crafted(6, 1ull << 63, (1ull << 63) - 24)),
            "corrupt snapshot footer in " + path +
                " (v6, footer at byte 24): chunk 0 extent out of range");
  // v5: 100 + 20 header bytes + (2^64 - 120) wraps to 0.
  EXPECT_EQ(load_error(path, crafted(5, 100, 0 - 120ull)),
            "corrupt snapshot footer in " + path +
                " (v5, footer at byte 16): chunk 0 extent out of range");
  std::remove(path.c_str());
}

// The reader maps every file it opens, and unmaps it with the reader,
// also when the open fails after mapping.
TEST(SnapshotV6, FailedOpenReleasesItsMapping) {
  if (!std::filesystem::exists("/proc/self/maps")) GTEST_SKIP() << "no /proc/self/maps here";
  const std::string path = "/tmp/opcua_test_v6_unmapped.bin";
  const auto mapped = [&] {
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);) {
      if (line.find(path) != std::string::npos) return true;
    }
    return false;
  };
  save_snapshots(path, 42, make_study(3, 1));
  {
    const SnapshotReader reader(path, 42);
    EXPECT_TRUE(mapped());
  }
  EXPECT_FALSE(mapped());
  EXPECT_THROW(SnapshotReader(path, 43), SnapshotError);
  EXPECT_FALSE(mapped()) << "seed mismatch";

  Bytes bad_footer = read_file_bytes(path);
  bad_footer[static_cast<std::size_t>(read_le64(bad_footer, bad_footer.size() - 12))] ^= 0xff;
  write_file_bytes(path, bad_footer);
  EXPECT_THROW(SnapshotReader(path, 42), SnapshotError);
  EXPECT_FALSE(mapped()) << "bad footer magic";
  std::remove(path.c_str());
}

TEST(Analysis, MatchesAssessReferenceBitForBit) {
  const std::pair<std::vector<ScanSnapshot>, const char*> inputs[] = {
      {make_study(60), "figures.make_study_60.txt"},
      {make_multi_endpoint_study(60), "figures.make_multi_endpoint_study_60.txt"}};
  for (const auto& [study, golden] : inputs) {
    const StudyAnalysis analysis = analyze_snapshots(study, {});
    expect_golden_figures(analysis, golden);

    // The synthetic study is rich enough to exercise the interesting paths.
    EXPECT_GT(analysis.reuse.clusters_ge3, 0);
    EXPECT_GT(analysis.deficits.cert_reuse, 0);
    EXPECT_FALSE(analysis.longitudinal.renewals.empty());
    EXPECT_GT(analysis.longitudinal.weeks.back().reuse_devices, 0);
    EXPECT_FALSE(analysis.access_rights.read_fractions.empty());
  }

  // The multi-endpoint input really carries the shapes it exists for: a
  // host whose primary certificate (the first endpoint certificate that
  // parses) is not its first, under a URI the policy table does not
  // know, and a weaker policy listed after a stronger one.
  const std::vector<ScanSnapshot> multi = make_multi_endpoint_study(60);
  const HostScanRecord& odd = multi.back().hosts[1];
  EXPECT_FALSE(odd.endpoints[0].policy_known);
  EXPECT_THROW(x509_parse(odd.endpoints[0].certificate_der), DecodeError);
  ASSERT_GE(odd.endpoints.size(), 2u);
  EXPECT_NO_THROW(x509_parse(odd.endpoints[1].certificate_der));
  EXPECT_NE(odd.endpoints[1].certificate_der, odd.endpoints[0].certificate_der);
  EXPECT_EQ(multi.back().hosts[10].advertised_policies(),
            (std::vector<SecurityPolicy>{SecurityPolicy::Basic256Sha256,
                                         SecurityPolicy::Aes128Sha256RsaOaep}));
}

TEST(Analysis, SharedPrimesMatchesReference) {
  const std::vector<ScanSnapshot> study = make_study(24, 1);
  AnalysisOptions options;
  options.shared_primes = true;
  const StudyAnalysis analysis = analyze_snapshots(study, options);
  expect_golden_figures(analysis, "figures.make_study_24x1.shared_primes.txt");
  EXPECT_GT(analysis.shared_primes.distinct_moduli, 0u);
}

TEST(Analysis, DeterministicAcrossThreadsAndChunking) {
  const std::string path = "/tmp/opcua_test_determinism.bin";
  const std::vector<ScanSnapshot> study = make_study(120);
  {
    // Small chunks -> many parallel work units with odd-sized tails.
    SnapshotWriter writer(path, 42, 17);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  AnalysisOptions serial;
  serial.threads = 1;
  AnalysisOptions parallel;
  parallel.threads = 8;
  const StudyAnalysis reference = analyze_snapshots(study, serial);
  const StudyAnalysis streamed1 = analyze_file(path, 42, serial);
  const StudyAnalysis streamed8 = analyze_file(path, 42, parallel);
  EXPECT_TRUE(streamed1.figures_equal(reference));
  EXPECT_TRUE(streamed8.figures_equal(reference));

  EXPECT_TRUE(analyze_source(SnapshotVectorSource(study, 7), parallel).figures_equal(reference));
  std::remove(path.c_str());
}

// The two reuse tallies that read the final week's >= 3-host sets, on a
// study whose weeks hold different hosts: one golden, the same from
// in-memory chunks of 1, 7 and the default size and from a v6 file, at 1
// and 8 threads.
TEST(Analysis, ReuseTalliesMatchGoldenWhenWeeksDiffer) {
  const std::string golden = "figures.make_reuse_churn_study.shared_primes.txt";
  const std::string path = "/tmp/opcua_test_reuse_churn.bin";
  const std::vector<ScanSnapshot> study = make_reuse_churn_study();
  {
    SnapshotWriter writer(path, 42, 7);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    AnalysisOptions options;
    options.threads = threads;
    options.shared_primes = true;
    const StudyAnalysis analysis = analyze_snapshots(study, options);
    expect_golden_figures(analysis, golden);
    expect_golden_figures(analyze_source(SnapshotVectorSource(study, 1), options), golden);
    expect_golden_figures(analyze_source(SnapshotVectorSource(study, 7), options), golden);
    expect_golden_figures(analyze_file(path, 42, options), golden);

    // Hand counts of the shapes the generator plants: kB0 on six, five
    // and four servers of weeks 0-2 (discovery server 19 never counts);
    // fifteen final-week servers carry a reused certificate, server 25
    // two of them; kD0's discovery-only modulus shares a prime with kT0's.
    ASSERT_EQ(analysis.longitudinal.weeks.size(), 3u);
    EXPECT_EQ(analysis.longitudinal.weeks[0].reuse_devices, 6);
    EXPECT_EQ(analysis.longitudinal.weeks[1].reuse_devices, 5);
    EXPECT_EQ(analysis.longitudinal.weeks[2].reuse_devices, 4);
    EXPECT_EQ(analysis.deficits.cert_reuse, 15);
    EXPECT_EQ(analysis.shared_primes.moduli_with_shared_prime, 2u);
    ASSERT_FALSE(analysis.reuse.clusters.empty());
    EXPECT_EQ(analysis.reuse.clusters.front().host_count, 5);
  }
  std::remove(path.c_str());
}

// Every generator above emits records in ascending (ip, port) order, so
// only a shuffled study shows whether the host history is grouped by
// endpoint: one golden, the same from in-memory chunks of 1, 7 and the
// default size and from a v6 file, at 1 and 8 threads.
TEST(Analysis, EndpointHistoryIndependentOfRecordOrder) {
  const std::string golden = "figures.make_reuse_churn_study.shuffled.txt";
  const std::string path = "/tmp/opcua_test_reuse_churn_shuffled.bin";
  const std::vector<ScanSnapshot> study = make_shuffled_churn_study();
  ASSERT_FALSE(std::ranges::is_sorted(study.back().hosts, {}, &HostScanRecord::ip));
  {
    SnapshotWriter writer(path, 42, 7);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    AnalysisOptions options;
    options.threads = threads;
    const StudyAnalysis analysis = analyze_snapshots(study, options);
    expect_golden_figures(analysis, golden);
    expect_golden_figures(analyze_source(SnapshotVectorSource(study, 1), options), golden);
    expect_golden_figures(analyze_source(SnapshotVectorSource(study, 7), options), golden);
    expect_golden_figures(analyze_file(path, 42, options), golden);

    // Renewals in (ip, port, week) order: server 22 on 4840 (week 2,
    // SHA-1 -> SHA-256 with a software update), then on 4841 (week 1,
    // SHA-256 -> SHA-1), then server 24 (week 2, SHA-256 -> SHA-1).
    const auto renewal = [](std::uint32_t id, int week, bool update, bool upgrade) {
      return RenewalEvent{static_cast<Ipv4>(0x14000000u + id), week, update, upgrade, !upgrade};
    };
    EXPECT_EQ(analysis.longitudinal.renewals,
              (std::vector<RenewalEvent>{renewal(22, 2, true, true), renewal(22, 1, false, false),
                                         renewal(24, 2, false, false)}));
  }
  std::remove(path.c_str());
}

TEST(Analysis, EmptyAndSingleWeekStudies) {
  const std::string path = "/tmp/opcua_test_empty.bin";
  {
    SnapshotWriter writer(path, 42);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  EXPECT_EQ(reader.snapshots().size(), 0u);
  EXPECT_EQ(reader.total_records(), 0u);
  const StudyAnalysis empty = analyze_reader(reader, {});
  EXPECT_TRUE(empty.weeks.empty());
  EXPECT_EQ(empty.modes.servers, 0);

  expect_golden_figures(analyze_snapshots(make_study(8, 1), {}), "figures.make_study_8x1.txt");
  std::remove(path.c_str());
}

TEST(StreamedStudyWriter, MatchesBatchSave) {
  // The streamed writer (one measurement at a time) and save_snapshots
  // (whole vector) must produce files with identical logical content.
  const std::string batch_path = "/tmp/opcua_test_batch.bin";
  const std::string stream_path = "/tmp/opcua_test_stream.bin";
  const std::vector<ScanSnapshot> study = make_study(20, 3);
  save_snapshots(batch_path, 42, study);
  {
    SnapshotWriter writer(stream_path, 42);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  EXPECT_EQ(read_file_bytes(batch_path), read_file_bytes(stream_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(SnapshotV6, RewriteFromV4AndV5IsEquivalentAndDeterministic) {
  const std::string out_a = "/tmp/opcua_test_rw_a.bin";
  const std::string out_b = "/tmp/opcua_test_rw_b.bin";
  const std::string direct = "/tmp/opcua_test_rw_direct.bin";
  const std::vector<ScanSnapshot> study = make_multi_endpoint_study(48);

  // v4 -> v6 and v5 -> v6 rewrites preserve every record and, fed the
  // same records and seed, produce byte-identical v6 files — the same
  // bytes as writing the records as v6 directly.
  save_snapshots(out_a, 42, SnapshotReader(row_fixture("v4"), 42).load_all());
  save_snapshots(out_b, 42, SnapshotReader(row_fixture("v5"), 42).load_all());
  save_snapshots(direct, 42, study);
  EXPECT_EQ(read_file_bytes(out_a), read_file_bytes(out_b));
  EXPECT_EQ(read_file_bytes(out_a), read_file_bytes(direct));

  const SnapshotReader v6_reader(out_a, 42);
  EXPECT_EQ(v6_reader.version(), 6u);
  EXPECT_EQ(v6_reader.load_all(), study);

  // Rewriting the same records again is byte-stable.
  save_snapshots(out_b, 42, v6_reader.load_all());
  EXPECT_EQ(read_file_bytes(out_a), read_file_bytes(out_b));

  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  std::remove(direct.c_str());
}

TEST(SnapshotV6, FiguresIdenticalAcrossFormatsAndThreads) {
  const std::string v6_path = "/tmp/opcua_test_fig_v6.bin";
  const std::vector<ScanSnapshot> plain = make_study(48);
  const std::vector<ScanSnapshot> multi = make_multi_endpoint_study(48);
  for (const std::vector<ScanSnapshot>* study : {&plain, &multi}) {
    {
      SnapshotWriter writer(v6_path, 42, 11);
      for (const auto& snapshot : *study) writer.add_snapshot(snapshot);
      writer.finish();
    }
    // The v4/v5 fixtures hold the multi-endpoint input, which keeps every
    // host shape of make_study(48).
    std::vector<std::string> paths = {v6_path};
    if (study == &multi) {
      paths.push_back(row_fixture("v4"));
      paths.push_back(row_fixture("v5"));
    }

    // The mapped v6 columns, the transposed v4/v5 rows, and the transposed
    // in-memory reference must agree figure for figure at any thread count.
    AnalysisOptions serial;
    serial.threads = 1;
    serial.shared_primes = true;
    AnalysisOptions parallel = serial;
    parallel.threads = 8;
    const StudyAnalysis reference = analyze_snapshots(*study, serial);
    for (const std::string& path : paths) {
      EXPECT_TRUE(analyze_file(path, 42, serial).figures_equal(reference)) << path;
      EXPECT_TRUE(analyze_file(path, 42, parallel).figures_equal(reference)) << path;
      // Rows round-trip through every format, the unparseable DER included.
      EXPECT_EQ(SnapshotReader(path, 42).load_all(), *study) << path;
    }
  }
  std::remove(v6_path.c_str());
}

TEST(SnapshotV6, DictionaryIdOutOfRangeRejected) {
  const std::string path = "/tmp/opcua_test_dict_range.bin";
  const std::vector<ScanSnapshot> study = make_study(10, 1);
  {
    SnapshotWriter writer(path, 42, 3);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  Bytes bytes = read_file_bytes(path);
  std::uint64_t chunk1_offset = 0;
  {
    const SnapshotReader reader(path, 42);
    ASSERT_GE(reader.chunks().size(), 2u);
    ASSERT_EQ(reader.chunks()[1].record_count, 3u);
    chunk1_offset = reader.chunks()[1].file_offset;
  }
  // Chunk 1's first record is host 3, which carries a certificate: its var
  // record starts with u16 head count, then the u32 dictionary ids. Patch
  // the first id to a value far past the dictionary.
  const std::size_t id_offset = chunk1_offset + 24 + (47 * 3 + 4) + 2;
  bytes[id_offset + 0] = 0xfe;
  bytes[id_offset + 1] = 0xff;
  bytes[id_offset + 2] = 0xff;
  bytes[id_offset + 3] = 0xff;
  write_file_bytes(path, bytes);

  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("certificate id"), std::string::npos) << error;
  EXPECT_NE(error.find("dictionary range"), std::string::npos) << error;
  // The columnar figure pass must reject it too, not index out of bounds.
  EXPECT_THROW(analyze_file(path, 42, {}), SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotV6, SeedMismatchNamesFormatVersion) {
  const std::string v6_path = "/tmp/opcua_test_seed_v6.bin";
  save_snapshots(v6_path, 42, make_study(3, 1));

  // The mis-seed diagnostic names the detected format version and the
  // offset of the seed field, so operators can see *what* they opened.
  const auto expect_mis_seed = [](const std::string& path, const char* version_tag) {
    std::string error;
    EXPECT_FALSE(load_snapshots(path, 43, &error).has_value());
    EXPECT_NE(error.find("seed mismatch"), std::string::npos) << error;
    EXPECT_NE(error.find("byte offset 8"), std::string::npos) << error;
    EXPECT_NE(error.find(version_tag), std::string::npos) << error;
  };
  expect_mis_seed(row_fixture("v4"), "v4");
  expect_mis_seed(row_fixture("v5"), "v5");
  expect_mis_seed(v6_path, "v6");
  std::remove(v6_path.c_str());
}

TEST(SnapshotV6, ReadChunkBufferOverloadMatches) {
  const std::string path = "/tmp/opcua_test_buffer.bin";
  const std::vector<ScanSnapshot> study = make_study(10);
  {
    SnapshotWriter writer(path, 42, 4);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  std::vector<HostScanRecord> buffer;  // reused across every chunk
  for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
    reader.read_chunk(c, buffer);
    EXPECT_EQ(buffer, reader.read_chunk(c)) << "chunk " << c;
  }
  std::remove(path.c_str());
}

TEST(SnapshotV6, DictionaryCompressionShrinksFile) {
  const std::string v6_path = "/tmp/opcua_test_size_v6.bin";
  {
    SnapshotWriter writer(v6_path, 42, 11);  // the v5 fixture's chunking
    for (const auto& snapshot : make_multi_endpoint_study(48)) writer.add_snapshot(snapshot);
    writer.finish();
  }
  // The fleet shares 6 certificates across 96 host records: the v6
  // dictionary stores each DER once, so the file must be at least 3x
  // smaller than the v5 row format's inline-DER size for the same records
  // (22,133 vs 70,266 bytes).
  const std::size_t v5_size = read_file_bytes(row_fixture("v5")).size();
  const std::size_t v6_size = read_file_bytes(v6_path).size();
  EXPECT_LE(v6_size * 3, v5_size) << "v5=" << v5_size << " v6=" << v6_size;
  std::remove(v6_path.c_str());
}

// The v6 writer's bytes, pinned: the SHA-256 of a fixed synthetic study
// written as v6 (ragged 37-record chunks, a campaign block, a dictionary
// with an unparseable DER), recorded with the library before certificate
// hashing moved to block-wise SHA-1 and hash-on-insert interning.
TEST(SnapshotV6, WrittenBytesMatchRecordedDigest) {
  const std::string path = "/tmp/opcua_test_v6_pinned.bin";
  {
    SnapshotWriter writer(path, 42, 37);
    writer.set_campaign("pinned-study", days_from_civil({2020, 2, 9}));
    for (const auto& snapshot : make_multi_endpoint_study(240)) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const Bytes bytes = read_file_bytes(path);
  EXPECT_EQ(bytes.size(), kPinnedV6Size);
  EXPECT_EQ(to_hex(hash(HashAlgorithm::sha256, bytes)), kPinnedV6Sha256);
  std::remove(path.c_str());
}

TEST(SnapshotV6, FailedChunkWriteThrowsBeforeFinish) {
  // A full disk must stop a campaign at the chunk that failed, not after
  // the whole scan when finish() seals the file.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const std::string path = "/tmp/opcua_test_full_disk.bin";
  std::filesystem::remove(path + ".tmp");
  std::filesystem::create_symlink("/dev/full", path + ".tmp");
  std::string error;
  {
    SnapshotWriter writer(path, 42, /*chunk_records=*/1);
    writer.begin_snapshot(0, 0);
    try {
      for (std::size_t i = 0; i < 2000; ++i) writer.add_host(make_host(i, 0));
    } catch (const SnapshotError& e) {
      error = e.what();
    }
  }
  EXPECT_NE(error.find("chunk 0"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(path + ".tmp");
}

}  // namespace
}  // namespace opcua_study
