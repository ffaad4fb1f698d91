// Report rendering and snapshot persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "analysis/paper.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "scanner/snapshot_io.hpp"

namespace opcua_study {
namespace {

TEST(Report, TableAlignsColumns) {
  TextTable table;
  table.set_header({"a", "long-header", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"wide-cell", "x", ""});
  const std::string out = table.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  // Every line has the same length (fixed-width columns).
  std::size_t first_len = out.find('\n');
  std::size_t pos = first_len + 1;
  while (pos < out.size()) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Report, Bars) {
  EXPECT_EQ(render_bar(0, 100, 10), "..........");
  EXPECT_EQ(render_bar(100, 100, 10), "##########");
  EXPECT_EQ(render_bar(50, 100, 10), "#####.....");
  EXPECT_EQ(render_bar(200, 100, 10), "##########");  // clamped
  EXPECT_EQ(render_bar(5, 0, 4), "####");              // degenerate max
}

TEST(Report, Formatting) {
  EXPECT_EQ(fmt_int(42), "42");
  EXPECT_EQ(fmt_pct(0.9203, 1), "92.0%");
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
}

TEST(Report, ComparisonMarksMismatches) {
  const auto good = compare_num("x", 10, 10, 0);
  const auto bad = compare_num("y", 10, 12, 1);
  EXPECT_TRUE(good.matches);
  EXPECT_FALSE(bad.matches);
  const std::string block = render_comparison("t", {good, bad});
  EXPECT_NE(block.find("MISMATCH"), std::string::npos);
  EXPECT_NE(block.find("DEVIATIONS PRESENT"), std::string::npos);
  const std::string clean = render_comparison("t", {good});
  EXPECT_NE(clean.find("[all reproduced]"), std::string::npos);
}

// Every report, the service's responses and BENCH_crypto.json render
// through JsonWriter. One document over each value form, each escape and
// each nesting it emits, compared with the bytes it rendered when it wrote
// through a std::ostringstream at precision 12.
TEST(Report, JsonWriterMatchesRecordedBytes) {
  std::string controls;
  for (char c = 1; c < 0x20; ++c) controls.push_back(c);
  controls.push_back('\x7f');
  JsonWriter json;
  json.begin_object()
      .field("schema", "json-writer-pin")
      .key("empty_object").begin_object().end_object()
      .key("empty_array").begin_array().end_array()
      .key("nested").begin_array()
      .begin_object().key("inner").begin_array().value(1).begin_array().end_array().end_array()
      .end_object()
      .begin_array().begin_object().end_object().begin_object().field("k", 2).end_object()
      .end_array()
      .end_array()
      .field("quote\"back\\slash\nnew\ttab\rret", std::string("a\"b\\c\nd\te\rf"))
      .field(controls, controls)
      .field("utf8", std::string("Gr\xc3\xbc\xc3\x9f" "e \xe2\x82\xac \xf0\x9f\x94\x92"))
      .key("doubles").begin_array()
      .value(0.0).value(-0.0).value(0.1).value(1.0 / 3).value(2.5).value(1e-7)
      .value(123456789012.5).value(1e21).value(1e300)
      .end_array()
      .key("integers").begin_array()
      .value(std::numeric_limits<int>::min()).value(-1).value(0)
      .value(std::numeric_limits<std::uint64_t>::max())
      .end_array()
      .field("yes", true)
      .field("no", false)
      .field("c_string", "plain")
      .field("std_string", std::string("owned"))
      .end_object();
  const std::string expected =
      "{\"schema\": \"json-writer-pin\", \"empty_object\": {}, "
      "\"empty_array\": [], \"nested\": [{\"inner\": [1, []]}, [{}, {\"k\": 2}]], "
      "\"quote\\\"back\\\\slash\\nnew\\ttab\\rret\": \"a\\\"b\\\\c\\nd\\te\\rf\", "
      "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r"
      "\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018"
      "\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\x7f\": "
      "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r"
      "\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018"
      "\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\x7f\", "
      "\"utf8\": \"Gr\xc3\xbc\xc3\x9f" "e \xe2\x82\xac \xf0\x9f\x94\x92\", "
      "\"doubles\": [0, -0, 0.1, 0.333333333333, 2.5, 1e-07, 123456789012, 1e+21, "
      "1e+300], \"integers\": [-2147483648, -1, 0, 18446744073709551615], "
      "\"yes\": true, \"no\": false, \"c_string\": \"plain\", \"std_string\": \"owned\"}\n";
  EXPECT_EQ(json.str(), expected);
}

ScanSnapshot sample_snapshot() {
  ScanSnapshot snapshot;
  snapshot.measurement_index = 7;
  snapshot.date_days = 18504;
  snapshot.probes_sent = 1000;
  snapshot.tcp_open_count = 50;
  HostScanRecord host;
  host.ip = make_ipv4(20, 0, 0, 5);
  host.port = 4840;
  host.asn = 64500;
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:test:device";
  host.application_type = ApplicationType::Server;
  host.software_version = "1.2.0";
  EndpointObservation ep;
  ep.url = "opc.tcp://20.0.0.5:4840/";
  ep.mode = MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(SecurityPolicy::Basic256Sha256).uri);
  ep.policy = SecurityPolicy::Basic256Sha256;
  ep.policy_known = true;
  ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
  ep.certificate_der = {1, 2, 3, 4, 5};
  host.endpoints.push_back(ep);
  host.referenced_targets.emplace_back(make_ipv4(20, 0, 0, 9), 4841);
  host.channel = ChannelOutcome::established;
  host.channel_policy = SecurityPolicy::Basic256Sha256;
  host.channel_mode = MessageSecurityMode::SignAndEncrypt;
  host.anonymous_offered = true;
  host.session = SessionOutcome::accessible;
  host.namespaces = {"http://opcfoundation.org/UA/", "urn:plant"};
  NodeObservation node;
  node.browse_name = "m3InflowPerHour";
  node.node_class = NodeClass::Variable;
  node.readable = true;
  host.nodes.push_back(node);
  host.bytes_sent = 123456;
  host.duration_seconds = 110.5;
  snapshot.hosts.push_back(std::move(host));
  return snapshot;
}

// The reproduction over studies too small to reproduce anything: every
// section still prints in paper order, the result is a failure, and no
// value is read from an empty container. The second study's accessible
// host has variables but no method, so Fig. 7's exec curve is empty while
// its read curve is not.
TEST(Report, ReproductionOfDegenerateStudiesFailsCleanly) {
  const std::vector<StudyAnalysis> studies = {StudyAnalysis{},
                                              analyze_snapshots({sample_snapshot()})};
  for (const StudyAnalysis& analysis : studies) {
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    bool reproduced = true;
    EXPECT_NO_THROW(reproduced = reproduce_paper(analysis, out));
    EXPECT_FALSE(reproduced);
    std::string text(static_cast<std::size_t>(std::ftell(out)), '\0');
    std::rewind(out);
    ASSERT_EQ(std::fread(text.data(), 1, text.size(), out), text.size());
    std::fclose(out);
    std::size_t pos = 0;
    for (const char* title : {"Table 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
                              "Section 5.3", "Figure 6", "Table 2", "Figure 7",
                              "Figure 8 / headline", "Section 5.5"}) {
      pos = text.find("== " + std::string(title) + " vs paper ==", pos);
      ASSERT_NE(pos, std::string::npos) << title;
    }
    EXPECT_NE(text.find("MISMATCH"), std::string::npos);
  }
}

TEST(SnapshotIo, RoundTrip) {
  const std::string path = "/tmp/opcua_study_test_snapshots.bin";
  const std::vector<ScanSnapshot> snapshots = {sample_snapshot()};
  save_snapshots(path, 42, snapshots);

  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  const ScanSnapshot& snapshot = loaded->front();
  EXPECT_EQ(snapshot.measurement_index, 7);
  EXPECT_EQ(snapshot.probes_sent, 1000u);
  ASSERT_EQ(snapshot.hosts.size(), 1u);
  const HostScanRecord& host = snapshot.hosts.front();
  EXPECT_EQ(host.ip, make_ipv4(20, 0, 0, 5));
  EXPECT_EQ(host.application_uri, "urn:test:device");
  ASSERT_EQ(host.endpoints.size(), 1u);
  EXPECT_EQ(host.endpoints[0].policy, SecurityPolicy::Basic256Sha256);
  EXPECT_TRUE(host.endpoints[0].policy_known);
  EXPECT_EQ(host.endpoints[0].token_types.size(), 2u);
  EXPECT_EQ(host.endpoints[0].certificate_der, (Bytes{1, 2, 3, 4, 5}));
  ASSERT_EQ(host.referenced_targets.size(), 1u);
  EXPECT_EQ(host.referenced_targets[0].second, 4841);
  EXPECT_EQ(host.session, SessionOutcome::accessible);
  ASSERT_EQ(host.nodes.size(), 1u);
  EXPECT_EQ(host.nodes[0].browse_name, "m3InflowPerHour");
  EXPECT_DOUBLE_EQ(host.duration_seconds, 110.5);

  // Wrong seed -> cache miss.
  EXPECT_FALSE(load_snapshots(path, 43).has_value());
  // Missing file -> cache miss.
  EXPECT_FALSE(load_snapshots("/tmp/no_such_snapshot_file.bin", 42).has_value());
  std::remove(path.c_str());
}

TEST(SnapshotIo, CorruptFileRejected) {
  const std::string path = "/tmp/opcua_study_corrupt.bin";
  save_snapshots(path, 42, {sample_snapshot()});
  // Truncate.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(load_snapshots(path, 42).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opcua_study
