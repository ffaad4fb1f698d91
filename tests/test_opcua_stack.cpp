// End-to-end OPC UA stack tests: encoding round-trips, transport framing,
// secure conversation, and full client↔server exchanges over the simulated
// network — for every security policy and mode combination of Table 1.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "crypto/aes.hpp"
#include "crypto/hash.hpp"
#include "crypto/hmac.hpp"
#include "crypto/x509.hpp"
#include "netsim/opcua_service.hpp"
#include "opcua/client.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"

namespace opcua_study {
namespace {

// ------------------------------------------------------- shared fixtures ----

struct TestIdentity {
  RsaKeyPair keys;
  Bytes cert_der;
};

TestIdentity make_identity(const std::string& cn, std::uint64_t seed, HashAlgorithm sig_hash,
                           std::size_t bits = 768) {
  Rng rng(seed);
  TestIdentity id;
  id.keys = rsa_generate(rng, bits, 8);
  CertificateSpec spec;
  spec.subject = {cn, "Test Org", "DE"};
  spec.signature_hash = sig_hash;
  spec.serial = Bignum{seed};
  spec.not_before_days = days_from_civil({2019, 1, 1});
  spec.not_after_days = days_from_civil({2030, 1, 1});
  spec.application_uri = "urn:" + cn;
  id.cert_der = x509_create(spec, id.keys.pub, id.keys.priv);
  return id;
}

const TestIdentity& server_identity() {
  static const TestIdentity id = make_identity("test-server", 9001, HashAlgorithm::sha256);
  return id;
}

const TestIdentity& client_identity() {
  static const TestIdentity id = make_identity("test-scanner", 9002, HashAlgorithm::sha256);
  return id;
}

std::shared_ptr<AddressSpace> make_space() {
  auto space = std::make_shared<AddressSpace>();
  const std::uint16_t ns = space->add_namespace("urn:test:vendor");
  space->add_object(NodeId(ns, 100), node_ids::kObjectsFolder, "Plant");
  space->add_variable(NodeId(ns, 101), NodeId(ns, 100), "m3InflowPerHour", Variant{12.5},
                      access_level::kCurrentRead);
  space->add_variable(NodeId(ns, 102), NodeId(ns, 100), "rSetFillLevel", Variant{80.0},
                      access_level::kCurrentRead | access_level::kCurrentWrite);
  space->add_variable(NodeId(ns, 103), NodeId(ns, 100), "secret", Variant{"classified"}, 0);
  space->add_method(NodeId(ns, 104), NodeId(ns, 100), "AddEndpoint", true);
  space->add_method(NodeId(ns, 105), NodeId(ns, 100), "Reboot", false);
  return space;
}

ServerConfig make_server_config(SecurityPolicy policy, MessageSecurityMode mode,
                                bool with_none_endpoint = true) {
  ServerConfig config;
  config.identity.application_uri = "urn:test-server";
  config.identity.product_uri = "urn:test:product";
  config.identity.application_name = "Test Server";
  config.certificates = {server_identity().cert_der};
  config.private_keys = {server_identity().keys.priv};
  config.address_space = make_space();
  if (with_none_endpoint) {
    EndpointConfig none_ep;
    none_ep.url = "opc.tcp://10.0.0.1:4840/";
    none_ep.mode = MessageSecurityMode::None;
    none_ep.policy = SecurityPolicy::None;
    none_ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
    config.endpoints.push_back(none_ep);
  }
  if (policy != SecurityPolicy::None) {
    EndpointConfig secure_ep;
    secure_ep.url = "opc.tcp://10.0.0.1:4840/";
    secure_ep.mode = mode;
    secure_ep.policy = policy;
    secure_ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
    config.endpoints.push_back(secure_ep);
  }
  return config;
}

struct Rig {
  Network net;
  std::shared_ptr<Server> server;
  std::unique_ptr<NetConnection> conn;
  std::unique_ptr<Client> client;

  explicit Rig(ServerConfig config) {
    server = std::make_shared<Server>(std::move(config), 77);
    const Ipv4 ip = make_ipv4(10, 0, 0, 1);
    net.listen(ip, kOpcUaDefaultPort, make_opcua_factory(server));
    conn = net.connect(ip, kOpcUaDefaultPort);
    ClientConfig cc;
    cc.certificate_der = client_identity().cert_der;
    cc.private_key = client_identity().keys.priv;
    client = std::make_unique<Client>(cc, *conn, Rng(123));
  }
};

// ------------------------------------------------------------- encoding ----

TEST(UaEncoding, NodeIdFormsRoundTrip) {
  UaWriter w;
  w.node_id(NodeId(0, 84));           // two-byte
  w.node_id(NodeId(3, 1025));         // four-byte
  w.node_id(NodeId(300, 500000));     // numeric
  w.node_id(NodeId(2, "m3Inflow"));   // string
  UaReader r(w.bytes());
  EXPECT_EQ(r.node_id(), NodeId(0, 84));
  EXPECT_EQ(r.node_id(), NodeId(3, 1025));
  EXPECT_EQ(r.node_id(), NodeId(300, 500000));
  EXPECT_EQ(r.node_id(), NodeId(2, "m3Inflow"));
  EXPECT_TRUE(r.done());
}

TEST(UaEncoding, StringsAndNulls) {
  UaWriter w;
  w.string("hello");
  w.null_string();
  w.string("");
  UaReader r(w.bytes());
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.string(), "");
}

TEST(UaEncoding, VariantsRoundTrip) {
  const std::vector<Variant> values = {
      Variant{},
      Variant{true},
      Variant{std::int32_t{-5}},
      Variant{std::uint32_t{17}},
      Variant{std::int64_t{1} << 40},
      Variant{2.75},
      Variant{"text value"},
      Variant{Bytes{1, 2, 3}},
      Variant{std::vector<std::string>{"http://opcfoundation.org/UA/", "urn:vendor"}},
  };
  UaWriter w;
  for (const auto& v : values) w.variant(v);
  UaReader r(w.bytes());
  for (const auto& v : values) EXPECT_EQ(r.variant(), v);
}

TEST(UaEncoding, DataValueWithStatus) {
  DataValue dv;
  dv.status = StatusCode::BadNotReadable;
  UaWriter w;
  w.data_value(dv);
  UaReader r(w.bytes());
  const DataValue back = r.data_value();
  EXPECT_EQ(back.status, StatusCode::BadNotReadable);
  EXPECT_TRUE(back.value.empty());
}

TEST(UaEncoding, EndpointDescriptionRoundTrip) {
  EndpointDescription e;
  e.endpoint_url = "opc.tcp://192.0.2.1:4840/";
  e.server.application_uri = "urn:dev";
  e.server.application_name = {"en", "Device"};
  e.server_certificate = {1, 2, 3, 4};
  e.security_mode = MessageSecurityMode::SignAndEncrypt;
  e.security_policy_uri = std::string(policy_info(SecurityPolicy::Basic256Sha256).uri);
  UserTokenPolicy t;
  t.policy_id = "anonymous";
  t.token_type = UserTokenType::Anonymous;
  e.user_identity_tokens.push_back(t);
  UaWriter w;
  e.encode(w);
  UaReader r(w.bytes());
  const EndpointDescription back = EndpointDescription::decode(r);
  EXPECT_EQ(back.endpoint_url, e.endpoint_url);
  EXPECT_EQ(back.security_mode, MessageSecurityMode::SignAndEncrypt);
  EXPECT_EQ(back.server_certificate, e.server_certificate);
  ASSERT_EQ(back.user_identity_tokens.size(), 1u);
  EXPECT_EQ(back.user_identity_tokens[0].token_type, UserTokenType::Anonymous);
}

TEST(UaEncoding, ServiceEnvelope) {
  GetEndpointsRequest req;
  req.endpoint_url = "opc.tcp://host:4840/";
  const Bytes packed = pack_service(req);
  EXPECT_EQ(peek_type_id(packed), type_ids::kGetEndpointsRequest);
  const auto back = unpack_service<GetEndpointsRequest>(packed);
  EXPECT_EQ(back.endpoint_url, req.endpoint_url);
  EXPECT_THROW(unpack_service<BrowseRequest>(packed), DecodeError);
}

// ---------------------------------------------------------- codec golden ----

/// One structure on the wire: a name, its encoding, and a decode that
/// re-encodes what it decoded (through pack_service/unpack_service for
/// services, so the type-id check is part of every case).
struct CodecCase {
  std::string name;
  Bytes wire;
  std::function<Bytes(std::span<const std::uint8_t>)> reencode;
};

template <typename T>
CodecCase structure_case(std::string name, const T& value) {
  UaWriter w;
  value.encode(w);
  return {std::move(name), w.take(), [](std::span<const std::uint8_t> bytes) {
            UaReader r(bytes);
            const T back = T::decode(r);
            UaWriter out;
            back.encode(out);
            return out.take();
          }};
}

template <typename T>
CodecCase service_case(std::string name, const T& msg) {
  return {std::move(name), pack_service(msg), [](std::span<const std::uint8_t> bytes) {
            return pack_service(unpack_service<T>(bytes));
          }};
}

template <typename T>
CodecCase transport_case(std::string name, const T& msg) {
  return {std::move(name), msg.encode(),
          [](std::span<const std::uint8_t> bytes) { return T::decode(bytes).encode(); }};
}

std::string wire_digest(std::span<const std::uint8_t> bytes) {
  return "len=" + std::to_string(bytes.size()) + " sha256=" +
         to_hex(hash(HashAlgorithm::sha256, bytes)).substr(0, 16);
}

/// FNV-1a of a case name: seeds the case's flips (and its sealing Rng), so
/// adding a case moves nothing in another.
std::uint64_t name_seed(const std::string& name) {
  std::uint64_t state = 0xcbf29ce484222325ull;
  for (const char ch : name) state = (state ^ static_cast<std::uint8_t>(ch)) * 0x100000001b3ull;
  return state;
}

/// A decode under test: the bytes it re-renders from what it decoded.
using Decode = std::function<Bytes(std::span<const std::uint8_t>)>;

/// What `decode` makes of `bytes`: `verb` with the length and digest of its
/// result, or the DecodeError text, bytes outside printable ASCII escaped.
/// Any other exception fails the test.
std::string decode_outcome(const std::string& name, const char* verb, const Decode& decode,
                           std::span<const std::uint8_t> bytes) {
  try {
    return std::string(verb) + " " + wire_digest(decode(bytes));
  } catch (const DecodeError& e) {
    std::string text = "rejected: ";
    for (const char ch : std::string_view(e.what())) {
      const auto byte = static_cast<std::uint8_t>(ch);
      text += byte >= 0x20 && byte < 0x7f ? std::string(1, ch) : "\\x" + to_hex(Bytes{byte});
    }
    return text;
  } catch (const std::exception& e) {
    ADD_FAILURE() << name << ": exception other than DecodeError: " << e.what();
    return std::string("unexpected: ") + e.what();
  }
}

/// The sweep lines of one case: every truncation, `cut(n)` being the input
/// cut to n bytes (consecutive cuts with one outcome share a line), then 32
/// single-bit flips drawn by a splitmix64 seeded by the case name.
std::vector<std::string> sweep_lines(const std::string& name, const Bytes& wire,
                                     const std::function<std::string(const Bytes&)>& outcome,
                                     const std::function<Bytes(std::size_t)>& cut) {
  std::vector<std::string> lines;
  std::size_t first = 0;
  std::string run;
  for (std::size_t n = 0; n <= wire.size(); ++n) {
    const std::string result = n < wire.size() ? outcome(cut(n)) : std::string();
    if (n > 0 && result == run) continue;
    if (n > 0) {
      lines.push_back(name + " cut=" + std::to_string(first) +
                      (n - 1 > first ? ".." + std::to_string(n - 1) : "") + ": " + run);
    }
    first = n;
    run = result;
  }
  std::uint64_t state = name_seed(name);
  for (int flip = 0; flip < 32; ++flip) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::size_t byte = static_cast<std::size_t>(z % wire.size());
    const unsigned bit = static_cast<unsigned>((z >> 32) % 8);
    Bytes mutated = wire;
    mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
    lines.push_back(name + " flip=" + std::to_string(flip) + " byte=" + std::to_string(byte) +
                    " bit=" + std::to_string(bit) + ": " + outcome(mutated));
  }
  return lines;
}

/// Compares `actual` with tests/data/`golden` line by line, showing the
/// first 20 differing lines with both texts.
void expect_golden(const std::string& golden, const std::vector<std::string>& actual) {
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" / golden);
  ASSERT_TRUE(in) << "missing golden tests/data/" << golden;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  EXPECT_EQ(actual.size(), expected.size()) << "line count differs from tests/data/" << golden;
  int shown = 0;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()) && shown < 20; ++i) {
    if (actual[i] == expected[i]) continue;
    ++shown;
    ADD_FAILURE() << "tests/data/" << golden << " line " << i + 1 << "\n  golden: " << expected[i]
                  << "\n  actual: " << actual[i];
  }
}

const Bytes kCertA = {0x30, 0x82, 0x00, 0x04, 0xca, 0xfe, 0xba, 0xbe};
const Bytes kCertB = {0x30, 0x03, 0x02, 0x01, 0x07};

RequestHeader golden_request_header() {
  RequestHeader h;
  h.authentication_token = NodeId(1, "session-token");
  h.timestamp = 132223104000000000;
  h.request_handle = 7;
  h.timeout_hint = 5000;
  return h;
}

ResponseHeader golden_response_header() {
  ResponseHeader h;
  h.timestamp = 132223104000000001;
  h.request_handle = 7;
  h.service_result = StatusCode::BadNotReadable;
  return h;
}

ApplicationDescription golden_application() {
  ApplicationDescription a;
  a.application_uri = "urn:vendor:plc";
  a.product_uri = "urn:vendor:product";
  a.application_name = {"en", "PLC"};
  a.application_type = ApplicationType::ClientAndServer;
  a.discovery_urls = {"opc.tcp://192.0.2.1:4840/", "opc.tcp://192.0.2.1:4841/"};
  return a;
}

UserTokenPolicy golden_token_policy(UserTokenType type) {
  UserTokenPolicy p;
  p.policy_id = "policy-" + user_token_type_name(type);
  p.token_type = type;
  p.security_policy_uri = std::string(policy_info(SecurityPolicy::Basic256).uri);
  return p;
}

EndpointDescription golden_endpoint(MessageSecurityMode mode, const Bytes& cert) {
  EndpointDescription e;
  e.endpoint_url = "opc.tcp://192.0.2.1:4840/";
  e.server = golden_application();
  e.server_certificate = cert;
  e.security_mode = mode;
  e.security_policy_uri = std::string(policy_info(SecurityPolicy::Basic256Sha256).uri);
  e.user_identity_tokens = {golden_token_policy(UserTokenType::Anonymous),
                            golden_token_policy(UserTokenType::Certificate)};
  e.security_level = 3;
  return e;
}

SignatureData golden_signature() {
  return {"http://www.w3.org/2000/09/xmldsig#rsa-sha1", {9, 8, 7}};
}

UserIdentityToken golden_identity(UserTokenType kind) {
  UserIdentityToken t;
  t.kind = kind;
  t.policy_id = "policy-" + user_token_type_name(kind);
  t.user_name = "operator";
  t.password = to_bytes("hunter2");
  t.certificate_data = kCertB;
  t.token_data = {0xaa, 0xbb};
  return t;
}

ReferenceDescription golden_reference(NodeClass node_class, std::uint32_t id) {
  ReferenceDescription d;
  d.reference_type_id = node_ids::kHasComponent;
  d.is_forward = id % 2 == 0;
  d.node_id = NodeId(2, id);
  d.browse_name = {2, "node" + std::to_string(id)};
  d.display_name = {"", "Node " + std::to_string(id)};
  d.node_class = node_class;
  d.type_definition = NodeId(0, 63);
  return d;
}

BrowseResult golden_browse_result(Bytes continuation_point) {
  BrowseResult b;
  b.status = StatusCode::Good;
  b.continuation_point = std::move(continuation_point);
  b.references = {golden_reference(NodeClass::Object, 10),
                  golden_reference(NodeClass::Variable, 11),
                  golden_reference(NodeClass::Method, 300000)};
  return b;
}

BrowseDescription golden_browse_description() {
  BrowseDescription b;
  b.node_id = node_ids::kObjectsFolder;
  b.direction = BrowseDirection::Both;
  b.node_class_mask = 0x07;
  return b;
}

ReadValueId golden_read_value_id() { return {NodeId(2, 101), AttributeId::UserAccessLevel}; }

DataValue golden_data_value() {
  DataValue v;
  v.value = Variant{std::vector<std::string>{"http://opcfoundation.org/UA/", "urn:vendor"}};
  v.status = StatusCode::BadNotReadable;
  v.source_timestamp = 132223104000000002;
  return v;
}

WriteValue golden_write_value() {
  return {NodeId(2, 102), AttributeId::Value, golden_data_value()};
}

CallMethodRequest golden_call_method() {
  return {NodeId(2, 100), NodeId(2, 104),
          {Variant{std::int32_t{-5}}, Variant{"arg"}, Variant{Bytes{1, 2}}, Variant{2.5}}};
}

CallMethodResult golden_call_result() {
  return {StatusCode::BadNotExecutable, {Variant{true}, Variant{std::uint32_t{17}}}};
}

CreateSessionRequest golden_create_session_request(Bytes client_certificate) {
  CreateSessionRequest m;
  m.header = golden_request_header();
  m.client_description = golden_application();
  m.endpoint_url = "opc.tcp://192.0.2.1:4840/";
  m.session_name = "scan-session";
  m.client_nonce = {1, 2, 3, 4};
  m.client_certificate = std::move(client_certificate);
  m.requested_session_timeout_ms = 120000;
  return m;
}

CreateSessionResponse golden_create_session_response(Bytes server_certificate,
                                                     SignatureData signature) {
  CreateSessionResponse m;
  m.header = golden_response_header();
  m.session_id = NodeId(1, 4242);
  m.authentication_token = NodeId(1, "auth");
  m.revised_session_timeout_ms = 60000;
  m.server_nonce = {5, 6, 7};
  m.server_certificate = std::move(server_certificate);
  m.server_endpoints = {golden_endpoint(MessageSecurityMode::Sign, kCertA)};
  m.server_signature = std::move(signature);
  return m;
}

/// One populated instance of each structure of messages.hpp and of the
/// HEL/ACK/ERR bodies, with a non-empty array at every level, plus the
/// empty variant of every field that encodes null when empty.
std::vector<CodecCase> codec_cases() {
  std::vector<CodecCase> cases;
  cases.push_back(structure_case("RequestHeader", golden_request_header()));
  cases.push_back(structure_case("ResponseHeader", golden_response_header()));
  cases.push_back(structure_case("ApplicationDescription", golden_application()));
  cases.push_back(
      structure_case("UserTokenPolicy", golden_token_policy(UserTokenType::UserName)));
  cases.push_back(structure_case("EndpointDescription",
                                 golden_endpoint(MessageSecurityMode::SignAndEncrypt, kCertA)));
  cases.push_back(structure_case("SignatureData", golden_signature()));
  cases.push_back(structure_case("SignatureData/empty", SignatureData{}));
  for (const UserTokenType kind : {UserTokenType::Anonymous, UserTokenType::UserName,
                                   UserTokenType::Certificate, UserTokenType::IssuedToken}) {
    cases.push_back(structure_case("UserIdentityToken/" + user_token_type_name(kind),
                                   golden_identity(kind)));
  }
  cases.push_back(structure_case("BrowseDescription", golden_browse_description()));
  cases.push_back(
      structure_case("ReferenceDescription", golden_reference(NodeClass::Variable, 11)));
  cases.push_back(structure_case("BrowseResult", golden_browse_result({0xc0, 0x01})));
  cases.push_back(structure_case("BrowseResult/empty", golden_browse_result({})));
  cases.push_back(structure_case("ReadValueId", golden_read_value_id()));
  cases.push_back(structure_case("WriteValue", golden_write_value()));
  cases.push_back(structure_case("CallMethodRequest", golden_call_method()));
  cases.push_back(structure_case("CallMethodResult", golden_call_result()));

  OpenSecureChannelRequest opn_req;
  opn_req.header = golden_request_header();
  opn_req.request_type = 1;
  opn_req.security_mode = MessageSecurityMode::SignAndEncrypt;
  opn_req.client_nonce = {1, 1, 2, 3, 5, 8};
  opn_req.requested_lifetime_ms = 600000;
  cases.push_back(service_case("OpenSecureChannelRequest", opn_req));
  OpenSecureChannelResponse opn_resp;
  opn_resp.header = golden_response_header();
  opn_resp.channel_id = 17;
  opn_resp.token_id = 23;
  opn_resp.created_at = 132223104000000003;
  opn_resp.server_nonce = {13, 21, 34};
  cases.push_back(service_case("OpenSecureChannelResponse", opn_resp));
  cases.push_back(
      service_case("CloseSecureChannelRequest", CloseSecureChannelRequest{golden_request_header()}));
  cases.push_back(service_case(
      "GetEndpointsRequest", GetEndpointsRequest{golden_request_header(), "opc.tcp://h:4840/"}));
  cases.push_back(service_case(
      "GetEndpointsResponse",
      GetEndpointsResponse{golden_response_header(),
                           {golden_endpoint(MessageSecurityMode::None, {}),
                            golden_endpoint(MessageSecurityMode::SignAndEncrypt, kCertB)}}));
  cases.push_back(service_case(
      "FindServersRequest", FindServersRequest{golden_request_header(), "opc.tcp://h:4840/"}));
  cases.push_back(service_case(
      "FindServersResponse",
      FindServersResponse{golden_response_header(), {golden_application(), golden_application()}}));
  cases.push_back(
      service_case("CreateSessionRequest", golden_create_session_request(kCertB)));
  cases.push_back(service_case("CreateSessionRequest/empty", golden_create_session_request({})));
  cases.push_back(service_case("CreateSessionResponse",
                               golden_create_session_response(kCertA, golden_signature())));
  cases.push_back(service_case("CreateSessionResponse/empty",
                               golden_create_session_response({}, SignatureData{})));
  cases.push_back(service_case(
      "ActivateSessionRequest",
      ActivateSessionRequest{golden_request_header(), golden_signature(),
                             golden_identity(UserTokenType::UserName)}));
  cases.push_back(service_case("ActivateSessionResponse",
                               ActivateSessionResponse{golden_response_header(), {4, 4, 4}}));
  cases.push_back(service_case("CloseSessionRequest",
                               CloseSessionRequest{golden_request_header(), false}));
  cases.push_back(
      service_case("CloseSessionResponse", CloseSessionResponse{golden_response_header()}));
  cases.push_back(service_case(
      "BrowseRequest",
      BrowseRequest{golden_request_header(), 10,
                    {golden_browse_description(), golden_browse_description()}}));
  cases.push_back(service_case(
      "BrowseResponse",
      BrowseResponse{golden_response_header(),
                     {golden_browse_result({0xc0, 0x02}), golden_browse_result({})}}));
  cases.push_back(service_case(
      "BrowseNextRequest",
      BrowseNextRequest{golden_request_header(), true, {{0xc0, 0x01}, {0xc0, 0x02}}}));
  cases.push_back(service_case(
      "BrowseNextResponse",
      BrowseNextResponse{golden_response_header(), {golden_browse_result({0xc0, 0x03})}}));
  cases.push_back(service_case(
      "ReadRequest", ReadRequest{golden_request_header(), 500.0, 2,
                                 {golden_read_value_id(), golden_read_value_id()}}));
  cases.push_back(service_case(
      "ReadResponse",
      ReadResponse{golden_response_header(), {golden_data_value(), DataValue{Variant{12.5}}}}));
  cases.push_back(service_case(
      "WriteRequest", WriteRequest{golden_request_header(), {golden_write_value()}}));
  cases.push_back(service_case(
      "WriteResponse", WriteResponse{golden_response_header(),
                                     {StatusCode::Good, StatusCode::BadNotWritable}}));
  cases.push_back(service_case(
      "CallRequest",
      CallRequest{golden_request_header(), {golden_call_method(), golden_call_method()}}));
  cases.push_back(service_case(
      "CallResponse", CallResponse{golden_response_header(), {golden_call_result()}}));
  cases.push_back(service_case("ServiceFault", ServiceFault{golden_response_header()}));

  HelloMessage hello;
  hello.receive_buffer_size = 8192;
  hello.endpoint_url = "opc.tcp://192.0.2.1:4840/";
  cases.push_back(transport_case("HEL", hello));
  AcknowledgeMessage ack;
  ack.max_chunk_count = 4;
  cases.push_back(transport_case("ACK", ack));
  cases.push_back(
      transport_case("ERR", ErrorMessage{StatusCode::BadTcpEndpointUrlInvalid, "unknown url"}));
  return cases;
}

/// The codec golden's lines for one case: its encoding, then its sweep.
std::vector<std::string> codec_case_lines(const CodecCase& c) {
  std::vector<std::string> lines{c.name + " " + wire_digest(c.wire)};
  EXPECT_EQ(c.reencode(c.wire), c.wire) << c.name << ": decode then encode changed the bytes";
  for (std::string& line : sweep_lines(
           c.name, c.wire,
           [&c](const Bytes& bytes) { return decode_outcome(c.name, "decoded", c.reencode, bytes); },
           [&c](std::size_t n) { return Bytes(c.wire.begin(), c.wire.begin() + n); })) {
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(UaEncoding, CodecOutcomesMatchGolden) {
  std::vector<std::string> actual;
  for (const CodecCase& c : codec_cases()) {
    for (std::string& line : codec_case_lines(c)) actual.push_back(std::move(line));
  }
  // tests/data/opcua.codec_outcomes.txt was recorded with the hand-written
  // encoder/decoder pairs that preceded the per-structure field lists; the
  // field lists reproduce it. Two decode fixes changed flip lines only:
  // flips that decode an undefined application type, user token type or
  // node class are rejected, naming the field and the value; and flips
  // that turn a carried DiagnosticInfo mask or StatusCode/DiagnosticInfo
  // array length into a non-null one are read as such, and fail where
  // the fields they announce are missing.
  expect_golden("opcua.codec_outcomes.txt", actual);
}

TEST(UaEncoding, OutOfRangeEnumFieldsRejected) {
  // The four enum fields a grab copies into its record: a value the enum
  // does not define fails the whole reply, naming the field and the value.
  const auto outcome = [](const auto& msg) -> std::string {
    try {
      unpack_service<std::decay_t<decltype(msg)>>(pack_service(msg));
    } catch (const DecodeError& e) {
      return e.what();
    }
    return "decoded";
  };
  GetEndpointsResponse endpoints{golden_response_header(),
                                 {golden_endpoint(MessageSecurityMode::Sign, kCertA)}};
  EndpointDescription& ep = endpoints.endpoints[0];
  ep.server.application_type = static_cast<ApplicationType>(7);
  EXPECT_EQ(outcome(endpoints), "invalid application type value 7");
  ep.server.application_type = ApplicationType::DiscoveryServer;
  ep.security_mode = static_cast<MessageSecurityMode>(40);
  EXPECT_EQ(outcome(endpoints), "invalid security mode value 40");
  ep.security_mode = MessageSecurityMode::Invalid;
  ep.user_identity_tokens[1].token_type = static_cast<UserTokenType>(40);
  EXPECT_EQ(outcome(endpoints), "invalid user token type value 40");
  ep.user_identity_tokens[1].token_type = UserTokenType::IssuedToken;
  EXPECT_EQ(outcome(endpoints), "decoded");

  BrowseResponse browse{golden_response_header(), {golden_browse_result({})}};
  browse.results[0].references[1].node_class = static_cast<NodeClass>(8);  // ObjectType
  EXPECT_EQ(outcome(browse), "invalid node class value 8");
  browse.results[0].references[1].node_class = NodeClass::Unspecified;
  EXPECT_EQ(outcome(browse), "decoded");
}

TEST(UaEncoding, CarriedArraysDecodeTheirElements) {
  // A spec-conforming server may fill the arrays and diagnostics the stack
  // only carries; decode reads their elements so what follows stays aligned.
  UaWriter call;
  call.status(StatusCode::Good);
  call.i32(2);  // inputArgumentResults
  call.status(StatusCode::Good);
  call.status(StatusCode::BadNotWritable);
  call.i32(-1);  // inputArgumentDiagnosticInfos
  call.i32(1);   // outputArguments
  call.variant(Variant{std::int32_t{42}});
  UaReader call_reader(call.bytes());
  const CallMethodResult result = CallMethodResult::decode(call_reader);
  ASSERT_EQ(result.output_arguments.size(), 1u);
  EXPECT_EQ(result.output_arguments[0], Variant{std::int32_t{42}});
  EXPECT_TRUE(call_reader.done());

  // A DiagnosticInfo with every field, nesting one that nests a bare one.
  const auto diagnostic = [](UaWriter& w) {
    w.byte(0x7f);
    for (std::int32_t v : {1, 2, 3, 4}) w.i32(v);
    w.string("additional info");
    w.status(StatusCode::BadNotReadable);
    w.byte(0x41);  // symbolicId, then an inner DiagnosticInfo
    w.i32(5);
    w.byte(0x00);
  };
  UaWriter header;
  header.datetime(132223104000000001);
  header.u32(7);
  header.status(StatusCode::Good);
  diagnostic(header);  // serviceDiagnostics
  header.i32(-1);      // stringTable
  header.node_id(NodeId(0, 0));
  header.byte(0x00);  // additionalHeader
  UaReader header_reader(header.bytes());
  EXPECT_EQ(ResponseHeader::decode(header_reader).request_handle, 7u);
  EXPECT_TRUE(header_reader.done());

  UaWriter read;
  read.base().raw(header.bytes());
  read.i32(1);  // results
  read.data_value(golden_data_value());
  read.i32(2);  // diagnosticInfos
  diagnostic(read);
  diagnostic(read);
  UaReader read_reader(read.bytes());
  const ReadResponse response = ReadResponse::decode(read_reader);
  ASSERT_EQ(response.results.size(), 1u);
  EXPECT_EQ(response.results[0].status, StatusCode::BadNotReadable);
  EXPECT_TRUE(read_reader.done());
}

// ------------------------------------------------------------ transport ----

TEST(Transport, FrameRoundTrip) {
  const Bytes body = to_bytes("payload");
  const Bytes wire = frame_message("HEL", body);
  const Frame frame = parse_frame(wire);
  EXPECT_EQ(frame.type, "HEL");
  EXPECT_EQ(frame.body, body);
  Bytes bad = wire;
  bad.pop_back();
  EXPECT_THROW(parse_frame(bad), DecodeError);
}

TEST(Transport, HelloAckErrRoundTrip) {
  HelloMessage hello;
  hello.endpoint_url = "opc.tcp://10.0.0.1:4840/";
  EXPECT_EQ(HelloMessage::decode(hello.encode()).endpoint_url, hello.endpoint_url);
  ErrorMessage err;
  err.error = StatusCode::BadSecurityChecksFailed;
  err.reason = "nope";
  const ErrorMessage back = ErrorMessage::decode(err.encode());
  EXPECT_EQ(back.error, StatusCode::BadSecurityChecksFailed);
  EXPECT_EQ(back.reason, "nope");
}

// ------------------------------------------------- secure conversation ----

class SecureConversation : public ::testing::TestWithParam<SecurityPolicy> {};

TEST_P(SecureConversation, OpnRoundTripAllPolicies) {
  const SecurityPolicy policy = GetParam();
  Rng rng(5);
  const Bytes body = to_bytes("open secure channel request body");
  OpnSecurity sec;
  sec.policy = policy;
  if (policy != SecurityPolicy::None) {
    sec.local_private = &client_identity().keys.priv;
    sec.local_cert_der = client_identity().cert_der;
    sec.remote_public = &server_identity().keys.pub;
    sec.remote_cert_thumbprint = x509_thumbprint(server_identity().cert_der);
  }
  const Bytes wire = build_opn(42, sec, SequenceHeader{7, 9}, body, rng);
  if (policy != SecurityPolicy::None) {
    // Body must not appear in the clear.
    const std::string wire_str(wire.begin(), wire.end());
    EXPECT_EQ(wire_str.find("open secure channel"), std::string::npos);
  }
  const OpnParsed parsed = parse_opn(
      wire, policy == SecurityPolicy::None ? nullptr : &server_identity().keys.priv);
  EXPECT_EQ(parsed.channel_id, 42u);
  EXPECT_EQ(parsed.policy, policy);
  EXPECT_EQ(parsed.seq.sequence_number, 7u);
  EXPECT_EQ(parsed.seq.request_id, 9u);
  EXPECT_EQ(parsed.body, body);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SecureConversation, ::testing::ValuesIn(kAllPolicies));

TEST(SecureConversationNegative, WrongKeyFailsToParse) {
  Rng rng(6);
  OpnSecurity sec;
  sec.policy = SecurityPolicy::Basic256Sha256;
  sec.local_private = &client_identity().keys.priv;
  sec.local_cert_der = client_identity().cert_der;
  sec.remote_public = &server_identity().keys.pub;
  sec.remote_cert_thumbprint = x509_thumbprint(server_identity().cert_der);
  const Bytes wire = build_opn(1, sec, SequenceHeader{1, 1}, to_bytes("x"), rng);
  EXPECT_THROW(parse_opn(wire, &client_identity().keys.priv), DecodeError);
}

/// A reply a hostile server seals by hand: its signature is valid, and 11
/// bytes (sequence header and a 3-byte body) stand in front of a
/// padding-size byte `padding`.
Bytes hostile_reply(std::string_view type, std::span<const std::uint8_t> prefix,
                    std::uint8_t padding, const std::function<Bytes(const Bytes&)>& sign,
                    const std::function<Bytes(const Bytes&)>& encrypt,
                    std::size_t encrypted_size) {
  const Bytes plain = {1, 0, 0, 0, 1, 0, 0, 0, 0xaa, 0xbb, 0xcc, padding};
  ByteWriter w;
  w.raw(type);
  w.u8('F');
  w.u32(static_cast<std::uint32_t>(8 + prefix.size() + encrypted_size));
  w.raw(prefix);
  Bytes signed_part = w.bytes();
  signed_part.insert(signed_part.end(), plain.begin(), plain.end());
  Bytes secured = plain;
  const Bytes signature = sign(signed_part);
  secured.insert(secured.end(), signature.begin(), signature.end());
  w.raw(encrypt(secured));
  return w.take();
}

TEST(SecureConversationNegative, OversizedPaddingRejected) {
  // OPN under Basic256Sha256 from the server fixture to the scanner's:
  // 12 plaintext bytes and a 96-byte signature fill two 54-byte OAEP blocks.
  const SecurityPolicy opn_policy = SecurityPolicy::Basic256Sha256;
  UaWriter opn_prefix;
  opn_prefix.u32(1);
  opn_prefix.string(std::string(policy_info(opn_policy).uri));
  opn_prefix.byte_string(server_identity().cert_der);
  opn_prefix.byte_string(x509_thumbprint(client_identity().cert_der));
  const RsaPublicKey& client_public = client_identity().keys.pub;
  const std::size_t opn_block = rsa_oaep_max_plaintext(client_public, HashAlgorithm::sha1);
  ASSERT_EQ(54u, opn_block);
  Rng rng(10);
  const auto hostile_opn = [&](std::uint8_t padding) {
    return hostile_reply(
        "OPN", opn_prefix.bytes(), padding,
        [](const Bytes& data) {
          return rsa_pkcs1v15_sign(server_identity().keys.priv, HashAlgorithm::sha256, data);
        },
        [&](const Bytes& plain) {
          Bytes out;
          for (std::size_t off = 0; off < plain.size(); off += opn_block) {
            const Bytes block =
                rsa_oaep_encrypt(client_public, HashAlgorithm::sha1,
                                 std::span(plain).subspan(off, opn_block), rng);
            out.insert(out.end(), block.begin(), block.end());
          }
          return out;
        },
        2 * client_public.modulus_bytes());
  };
  EXPECT_EQ(parse_opn(hostile_opn(0), &client_identity().keys.priv).body,
            (Bytes{0xaa, 0xbb, 0xcc}));
  EXPECT_THROW(parse_opn(hostile_opn(200), &client_identity().keys.priv), DecodeError);

  // MSG under Basic256 in SignAndEncrypt: 12 bytes and a 20-byte HMAC-SHA1
  // fill two AES blocks.
  const SecurityPolicy msg_policy = SecurityPolicy::Basic256;
  const DerivedKeys keys = derive_keys(msg_policy, Bytes(32, 0x5e), Bytes(32, 0xc1));
  const Bytes msg_prefix = {3, 0, 0, 0, 1, 0, 0, 0};
  const auto hostile_msg = [&](std::uint8_t padding) {
    return hostile_reply(
        "MSG", msg_prefix, padding,
        [&](const Bytes& data) { return hmac(HashAlgorithm::sha1, keys.sig_key, data); },
        [&](const Bytes& plain) { return aes_cbc_encrypt(keys.enc_key, keys.iv, plain); }, 32);
  };
  const MessageSecurityMode mode = MessageSecurityMode::SignAndEncrypt;
  EXPECT_EQ(parse_msg(hostile_msg(0), msg_policy, mode, keys).body, (Bytes{0xaa, 0xbb, 0xcc}));
  EXPECT_THROW(parse_msg(hostile_msg(200), msg_policy, mode, keys), DecodeError);
}

// Under an encrypting key wider than 2048 bits the padding size takes two
// bytes, PaddingSize and then ExtraPaddingSize, its high byte (OPC 10000-6
// §6.7.2). A 181-byte OPN body from the 768-bit scanner key to a 2560-bit
// receiver under Basic256Sha256 pads 269 bytes into two 278-byte OAEP
// blocks; sent as one byte, the size would lose its high bit and the open
// would leave 256 padding bytes on the body.
TEST(SecureConversation, ExtraPaddingAboveTwoKilobitKeys) {
  const TestIdentity receiver =
      make_identity("wide-receiver", 9003, HashAlgorithm::sha256, 2560);
  const RsaPublicKey& receiver_public = receiver.keys.pub;
  ASSERT_EQ(rsa_oaep_max_plaintext(receiver_public, HashAlgorithm::sha1), 278u);
  OpnSecurity sec;
  sec.policy = SecurityPolicy::Basic256Sha256;
  sec.local_private = &client_identity().keys.priv;
  sec.local_cert_der = client_identity().cert_der;
  sec.remote_public = &receiver_public;
  sec.remote_cert_thumbprint = x509_thumbprint(receiver.cert_der);
  const Bytes body(181, 0x5a);
  Rng rng(12);
  const Bytes wire = build_opn(5, sec, SequenceHeader{1, 2}, body, rng);

  // The plaintext: sequence header, body, 269 padding bytes and
  // PaddingSize (each 0x0d), ExtraPaddingSize 0x01, a 96-byte signature.
  const std::size_t cipher_block = receiver_public.modulus_bytes();
  ASSERT_GT(wire.size(), 2 * cipher_block);
  Bytes plain;
  for (std::size_t off = wire.size() - 2 * cipher_block; off < wire.size(); off += cipher_block) {
    const auto block = rsa_oaep_decrypt(receiver.keys.priv, HashAlgorithm::sha1,
                                        std::span(wire).subspan(off, cipher_block));
    ASSERT_TRUE(block.has_value());
    plain.insert(plain.end(), block->begin(), block->end());
  }
  ASSERT_EQ(plain.size(), 2 * 278u);
  const std::size_t extra_at = plain.size() - 96 - 1;
  EXPECT_EQ(plain[extra_at], 0x01);
  const auto padding_begin = plain.begin() + static_cast<std::ptrdiff_t>(8 + body.size());
  EXPECT_EQ(Bytes(padding_begin, plain.begin() + static_cast<std::ptrdiff_t>(extra_at)),
            Bytes(270, 0x0d));

  const OpnParsed parsed = parse_opn(wire, &receiver.keys.priv);
  EXPECT_EQ(parsed.body, body);
  EXPECT_EQ(parsed.sender_public, client_identity().keys.pub);
}

class SymmetricSecurity
    : public ::testing::TestWithParam<std::tuple<SecurityPolicy, MessageSecurityMode>> {};

TEST_P(SymmetricSecurity, MsgRoundTrip) {
  const auto [policy, mode] = GetParam();
  Rng rng(7);
  const Bytes client_nonce = rng.bytes(32);
  const Bytes server_nonce = rng.bytes(32);
  const DerivedKeys sender = derive_keys(policy, server_nonce, client_nonce);
  const Bytes body = to_bytes("browse request payload: rSetFillLevel");
  const Bytes wire = build_msg("MSG", 3, 4, SequenceHeader{10, 11}, body, policy, mode, sender);
  if (mode == MessageSecurityMode::SignAndEncrypt) {
    const std::string wire_str(wire.begin(), wire.end());
    EXPECT_EQ(wire_str.find("rSetFillLevel"), std::string::npos);
  }
  const MsgParsed parsed = parse_msg(wire, policy, mode, sender);
  EXPECT_EQ(parsed.channel_id, 3u);
  EXPECT_EQ(parsed.token_id, 4u);
  EXPECT_EQ(parsed.body, body);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndModes, SymmetricSecurity,
    ::testing::Combine(::testing::Values(SecurityPolicy::Basic128Rsa15, SecurityPolicy::Basic256,
                                         SecurityPolicy::Aes128Sha256RsaOaep,
                                         SecurityPolicy::Basic256Sha256,
                                         SecurityPolicy::Aes256Sha256RsaPss),
                       ::testing::Values(MessageSecurityMode::Sign,
                                         MessageSecurityMode::SignAndEncrypt)));

TEST(SymmetricSecurityNegative, TamperedMessageRejected) {
  Rng rng(8);
  const DerivedKeys keys = derive_keys(SecurityPolicy::Basic256Sha256, rng.bytes(32), rng.bytes(32));
  Bytes wire = build_msg("MSG", 1, 1, SequenceHeader{1, 1}, to_bytes("data"),
                         SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign, keys);
  wire[wire.size() - 5] ^= 1;
  EXPECT_THROW(
      parse_msg(wire, SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign, keys),
      DecodeError);
}

TEST(KeyDerivation, DirectionsDiffer) {
  Rng rng(9);
  const Bytes a = rng.bytes(32), b = rng.bytes(32);
  const DerivedKeys ab = derive_keys(SecurityPolicy::Basic256Sha256, a, b);
  const DerivedKeys ba = derive_keys(SecurityPolicy::Basic256Sha256, b, a);
  EXPECT_NE(ab.sig_key, ba.sig_key);
  EXPECT_NE(ab.enc_key, ba.enc_key);
  EXPECT_EQ(ab.sig_key.size(), 32u);
  EXPECT_EQ(ab.enc_key.size(), 32u);
  EXPECT_EQ(ab.iv.size(), 16u);
}

// ------------------------------------------ secure conversation golden ----

/// One sealed chunk: its wire bytes, the fields it was sealed from and an
/// open that returns the fields it recovers, both rendered alike.
struct ChunkCase {
  std::string name;
  Bytes wire;
  Bytes sent;
  Decode open;
};

Bytes render_opn(const OpnParsed& p) {
  UaWriter w;
  w.u32(p.channel_id);
  w.string(p.policy_uri);
  w.u32(static_cast<std::uint32_t>(p.policy));
  w.byte_string(p.sender_cert_der);
  w.byte_string(p.receiver_cert_thumbprint);
  w.u32(p.seq.sequence_number);
  w.u32(p.seq.request_id);
  w.byte_string(p.body);
  return w.take();
}

Bytes render_msg(const MsgParsed& p) {
  UaWriter w;
  w.u32(p.channel_id);
  w.u32(p.token_id);
  w.u32(p.seq.sequence_number);
  w.u32(p.seq.request_id);
  w.byte_string(p.body);
  return w.take();
}

/// OPN from the scanner fixture to the server fixture under each policy,
/// then MSG and CLO under (None, None) and under every secure policy in
/// Sign and SignAndEncrypt, with keys derived from fixed nonces. OPN seals
/// under an Rng seeded by the case name; MSG and CLO draw nothing.
std::vector<ChunkCase> chunk_cases() {
  std::vector<ChunkCase> cases;
  for (const SecurityPolicy policy : kAllPolicies) {
    const SecurityPolicyInfo& info = policy_info(policy);
    const std::string name = "OPN/" + std::string(info.name);
    OpenSecureChannelRequest req;
    req.header = golden_request_header();
    req.security_mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                                       : MessageSecurityMode::SignAndEncrypt;
    req.client_nonce = Bytes(info.nonce_bytes, 0xc1);
    OpnSecurity sec;
    sec.policy = policy;
    OpnParsed sent{42, std::string(info.uri), policy, {}, {}, {}, {7, 9}, pack_service(req)};
    if (policy != SecurityPolicy::None) {
      sec.local_private = &client_identity().keys.priv;
      sec.local_cert_der = sent.sender_cert_der = client_identity().cert_der;
      sec.remote_public = &server_identity().keys.pub;
      sec.remote_cert_thumbprint = sent.receiver_cert_thumbprint =
          x509_thumbprint(server_identity().cert_der);
    }
    Rng rng(name_seed(name));
    cases.push_back({name, build_opn(sent.channel_id, sec, sent.seq, sent.body, rng),
                     render_opn(sent), [](std::span<const std::uint8_t> bytes) {
                       return render_opn(parse_opn(bytes, &server_identity().keys.priv));
                     }});
  }
  const auto add_msg = [&cases](const char* type, SecurityPolicy policy, MessageSecurityMode mode) {
    const SecurityPolicyInfo& info = policy_info(policy);
    const std::string name =
        std::string(type) + "/" + std::string(info.name) + "/" + security_mode_name(mode);
    const DerivedKeys keys =
        derive_keys(policy, Bytes(info.nonce_bytes, 0x5e), Bytes(info.nonce_bytes, 0xc1));
    const Bytes body = std::string_view(type) == "CLO"
                           ? pack_service(CloseSecureChannelRequest{golden_request_header()})
                           : pack_service(ReadRequest{golden_request_header(), 0.0, 2,
                                                      {golden_read_value_id()}});
    const MsgParsed sent{3, 3001, {12, 12}, body};
    cases.push_back({name,
                     build_msg(type, sent.channel_id, sent.token_id, sent.seq, body, policy, mode,
                               keys),
                     render_msg(sent), [policy, mode, keys](std::span<const std::uint8_t> bytes) {
                       return render_msg(parse_msg(bytes, policy, mode, keys));
                     }});
  };
  add_msg("MSG", SecurityPolicy::None, MessageSecurityMode::None);
  add_msg("CLO", SecurityPolicy::None, MessageSecurityMode::None);
  for (const SecurityPolicy policy : kAllPolicies) {
    if (policy == SecurityPolicy::None) continue;
    for (const MessageSecurityMode mode :
         {MessageSecurityMode::Sign, MessageSecurityMode::SignAndEncrypt}) {
      add_msg("MSG", policy, mode);
      add_msg("CLO", policy, mode);
    }
  }
  return cases;
}

/// `wire` cut to `n` bytes with its frame-size field rewritten to `n`, so
/// each cut past the frame header reaches the checks of the secured region.
Bytes cut_chunk(const Bytes& wire, std::size_t n) {
  Bytes out(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
  if (n >= 8) {
    for (int i = 0; i < 4; ++i) out[4 + i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  return out;
}

TEST(SecureConversation, OutcomesMatchGolden) {
  std::vector<std::string> actual;
  for (const ChunkCase& c : chunk_cases()) {
    const bool opened_sent = c.open(c.wire) == c.sent;
    EXPECT_TRUE(opened_sent) << c.name << ": the opened fields differ from the sealed ones";
    actual.push_back(c.name + " " + wire_digest(c.wire) +
                     (opened_sent ? " opens to its inputs" : " opens to other fields"));
    for (std::string& line : sweep_lines(
             c.name, c.wire,
             [&c](const Bytes& bytes) { return decode_outcome(c.name, "opened", c.open, bytes); },
             [&c](std::size_t n) { return cut_chunk(c.wire, n); })) {
      actual.push_back(std::move(line));
    }
  }
  // tests/data/opcua.secureconv_outcomes.txt was recorded with the separate
  // OPN and MSG codecs that preceded the one seal and the one open; every
  // sealed byte, Rng draw and error text is theirs.
  expect_golden("opcua.secureconv_outcomes.txt", actual);
}

// ----------------------------------------------------- client <-> server ----

TEST(ClientServer, DiscoveryOnNoneChannel) {
  Rig rig(make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt));
  EXPECT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  EXPECT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<EndpointDescription> endpoints;
  EXPECT_EQ(rig.client->get_endpoints("opc.tcp://10.0.0.1:4840/", endpoints), StatusCode::Good);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].security_mode, MessageSecurityMode::None);
  EXPECT_EQ(endpoints[1].security_mode, MessageSecurityMode::SignAndEncrypt);
  EXPECT_FALSE(endpoints[1].server_certificate.empty());
  // Certificate in the endpoint must parse as the server's cert.
  const Certificate cert = x509_parse(endpoints[1].server_certificate);
  EXPECT_EQ(cert.subject.common_name, "test-server");
}

class ClientServerSecure
    : public ::testing::TestWithParam<std::tuple<SecurityPolicy, MessageSecurityMode>> {};

TEST_P(ClientServerSecure, FullSessionOverSecureChannel) {
  const auto [policy, mode] = GetParam();
  Rig rig(make_server_config(policy, mode));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(policy, mode, server_identity().cert_der), StatusCode::Good);

  Client::SessionInfo info;
  ASSERT_EQ(rig.client->create_session(&info), StatusCode::Good);
  EXPECT_TRUE(info.server_signature_valid);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);

  // Browse to the vendor object and read values.
  std::vector<ReferenceDescription> refs;
  ASSERT_EQ(rig.client->browse(node_ids::kObjectsFolder, refs), StatusCode::Good);
  ASSERT_EQ(refs.size(), 2u);  // Server + Plant
  DataValue dv;
  ASSERT_EQ(rig.client->read(NodeId(1, 101), AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.value, Variant{12.5});
  // Unreadable node yields BadNotReadable, not data.
  ASSERT_EQ(rig.client->read(NodeId(1, 103), AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.status, StatusCode::BadNotReadable);
  EXPECT_EQ(rig.client->close_session(), StatusCode::Good);
}

INSTANTIATE_TEST_SUITE_P(
    SecureVariants, ClientServerSecure,
    ::testing::Values(
        std::make_tuple(SecurityPolicy::Basic128Rsa15, MessageSecurityMode::Sign),
        std::make_tuple(SecurityPolicy::Basic256, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Aes128Sha256RsaOaep, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign),
        std::make_tuple(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Aes256Sha256RsaPss, MessageSecurityMode::SignAndEncrypt)));

TEST(ClientServer, StrictServerRejectsSelfSignedCert) {
  ServerConfig config =
      make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt);
  config.trust_all_client_certs = false;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  const StatusCode status = rig.client->open_channel(
      SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt,
      server_identity().cert_der);
  EXPECT_EQ(status, StatusCode::BadSecurityChecksFailed);
  EXPECT_FALSE(rig.client->channel_open());
}

TEST(ClientServer, AnonymousRejectedWhenNotOffered) {
  ServerConfig config =
      make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt);
  for (auto& ep : config.endpoints) ep.token_types = {UserTokenType::UserName};
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_anonymous(), StatusCode::BadIdentityTokenRejected);
}

TEST(ClientServer, FaultyServerRejectsAnonymousDespiteOffering) {
  ServerConfig config =
      make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.reject_anonymous_sessions = true;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_anonymous(), StatusCode::BadIdentityTokenRejected);
}

TEST(ClientServer, UsernameAuthentication) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.users = {{"operator", "hunter2"}};
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_username("operator", "wrong"),
            StatusCode::BadUserAccessDenied);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_username("operator", "hunter2"), StatusCode::Good);
}

TEST(ClientServer, BrowseRequiresActivatedSession) {
  Rig rig(make_server_config(SecurityPolicy::None, MessageSecurityMode::None));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<ReferenceDescription> refs;
  EXPECT_EQ(rig.client->browse(node_ids::kRootFolder, refs), StatusCode::BadSessionNotActivated);
}

TEST(ClientServer, NamespaceArrayAndSoftwareVersion) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.identity.software_version = "3.1.4";
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);
  std::vector<std::string> namespaces;
  ASSERT_EQ(rig.client->read_string_array(node_ids::kNamespaceArray, namespaces),
            StatusCode::Good);
  ASSERT_EQ(namespaces.size(), 2u);
  EXPECT_EQ(namespaces[0], "http://opcfoundation.org/UA/");
  EXPECT_EQ(namespaces[1], "urn:test:vendor");
  DataValue dv;
  ASSERT_EQ(rig.client->read(node_ids::kSoftwareVersion, AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.value, Variant{"3.1.4"});
}

TEST(ClientServer, BrowseContinuationPoints) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  auto space = std::make_shared<AddressSpace>();
  const std::uint16_t ns = space->add_namespace("urn:many");
  space->add_object(NodeId(ns, 1), node_ids::kObjectsFolder, "Bucket");
  for (std::uint32_t i = 0; i < 25; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    space->add_variable(NodeId(ns, 100 + i), NodeId(ns, 1), name, Variant{1.0},
                        access_level::kCurrentRead);
  }
  config.address_space = space;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);
  std::vector<ReferenceDescription> refs;
  ASSERT_EQ(rig.client->browse(NodeId(ns, 1), refs, 10), StatusCode::Good);
  EXPECT_EQ(refs.size(), 25u);  // gathered through continuation points
}

TEST(ClientServer, DummyServiceIsNotOpcUa) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 9, 9, 9);
  net.listen(ip, kOpcUaDefaultPort, [] {
    return std::make_unique<DummyBannerService>("nginx");
  });
  auto conn = net.connect(ip, kOpcUaDefaultPort);
  ASSERT_NE(conn, nullptr);
  ClientConfig cc;
  Client client(cc, *conn, Rng(1));
  EXPECT_NE(client.hello("opc.tcp://10.9.9.9:4840/"), StatusCode::Good);
}

TEST(ClientServer, ConnectionToClosedPortFails) {
  Network net;
  EXPECT_EQ(net.connect(make_ipv4(10, 1, 1, 1), kOpcUaDefaultPort), nullptr);
  EXPECT_FALSE(net.syn_probe(make_ipv4(10, 1, 1, 1), kOpcUaDefaultPort));
}

TEST(ClientServer, TrafficIsAccounted) {
  Rig rig(make_server_config(SecurityPolicy::None, MessageSecurityMode::None));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  EXPECT_GT(rig.conn->bytes_sent(), 0u);
  EXPECT_GT(rig.conn->bytes_received(), 0u);
  EXPECT_GT(rig.conn->take_elapsed(), 0u);
}

TEST(ClientServer, DiscoveryServerAnnouncesForeignEndpoints) {
  ServerConfig config;
  config.identity.application_uri = "urn:discovery";
  config.identity.application_type = ApplicationType::DiscoveryServer;
  EndpointConfig ep;
  ep.url = "opc.tcp://10.0.0.1:4840/";
  ep.certificate_index = -1;
  config.endpoints.push_back(ep);
  EndpointDescription foreign;
  foreign.endpoint_url = "opc.tcp://10.0.0.2:4841/";
  foreign.server.application_uri = "urn:other-server";
  foreign.security_mode = MessageSecurityMode::None;
  foreign.security_policy_uri = std::string(policy_info(SecurityPolicy::None).uri);
  config.foreign_endpoints.push_back(foreign);
  ApplicationDescription known;
  known.application_uri = "urn:other-server";
  known.discovery_urls = {"opc.tcp://10.0.0.2:4841/"};
  config.known_servers.push_back(known);

  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<EndpointDescription> endpoints;
  ASSERT_EQ(rig.client->get_endpoints("opc.tcp://10.0.0.1:4840/", endpoints), StatusCode::Good);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[1].endpoint_url, "opc.tcp://10.0.0.2:4841/");
  std::vector<ApplicationDescription> servers;
  ASSERT_EQ(rig.client->find_servers("opc.tcp://10.0.0.1:4840/", servers), StatusCode::Good);
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[1].application_uri, "urn:other-server");
}

}  // namespace
}  // namespace opcua_study
