// OPC UA service messages (OPC 10000-4) with binary encode/decode.
//
// The subset implemented is exactly the paper's scan footprint:
// FindServers + GetEndpoints (discovery), OpenSecureChannel (channel
// assessment), CreateSession/ActivateSession (authorization assessment),
// Browse/BrowseNext/Read (address-space traversal of §5.4).
//
// Every structure here but UserIdentityToken has one field list in wire
// order (messages.cpp); its encode and decode walk that list through the
// visitors of opcua/wire.hpp. UserIdentityToken, whose body depends on its
// type id, keeps a hand-written pair, as Variant and DataValue do in
// opcua/encoding.cpp. Decoding checks the enum fields a grab records
// (application type, endpoint security mode, user token type, node
// class) against the values their enums define and throws DecodeError
// for any other value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opcua/encoding.hpp"
#include "opcua/secpolicy.hpp"
#include "opcua/types.hpp"

namespace opcua_study {

// Binary-encoding type ids (OPC 10000-6 Annex A).
namespace type_ids {
inline constexpr std::uint32_t kServiceFault = 397;
inline constexpr std::uint32_t kFindServersRequest = 422;
inline constexpr std::uint32_t kFindServersResponse = 425;
inline constexpr std::uint32_t kGetEndpointsRequest = 428;
inline constexpr std::uint32_t kGetEndpointsResponse = 431;
inline constexpr std::uint32_t kOpenSecureChannelRequest = 446;
inline constexpr std::uint32_t kOpenSecureChannelResponse = 449;
inline constexpr std::uint32_t kCloseSecureChannelRequest = 452;
inline constexpr std::uint32_t kCreateSessionRequest = 461;
inline constexpr std::uint32_t kCreateSessionResponse = 464;
inline constexpr std::uint32_t kActivateSessionRequest = 467;
inline constexpr std::uint32_t kActivateSessionResponse = 470;
inline constexpr std::uint32_t kCloseSessionRequest = 473;
inline constexpr std::uint32_t kCloseSessionResponse = 476;
inline constexpr std::uint32_t kBrowseRequest = 527;
inline constexpr std::uint32_t kBrowseResponse = 530;
inline constexpr std::uint32_t kBrowseNextRequest = 533;
inline constexpr std::uint32_t kBrowseNextResponse = 536;
inline constexpr std::uint32_t kReadRequest = 631;
inline constexpr std::uint32_t kReadResponse = 634;
inline constexpr std::uint32_t kWriteRequest = 673;
inline constexpr std::uint32_t kWriteResponse = 676;
inline constexpr std::uint32_t kCallRequest = 712;
inline constexpr std::uint32_t kCallResponse = 715;
inline constexpr std::uint32_t kAnonymousIdentityToken = 321;
inline constexpr std::uint32_t kUserNameIdentityToken = 324;
inline constexpr std::uint32_t kX509IdentityToken = 327;
inline constexpr std::uint32_t kIssuedIdentityToken = 940;
}  // namespace type_ids

struct RequestHeader {
  NodeId authentication_token;
  std::int64_t timestamp = 0;
  std::uint32_t request_handle = 0;
  std::uint32_t timeout_hint = 0;

  void encode(UaWriter& w) const;
  static RequestHeader decode(UaReader& r);
};

struct ResponseHeader {
  std::int64_t timestamp = 0;
  std::uint32_t request_handle = 0;
  StatusCode service_result = StatusCode::Good;

  void encode(UaWriter& w) const;
  static ResponseHeader decode(UaReader& r);
};

enum class ApplicationType : std::uint32_t {
  Server = 0,
  Client = 1,
  ClientAndServer = 2,
  DiscoveryServer = 3,
};

struct ApplicationDescription {
  std::string application_uri;
  std::string product_uri;
  LocalizedText application_name;
  ApplicationType application_type = ApplicationType::Server;
  std::vector<std::string> discovery_urls;

  void encode(UaWriter& w) const;
  static ApplicationDescription decode(UaReader& r);
};

enum class UserTokenType : std::uint32_t {
  Anonymous = 0,
  UserName = 1,
  Certificate = 2,
  IssuedToken = 3,
};

std::string user_token_type_name(UserTokenType t);

struct UserTokenPolicy {
  std::string policy_id;
  UserTokenType token_type = UserTokenType::Anonymous;
  std::string security_policy_uri;

  void encode(UaWriter& w) const;
  static UserTokenPolicy decode(UaReader& r);
};

struct EndpointDescription {
  std::string endpoint_url;
  ApplicationDescription server;
  Bytes server_certificate;
  MessageSecurityMode security_mode = MessageSecurityMode::None;
  std::string security_policy_uri;
  std::vector<UserTokenPolicy> user_identity_tokens;
  std::string transport_profile_uri =
      "http://opcfoundation.org/UA-Profile/Transport/uatcp-uasc-uabinary";
  std::uint8_t security_level = 0;

  void encode(UaWriter& w) const;
  static EndpointDescription decode(UaReader& r);
};

struct SignatureData {
  std::string algorithm;
  Bytes signature;

  void encode(UaWriter& w) const;
  static SignatureData decode(UaReader& r);
};

/// UserIdentityToken extension object (anonymous / username / certificate /
/// issued — the four columns of the paper's Table 2).
struct UserIdentityToken {
  UserTokenType kind = UserTokenType::Anonymous;
  std::string policy_id;
  std::string user_name;      // UserName only
  Bytes password;             // UserName only
  Bytes certificate_data;     // Certificate only
  Bytes token_data;           // IssuedToken only

  void encode(UaWriter& w) const;
  static UserIdentityToken decode(UaReader& r);
};

// ------------------------------------------------------------- services ----

struct OpenSecureChannelRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kOpenSecureChannelRequest;
  RequestHeader header;
  std::uint32_t client_protocol_version = 0;
  std::uint32_t request_type = 0;  // 0 = issue, 1 = renew
  MessageSecurityMode security_mode = MessageSecurityMode::None;
  Bytes client_nonce;
  std::uint32_t requested_lifetime_ms = 3600000;

  void encode(UaWriter& w) const;
  static OpenSecureChannelRequest decode(UaReader& r);
};

struct OpenSecureChannelResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kOpenSecureChannelResponse;
  ResponseHeader header;
  std::uint32_t server_protocol_version = 0;
  std::uint32_t channel_id = 0;
  std::uint32_t token_id = 0;
  std::int64_t created_at = 0;
  std::uint32_t revised_lifetime_ms = 3600000;
  Bytes server_nonce;

  void encode(UaWriter& w) const;
  static OpenSecureChannelResponse decode(UaReader& r);
};

struct CloseSecureChannelRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kCloseSecureChannelRequest;
  RequestHeader header;

  void encode(UaWriter& w) const;
  static CloseSecureChannelRequest decode(UaReader& r);
};

struct GetEndpointsRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kGetEndpointsRequest;
  RequestHeader header;
  std::string endpoint_url;

  void encode(UaWriter& w) const;
  static GetEndpointsRequest decode(UaReader& r);
};

struct GetEndpointsResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kGetEndpointsResponse;
  ResponseHeader header;
  std::vector<EndpointDescription> endpoints;

  void encode(UaWriter& w) const;
  static GetEndpointsResponse decode(UaReader& r);
};

struct FindServersRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kFindServersRequest;
  RequestHeader header;
  std::string endpoint_url;

  void encode(UaWriter& w) const;
  static FindServersRequest decode(UaReader& r);
};

struct FindServersResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kFindServersResponse;
  ResponseHeader header;
  std::vector<ApplicationDescription> servers;

  void encode(UaWriter& w) const;
  static FindServersResponse decode(UaReader& r);
};

struct CreateSessionRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kCreateSessionRequest;
  RequestHeader header;
  ApplicationDescription client_description;
  std::string endpoint_url;
  std::string session_name;
  Bytes client_nonce;
  Bytes client_certificate;
  double requested_session_timeout_ms = 60000;

  void encode(UaWriter& w) const;
  static CreateSessionRequest decode(UaReader& r);
};

struct CreateSessionResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kCreateSessionResponse;
  ResponseHeader header;
  NodeId session_id;
  NodeId authentication_token;
  double revised_session_timeout_ms = 60000;
  Bytes server_nonce;
  Bytes server_certificate;
  std::vector<EndpointDescription> server_endpoints;
  SignatureData server_signature;

  void encode(UaWriter& w) const;
  static CreateSessionResponse decode(UaReader& r);
};

struct ActivateSessionRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kActivateSessionRequest;
  RequestHeader header;
  SignatureData client_signature;
  UserIdentityToken user_identity_token;

  void encode(UaWriter& w) const;
  static ActivateSessionRequest decode(UaReader& r);
};

struct ActivateSessionResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kActivateSessionResponse;
  ResponseHeader header;
  Bytes server_nonce;

  void encode(UaWriter& w) const;
  static ActivateSessionResponse decode(UaReader& r);
};

struct CloseSessionRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kCloseSessionRequest;
  RequestHeader header;
  bool delete_subscriptions = true;

  void encode(UaWriter& w) const;
  static CloseSessionRequest decode(UaReader& r);
};

struct CloseSessionResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kCloseSessionResponse;
  ResponseHeader header;

  void encode(UaWriter& w) const;
  static CloseSessionResponse decode(UaReader& r);
};

enum class BrowseDirection : std::uint32_t { Forward = 0, Inverse = 1, Both = 2 };

struct BrowseDescription {
  NodeId node_id;
  BrowseDirection direction = BrowseDirection::Forward;
  NodeId reference_type_id = node_ids::kHierarchicalReferences;
  bool include_subtypes = true;
  std::uint32_t node_class_mask = 0;  // 0 = all
  std::uint32_t result_mask = 0x3f;

  void encode(UaWriter& w) const;
  static BrowseDescription decode(UaReader& r);
};

struct ReferenceDescription {
  NodeId reference_type_id;
  bool is_forward = true;
  NodeId node_id;
  QualifiedName browse_name;
  LocalizedText display_name;
  NodeClass node_class = NodeClass::Unspecified;
  NodeId type_definition;

  void encode(UaWriter& w) const;
  static ReferenceDescription decode(UaReader& r);
};

struct BrowseResult {
  StatusCode status = StatusCode::Good;
  Bytes continuation_point;
  std::vector<ReferenceDescription> references;

  void encode(UaWriter& w) const;
  static BrowseResult decode(UaReader& r);
};

struct BrowseRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kBrowseRequest;
  RequestHeader header;
  std::uint32_t requested_max_references_per_node = 0;
  std::vector<BrowseDescription> nodes_to_browse;

  void encode(UaWriter& w) const;
  static BrowseRequest decode(UaReader& r);
};

struct BrowseResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kBrowseResponse;
  ResponseHeader header;
  std::vector<BrowseResult> results;

  void encode(UaWriter& w) const;
  static BrowseResponse decode(UaReader& r);
};

struct BrowseNextRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kBrowseNextRequest;
  RequestHeader header;
  bool release_continuation_points = false;
  std::vector<Bytes> continuation_points;

  void encode(UaWriter& w) const;
  static BrowseNextRequest decode(UaReader& r);
};

struct BrowseNextResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kBrowseNextResponse;
  ResponseHeader header;
  std::vector<BrowseResult> results;

  void encode(UaWriter& w) const;
  static BrowseNextResponse decode(UaReader& r);
};

struct ReadValueId {
  NodeId node_id;
  AttributeId attribute_id = AttributeId::Value;

  void encode(UaWriter& w) const;
  static ReadValueId decode(UaReader& r);
};

struct ReadRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kReadRequest;
  RequestHeader header;
  double max_age = 0;
  std::uint32_t timestamps_to_return = 0;
  std::vector<ReadValueId> nodes_to_read;

  void encode(UaWriter& w) const;
  static ReadRequest decode(UaReader& r);
};

struct ReadResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kReadResponse;
  ResponseHeader header;
  std::vector<DataValue> results;

  void encode(UaWriter& w) const;
  static ReadResponse decode(UaReader& r);
};

struct WriteValue {
  NodeId node_id;
  AttributeId attribute_id = AttributeId::Value;
  DataValue value;

  void encode(UaWriter& w) const;
  static WriteValue decode(UaReader& r);
};

/// Write service — the operation the paper's scanner deliberately never
/// issues (§A.1) but that 33 % of accessible hosts would accept from an
/// anonymous attacker (Fig. 7).
struct WriteRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kWriteRequest;
  RequestHeader header;
  std::vector<WriteValue> nodes_to_write;

  void encode(UaWriter& w) const;
  static WriteRequest decode(UaReader& r);
};

struct WriteResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kWriteResponse;
  ResponseHeader header;
  std::vector<StatusCode> results;

  void encode(UaWriter& w) const;
  static WriteResponse decode(UaReader& r);
};

struct CallMethodRequest {
  NodeId object_id;
  NodeId method_id;
  std::vector<Variant> input_arguments;

  void encode(UaWriter& w) const;
  static CallMethodRequest decode(UaReader& r);
};

struct CallMethodResult {
  StatusCode status = StatusCode::Good;
  std::vector<Variant> output_arguments;

  void encode(UaWriter& w) const;
  static CallMethodResult decode(UaReader& r);
};

/// Call service — method execution (61 % of accessible hosts expose > 86 %
/// of their functions to anonymous users, Fig. 7).
struct CallRequest {
  static constexpr std::uint32_t kTypeId = type_ids::kCallRequest;
  RequestHeader header;
  std::vector<CallMethodRequest> methods_to_call;

  void encode(UaWriter& w) const;
  static CallRequest decode(UaReader& r);
};

struct CallResponse {
  static constexpr std::uint32_t kTypeId = type_ids::kCallResponse;
  ResponseHeader header;
  std::vector<CallMethodResult> results;

  void encode(UaWriter& w) const;
  static CallResponse decode(UaReader& r);
};

struct ServiceFault {
  static constexpr std::uint32_t kTypeId = type_ids::kServiceFault;
  ResponseHeader header;

  void encode(UaWriter& w) const;
  static ServiceFault decode(UaReader& r);
};

// ------------------------------------------------------------- envelope ----

/// Encode `msg` prefixed with its binary-encoding NodeId.
template <typename T>
Bytes pack_service(const T& msg) {
  UaWriter w;
  w.node_id(NodeId(0, T::kTypeId));
  msg.encode(w);
  return w.take();
}

/// Read the type id of a packed service body (without consuming it).
std::uint32_t peek_type_id(std::span<const std::uint8_t> packed);

/// Decode a packed service body, checking its type id.
template <typename T>
T unpack_service(std::span<const std::uint8_t> packed) {
  UaReader r(packed);
  const NodeId type_node = r.node_id();
  if (!type_node.is_numeric() || type_node.numeric() != T::kTypeId) {
    throw DecodeError("unexpected service type id");
  }
  return T::decode(r);
}

}  // namespace opcua_study
