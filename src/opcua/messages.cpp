#include "opcua/messages.hpp"

#include "opcua/wire.hpp"

namespace opcua_study {

std::string user_token_type_name(UserTokenType t) {
  switch (t) {
    case UserTokenType::Anonymous: return "anonymous";
    case UserTokenType::UserName: return "credentials";
    case UserTokenType::Certificate: return "certificate";
    case UserTokenType::IssuedToken: return "token";
  }
  return "?";
}

namespace {
// The enum fields a grab copies into its record are checked at decode, so
// a value the record formats cannot hold fails the reply, not the file.
constexpr EnumValues kApplicationTypes{"application type", 0b1111};
constexpr EnumValues kSecurityModes{"security mode", 0b1111};
constexpr EnumValues kUserTokenTypes{"user token type", 0b1111};
constexpr EnumValues kNodeClasses{"node class", 0b10111};  // 0, 1, 2, 4
}  // namespace

// Field lists in wire order (see opcua/wire.hpp), each followed by the
// structure's encode and decode, which walk it.
#define OPCUA_WIRE_ENTRY_POINTS(T)                                       \
  void T::encode(UaWriter& w) const { WireEncoder(w).structure(*this); } \
  T T::decode(UaReader& r) {                                             \
    T m;                                                                 \
    WireDecoder(r).structure(m);                                         \
    return m;                                                            \
  }

void fields(auto& io, Visited<RequestHeader> auto& m) {
  io.node_id(m.authentication_token);
  io.datetime(m.timestamp);
  io.u32(m.request_handle);
  io.zero_u32();         // returnDiagnostics
  io.null_string();      // auditEntryId
  io.u32(m.timeout_hint);
  io.null_extension();   // additionalHeader
}
OPCUA_WIRE_ENTRY_POINTS(RequestHeader)

void fields(auto& io, Visited<ResponseHeader> auto& m) {
  io.datetime(m.timestamp);
  io.u32(m.request_handle);
  io.status(m.service_result);
  io.null_diagnostic();    // serviceDiagnostics
  io.null_string_array();  // stringTable
  io.null_extension();     // additionalHeader
}
OPCUA_WIRE_ENTRY_POINTS(ResponseHeader)

void fields(auto& io, Visited<ApplicationDescription> auto& m) {
  io.string(m.application_uri);
  io.string(m.product_uri);
  io.localized_text(m.application_name);
  io.enumeration(m.application_type, &kApplicationTypes);
  io.null_string();  // gatewayServerUri
  io.null_string();  // discoveryProfileUri
  io.string_array(m.discovery_urls);
}
OPCUA_WIRE_ENTRY_POINTS(ApplicationDescription)

void fields(auto& io, Visited<UserTokenPolicy> auto& m) {
  io.string(m.policy_id);
  io.enumeration(m.token_type, &kUserTokenTypes);
  io.null_string();  // issuedTokenType
  io.null_string();  // issuerEndpointUrl
  io.string(m.security_policy_uri);
}
OPCUA_WIRE_ENTRY_POINTS(UserTokenPolicy)

void fields(auto& io, Visited<EndpointDescription> auto& m) {
  io.string(m.endpoint_url);
  io.structure(m.server);
  io.byte_string(m.server_certificate);
  io.enumeration(m.security_mode, &kSecurityModes);
  io.string(m.security_policy_uri);
  io.array(m.user_identity_tokens);
  io.string(m.transport_profile_uri);
  io.byte(m.security_level);
}
OPCUA_WIRE_ENTRY_POINTS(EndpointDescription)

void fields(auto& io, Visited<SignatureData> auto& m) {
  io.nullable_string(m.algorithm);
  io.nullable_byte_string(m.signature);
}
OPCUA_WIRE_ENTRY_POINTS(SignatureData)

// The identity token's body layout depends on its type id, so it keeps a
// hand-written pair.
void UserIdentityToken::encode(UaWriter& w) const {
  std::uint32_t type_id = type_ids::kAnonymousIdentityToken;
  switch (kind) {
    case UserTokenType::Anonymous: type_id = type_ids::kAnonymousIdentityToken; break;
    case UserTokenType::UserName: type_id = type_ids::kUserNameIdentityToken; break;
    case UserTokenType::Certificate: type_id = type_ids::kX509IdentityToken; break;
    case UserTokenType::IssuedToken: type_id = type_ids::kIssuedIdentityToken; break;
  }
  w.node_id(NodeId(0, type_id));
  w.byte(0x01);  // body is a ByteString
  UaWriter body;
  body.string(policy_id);
  switch (kind) {
    case UserTokenType::Anonymous: break;
    case UserTokenType::UserName:
      body.string(user_name);
      body.byte_string(password);
      body.null_string();  // encryptionAlgorithm
      break;
    case UserTokenType::Certificate: body.byte_string(certificate_data); break;
    case UserTokenType::IssuedToken:
      body.byte_string(token_data);
      body.null_string();
      break;
  }
  w.byte_string(body.take());
}

UserIdentityToken UserIdentityToken::decode(UaReader& r) {
  UserIdentityToken t;
  const NodeId type_node = r.node_id();
  const std::uint8_t encoding = r.byte();
  if (encoding != 0x01) throw DecodeError("identity token must have binary body");
  const Bytes body_bytes = r.byte_string();
  UaReader body(body_bytes);
  const std::uint32_t type_id = type_node.is_numeric() ? type_node.numeric() : 0;
  t.policy_id = body.string();
  switch (type_id) {
    case type_ids::kAnonymousIdentityToken: t.kind = UserTokenType::Anonymous; break;
    case type_ids::kUserNameIdentityToken:
      t.kind = UserTokenType::UserName;
      t.user_name = body.string();
      t.password = body.byte_string();
      body.string();
      break;
    case type_ids::kX509IdentityToken:
      t.kind = UserTokenType::Certificate;
      t.certificate_data = body.byte_string();
      break;
    case type_ids::kIssuedIdentityToken:
      t.kind = UserTokenType::IssuedToken;
      t.token_data = body.byte_string();
      break;
    default: throw DecodeError("unknown identity token type");
  }
  return t;
}

// ------------------------------------------------------------- services ----

void fields(auto& io, Visited<OpenSecureChannelRequest> auto& m) {
  io.structure(m.header);
  io.u32(m.client_protocol_version);
  io.u32(m.request_type);
  io.enumeration(m.security_mode);
  io.byte_string(m.client_nonce);
  io.u32(m.requested_lifetime_ms);
}
OPCUA_WIRE_ENTRY_POINTS(OpenSecureChannelRequest)

void fields(auto& io, Visited<OpenSecureChannelResponse> auto& m) {
  io.structure(m.header);
  io.u32(m.server_protocol_version);
  io.u32(m.channel_id);
  io.u32(m.token_id);
  io.datetime(m.created_at);
  io.u32(m.revised_lifetime_ms);
  io.byte_string(m.server_nonce);
}
OPCUA_WIRE_ENTRY_POINTS(OpenSecureChannelResponse)

void fields(auto& io, Visited<CloseSecureChannelRequest> auto& m) { io.structure(m.header); }
OPCUA_WIRE_ENTRY_POINTS(CloseSecureChannelRequest)

void fields(auto& io, Visited<GetEndpointsRequest> auto& m) {
  io.structure(m.header);
  io.string(m.endpoint_url);
  io.null_string_array();  // localeIds
  io.null_string_array();  // profileUris
}
OPCUA_WIRE_ENTRY_POINTS(GetEndpointsRequest)

void fields(auto& io, Visited<GetEndpointsResponse> auto& m) {
  io.structure(m.header);
  io.array(m.endpoints);
}
OPCUA_WIRE_ENTRY_POINTS(GetEndpointsResponse)

void fields(auto& io, Visited<FindServersRequest> auto& m) {
  io.structure(m.header);
  io.string(m.endpoint_url);
  io.null_string_array();  // localeIds
  io.null_string_array();  // serverUris
}
OPCUA_WIRE_ENTRY_POINTS(FindServersRequest)

void fields(auto& io, Visited<FindServersResponse> auto& m) {
  io.structure(m.header);
  io.array(m.servers);
}
OPCUA_WIRE_ENTRY_POINTS(FindServersResponse)

void fields(auto& io, Visited<CreateSessionRequest> auto& m) {
  io.structure(m.header);
  io.structure(m.client_description);
  io.null_string();  // serverUri
  io.string(m.endpoint_url);
  io.string(m.session_name);
  io.byte_string(m.client_nonce);
  io.nullable_byte_string(m.client_certificate);
  io.f64(m.requested_session_timeout_ms);
  io.zero_u32();  // maxResponseMessageSize
}
OPCUA_WIRE_ENTRY_POINTS(CreateSessionRequest)

void fields(auto& io, Visited<CreateSessionResponse> auto& m) {
  io.structure(m.header);
  io.node_id(m.session_id);
  io.node_id(m.authentication_token);
  io.f64(m.revised_session_timeout_ms);
  io.byte_string(m.server_nonce);
  io.nullable_byte_string(m.server_certificate);
  io.array(m.server_endpoints);
  io.no_software_certificates();  // serverSoftwareCertificates
  io.structure(m.server_signature);
  io.zero_u32();  // maxRequestMessageSize
}
OPCUA_WIRE_ENTRY_POINTS(CreateSessionResponse)

void fields(auto& io, Visited<ActivateSessionRequest> auto& m) {
  io.structure(m.header);
  io.structure(m.client_signature);
  io.no_software_certificates();  // clientSoftwareCertificates
  io.null_string_array();  // localeIds
  io.coded(m.user_identity_token);
  io.ignored_structure(SignatureData{});  // userTokenSignature
}
OPCUA_WIRE_ENTRY_POINTS(ActivateSessionRequest)

void fields(auto& io, Visited<ActivateSessionResponse> auto& m) {
  io.structure(m.header);
  io.byte_string(m.server_nonce);
  io.null_status_array();  // results
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(ActivateSessionResponse)

void fields(auto& io, Visited<CloseSessionRequest> auto& m) {
  io.structure(m.header);
  io.boolean(m.delete_subscriptions);
}
OPCUA_WIRE_ENTRY_POINTS(CloseSessionRequest)

void fields(auto& io, Visited<CloseSessionResponse> auto& m) { io.structure(m.header); }
OPCUA_WIRE_ENTRY_POINTS(CloseSessionResponse)

void fields(auto& io, Visited<BrowseDescription> auto& m) {
  io.node_id(m.node_id);
  io.enumeration(m.direction);
  io.node_id(m.reference_type_id);
  io.boolean(m.include_subtypes);
  io.u32(m.node_class_mask);
  io.u32(m.result_mask);
}
OPCUA_WIRE_ENTRY_POINTS(BrowseDescription)

void fields(auto& io, Visited<ReferenceDescription> auto& m) {
  io.node_id(m.reference_type_id);
  io.boolean(m.is_forward);
  io.expanded_node_id(m.node_id);
  io.qualified_name(m.browse_name);
  io.localized_text(m.display_name);
  io.enumeration(m.node_class, &kNodeClasses);
  io.expanded_node_id(m.type_definition);
}
OPCUA_WIRE_ENTRY_POINTS(ReferenceDescription)

void fields(auto& io, Visited<BrowseResult> auto& m) {
  io.status(m.status);
  io.nullable_byte_string(m.continuation_point);
  io.array(m.references);
}
OPCUA_WIRE_ENTRY_POINTS(BrowseResult)

namespace {
/// The view of a Browse request, sent null: browse the whole address space.
struct ViewDescription {
  NodeId view_id;
  std::int64_t timestamp = 0;
  std::uint32_t view_version = 0;
};

void fields(auto& io, Visited<ViewDescription> auto& m) {
  io.node_id(m.view_id);
  io.datetime(m.timestamp);
  io.u32(m.view_version);
}
}  // namespace

void fields(auto& io, Visited<BrowseRequest> auto& m) {
  io.structure(m.header);
  io.ignored_structure(ViewDescription{});  // view
  io.u32(m.requested_max_references_per_node);
  io.array(m.nodes_to_browse);
}
OPCUA_WIRE_ENTRY_POINTS(BrowseRequest)

void fields(auto& io, Visited<BrowseResponse> auto& m) {
  io.structure(m.header);
  io.array(m.results);
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(BrowseResponse)

void fields(auto& io, Visited<BrowseNextRequest> auto& m) {
  io.structure(m.header);
  io.boolean(m.release_continuation_points);
  io.array(m.continuation_points);
}
OPCUA_WIRE_ENTRY_POINTS(BrowseNextRequest)

void fields(auto& io, Visited<BrowseNextResponse> auto& m) {
  io.structure(m.header);
  io.array(m.results);
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(BrowseNextResponse)

void fields(auto& io, Visited<ReadValueId> auto& m) {
  io.node_id(m.node_id);
  io.enumeration(m.attribute_id);
  io.null_string();          // indexRange
  io.null_qualified_name();  // dataEncoding
}
OPCUA_WIRE_ENTRY_POINTS(ReadValueId)

void fields(auto& io, Visited<ReadRequest> auto& m) {
  io.structure(m.header);
  io.f64(m.max_age);
  io.u32(m.timestamps_to_return);
  io.array(m.nodes_to_read);
}
OPCUA_WIRE_ENTRY_POINTS(ReadRequest)

void fields(auto& io, Visited<ReadResponse> auto& m) {
  io.structure(m.header);
  io.array(m.results);
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(ReadResponse)

void fields(auto& io, Visited<WriteValue> auto& m) {
  io.node_id(m.node_id);
  io.enumeration(m.attribute_id);
  io.null_string();  // indexRange
  io.data_value(m.value);
}
OPCUA_WIRE_ENTRY_POINTS(WriteValue)

void fields(auto& io, Visited<WriteRequest> auto& m) {
  io.structure(m.header);
  io.array(m.nodes_to_write);
}
OPCUA_WIRE_ENTRY_POINTS(WriteRequest)

void fields(auto& io, Visited<WriteResponse> auto& m) {
  io.structure(m.header);
  io.array(m.results);
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(WriteResponse)

void fields(auto& io, Visited<CallMethodRequest> auto& m) {
  io.node_id(m.object_id);
  io.node_id(m.method_id);
  io.array(m.input_arguments);
}
OPCUA_WIRE_ENTRY_POINTS(CallMethodRequest)

void fields(auto& io, Visited<CallMethodResult> auto& m) {
  io.status(m.status);
  io.null_status_array();  // inputArgumentResults
  io.null_diagnostic_array();  // inputArgumentDiagnosticInfos
  io.array(m.output_arguments);
}
OPCUA_WIRE_ENTRY_POINTS(CallMethodResult)

void fields(auto& io, Visited<CallRequest> auto& m) {
  io.structure(m.header);
  io.array(m.methods_to_call);
}
OPCUA_WIRE_ENTRY_POINTS(CallRequest)

void fields(auto& io, Visited<CallResponse> auto& m) {
  io.structure(m.header);
  io.array(m.results);
  io.null_diagnostic_array();  // diagnosticInfos
}
OPCUA_WIRE_ENTRY_POINTS(CallResponse)

void fields(auto& io, Visited<ServiceFault> auto& m) { io.structure(m.header); }
OPCUA_WIRE_ENTRY_POINTS(ServiceFault)

std::uint32_t peek_type_id(std::span<const std::uint8_t> packed) {
  UaReader r(packed);
  const NodeId id = r.node_id();
  if (!id.is_numeric()) throw DecodeError("non-numeric service type id");
  return id.numeric();
}

}  // namespace opcua_study
