#include "opcua/client.hpp"

namespace opcua_study {

Client::Client(ClientConfig config, MessageTransport& transport, Rng rng)
    : config_(std::move(config)), transport_(transport), rng_(std::move(rng)) {}

StatusCode Client::hello(const std::string& endpoint_url) {
  HelloMessage hello;
  hello.endpoint_url = endpoint_url;
  Bytes response;
  try {
    response = transport_.roundtrip(frame_message("HEL", hello.encode()));
    const Frame frame = parse_frame(response);
    if (frame.type == "ERR") {
      const ErrorMessage err = ErrorMessage::decode(frame.body);
      return err.error;
    }
    if (frame.type != "ACK") return StatusCode::BadTcpMessageTypeInvalid;
    AcknowledgeMessage::decode(frame.body);
  } catch (const DecodeError&) {
    return StatusCode::BadCommunicationError;
  }
  hello_done_ = true;
  return StatusCode::Good;
}

StatusCode Client::open_channel(SecurityPolicy policy, MessageSecurityMode mode,
                                const Bytes& server_cert_der) {
  if (!hello_done_) return StatusCode::BadConnectionRejected;
  const SecurityPolicyInfo& info = policy_info(policy);

  std::optional<Certificate> server_cert;
  if (policy != SecurityPolicy::None) {
    if (!config_.private_key || config_.certificate_der.empty()) {
      return StatusCode::BadSecurityChecksFailed;
    }
    try {
      server_cert = x509_parse(server_cert_der);
    } catch (const DecodeError&) {
      return StatusCode::BadCertificateInvalid;
    }
  }

  OpenSecureChannelRequest req;
  req.header.request_handle = request_handle_++;
  req.security_mode = mode;
  req.client_nonce = policy == SecurityPolicy::None ? Bytes{} : rng_.bytes(info.nonce_bytes);

  OpnSecurity sec;
  sec.policy = policy;
  if (policy != SecurityPolicy::None) {
    sec.local_private = &*config_.private_key;
    sec.local_cert_der = config_.certificate_der;
    sec.remote_public = &server_cert->public_key;
    sec.remote_cert_thumbprint = x509_thumbprint(server_cert_der);
  }

  Bytes response;
  try {
    const Bytes wire =
        build_opn(0, sec, SequenceHeader{seq_++, req.header.request_handle}, pack_service(req), rng_);
    response = transport_.roundtrip(wire);
    const Frame frame = parse_frame(response);
    if (frame.type == "ERR") {
      const ErrorMessage err = ErrorMessage::decode(frame.body);
      return err.error;
    }
    // Server→client OPN is encrypted with *our* public key.
    const RsaPrivateKey* decrypt_key =
        policy == SecurityPolicy::None ? nullptr : &*config_.private_key;
    const OpnParsed parsed = parse_opn(response, decrypt_key);
    const OpenSecureChannelResponse resp = unpack_service<OpenSecureChannelResponse>(parsed.body);
    if (is_bad(resp.header.service_result)) return resp.header.service_result;
    channel_id_ = resp.channel_id;
    token_id_ = resp.token_id;
    if (policy != SecurityPolicy::None) {
      client_keys_ = derive_keys(policy, resp.server_nonce, req.client_nonce);
      server_keys_ = derive_keys(policy, req.client_nonce, resp.server_nonce);
    }
  } catch (const DecodeError&) {
    return StatusCode::BadSecurityChecksFailed;
  }
  channel_open_ = true;
  policy_ = policy;
  mode_ = mode;
  return StatusCode::Good;
}

template <typename Request, typename Response>
StatusCode Client::call(const Request& req, Response& resp) {
  if (!channel_open_) return StatusCode::BadSecureChannelIdInvalid;
  try {
    ++seq_;
    const Bytes wire = build_msg("MSG", channel_id_, token_id_, SequenceHeader{seq_, seq_},
                                 pack_service(req), policy_, mode_, client_keys_);
    const Bytes response = transport_.roundtrip(wire);
    const Frame frame = parse_frame(response);
    if (frame.type == "ERR") {
      const ErrorMessage err = ErrorMessage::decode(frame.body);
      channel_open_ = false;
      return err.error;
    }
    const MsgParsed parsed = parse_msg(response, policy_, mode_, server_keys_);
    const std::uint32_t type_id = peek_type_id(parsed.body);
    if (type_id == type_ids::kServiceFault) {
      const ServiceFault f = unpack_service<ServiceFault>(parsed.body);
      return f.header.service_result;
    }
    resp = unpack_service<Response>(parsed.body);
    return resp.header.service_result;
  } catch (const DecodeError&) {
    return StatusCode::BadCommunicationError;
  }
}

StatusCode Client::get_endpoints(const std::string& url, std::vector<EndpointDescription>& out) {
  GetEndpointsRequest req;
  req.header.request_handle = request_handle_++;
  req.endpoint_url = url;
  GetEndpointsResponse resp;
  const StatusCode status = call(req, resp);
  if (is_good(status)) out = std::move(resp.endpoints);
  return status;
}

StatusCode Client::find_servers(const std::string& url, std::vector<ApplicationDescription>& out) {
  FindServersRequest req;
  req.header.request_handle = request_handle_++;
  req.endpoint_url = url;
  FindServersResponse resp;
  const StatusCode status = call(req, resp);
  if (is_good(status)) out = std::move(resp.servers);
  return status;
}

StatusCode Client::create_session(SessionInfo* info) {
  CreateSessionRequest req;
  req.header.request_handle = request_handle_++;
  req.client_description.application_uri = config_.application_uri;
  req.client_description.application_name = {"en", config_.application_name};
  req.client_description.application_type = ApplicationType::Client;
  req.session_name = "study-session";
  req.client_nonce = rng_.bytes(32);
  req.client_certificate = config_.certificate_der;
  CreateSessionResponse resp;
  const StatusCode status = call(req, resp);
  if (is_bad(status)) return status;
  auth_token_ = resp.authentication_token;
  if (info != nullptr) {
    info->server_certificate = resp.server_certificate;
    info->server_signature_valid = false;
    if (!resp.server_signature.signature.empty() && !resp.server_certificate.empty()) {
      try {
        const Certificate cert = x509_parse(resp.server_certificate);
        Bytes signed_data = req.client_certificate;
        signed_data.insert(signed_data.end(), req.client_nonce.begin(), req.client_nonce.end());
        info->server_signature_valid = asymmetric_signer(policy_).verify(
            cert.public_key, signed_data, resp.server_signature.signature);
      } catch (const DecodeError&) {
        info->server_signature_valid = false;
      }
    }
  }
  return status;
}

StatusCode Client::activate_session_anonymous() {
  ActivateSessionRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  req.user_identity_token.kind = UserTokenType::Anonymous;
  req.user_identity_token.policy_id = "anonymous";
  ActivateSessionResponse resp;
  return call(req, resp);
}

StatusCode Client::activate_session_username(const std::string& user,
                                             const std::string& password) {
  ActivateSessionRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  req.user_identity_token.kind = UserTokenType::UserName;
  req.user_identity_token.policy_id = "credentials";
  req.user_identity_token.user_name = user;
  req.user_identity_token.password = to_bytes(password);
  ActivateSessionResponse resp;
  return call(req, resp);
}

StatusCode Client::close_session() {
  CloseSessionRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  CloseSessionResponse resp;
  return call(req, resp);
}

StatusCode Client::browse(const NodeId& node, std::vector<ReferenceDescription>& out,
                          std::uint32_t max_refs_per_node) {
  BrowseRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  req.requested_max_references_per_node = max_refs_per_node;
  BrowseDescription desc;
  desc.node_id = node;
  req.nodes_to_browse.push_back(desc);
  BrowseResponse resp;
  StatusCode status = call(req, resp);
  if (is_bad(status)) return status;
  if (resp.results.empty()) return StatusCode::BadUnexpectedError;
  out = resp.results[0].references;
  Bytes continuation = resp.results[0].continuation_point;
  while (!continuation.empty()) {
    BrowseNextRequest next_req;
    next_req.header.request_handle = request_handle_++;
    next_req.header.authentication_token = auth_token_;
    next_req.continuation_points.push_back(continuation);
    BrowseNextResponse next_resp;
    status = call(next_req, next_resp);
    if (is_bad(status)) return status;
    if (next_resp.results.empty()) break;
    out.insert(out.end(), next_resp.results[0].references.begin(),
               next_resp.results[0].references.end());
    continuation = next_resp.results[0].continuation_point;
  }
  return resp.results[0].status;
}

StatusCode Client::read(const NodeId& node, AttributeId attribute, DataValue& out) {
  ReadRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  ReadValueId rv;
  rv.node_id = node;
  rv.attribute_id = attribute;
  req.nodes_to_read.push_back(rv);
  ReadResponse resp;
  const StatusCode status = call(req, resp);
  if (is_bad(status)) return status;
  if (resp.results.empty()) return StatusCode::BadUnexpectedError;
  out = resp.results[0];
  return status;
}

StatusCode Client::write_value(const NodeId& node, Variant value, StatusCode& node_status) {
  WriteRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  WriteValue wv;
  wv.node_id = node;
  wv.value.value = std::move(value);
  req.nodes_to_write.push_back(std::move(wv));
  WriteResponse resp;
  const StatusCode status = call(req, resp);
  if (is_bad(status)) return status;
  node_status = resp.results.empty() ? StatusCode::BadUnexpectedError : resp.results[0];
  return status;
}

StatusCode Client::call_method(const NodeId& object, const NodeId& method,
                               std::vector<Variant> inputs, StatusCode& method_status) {
  CallRequest req;
  req.header.request_handle = request_handle_++;
  req.header.authentication_token = auth_token_;
  CallMethodRequest cm;
  cm.object_id = object;
  cm.method_id = method;
  cm.input_arguments = std::move(inputs);
  req.methods_to_call.push_back(std::move(cm));
  CallResponse resp;
  const StatusCode status = call(req, resp);
  if (is_bad(status)) return status;
  method_status = resp.results.empty() ? StatusCode::BadUnexpectedError : resp.results[0].status;
  return status;
}

StatusCode Client::read_string_array(const NodeId& node, std::vector<std::string>& out) {
  DataValue dv;
  const StatusCode status = read(node, AttributeId::Value, dv);
  if (is_bad(status)) return status;
  if (is_bad(dv.status)) return dv.status;
  if (!dv.value.is<std::vector<std::string>>()) return StatusCode::BadDecodingError;
  out = dv.value.as<std::vector<std::string>>();
  return StatusCode::Good;
}

void Client::close_channel() {
  if (!channel_open_) return;
  CloseSecureChannelRequest req;
  req.header.request_handle = request_handle_++;
  try {
    const Bytes wire = build_msg("CLO", channel_id_, token_id_, SequenceHeader{++seq_, seq_},
                                 pack_service(req), policy_, mode_, client_keys_);
    transport_.send_oneway(wire);
  } catch (const DecodeError&) {
    // Closing a broken channel is best-effort.
  }
  channel_open_ = false;
}

}  // namespace opcua_study
