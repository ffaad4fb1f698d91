#include "opcua/server.hpp"

#include "crypto/x509.hpp"
#include "util/date.hpp"

namespace opcua_study {

Server::Server(ServerConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  if (!config_.address_space) config_.address_space = std::make_shared<AddressSpace>();
  config_.address_space->set_software_version(config_.identity.software_version);
}

ApplicationDescription Server::application_description() const {
  ApplicationDescription app;
  app.application_uri = config_.identity.application_uri;
  app.product_uri = config_.identity.product_uri;
  app.application_name = {"en", config_.identity.application_name};
  app.application_type = config_.identity.application_type;
  for (const auto& ep : config_.endpoints) app.discovery_urls.push_back(ep.url);
  return app;
}

std::vector<EndpointDescription> Server::endpoint_descriptions() const {
  std::vector<EndpointDescription> out;
  const ApplicationDescription app = application_description();
  for (const auto& ep : config_.endpoints) {
    EndpointDescription desc;
    desc.endpoint_url = ep.url;
    desc.server = app;
    if (ep.certificate_index >= 0 &&
        static_cast<std::size_t>(ep.certificate_index) < config_.certificates.size()) {
      desc.server_certificate = config_.certificates[static_cast<std::size_t>(ep.certificate_index)];
    }
    desc.security_mode = ep.mode;
    const SecurityPolicyInfo& info = policy_info(ep.policy);
    desc.security_policy_uri = std::string(info.uri);
    desc.security_level = static_cast<std::uint8_t>(
        info.rank * 3 + security_mode_rank(ep.mode));
    for (UserTokenType t : ep.token_types) {
      UserTokenPolicy token;
      token.policy_id = user_token_type_name(t);
      token.token_type = t;
      desc.user_identity_tokens.push_back(std::move(token));
    }
    out.push_back(std::move(desc));
  }
  // Discovery servers additionally announce endpoints of other hosts.
  out.insert(out.end(), config_.foreign_endpoints.begin(), config_.foreign_endpoints.end());
  return out;
}

std::unique_ptr<ServerConnection> Server::accept() {
  return std::make_unique<ServerConnection>(*this,
                                            Rng(seed_).child("conn-" + std::to_string(next_channel_id_)));
}

// --------------------------------------------------------------------------

ServerConnection::ServerConnection(Server& server, Rng rng)
    : server_(server), rng_(std::move(rng)) {}

Bytes ServerConnection::error_frame(StatusCode code, const std::string& reason) {
  closed_ = true;
  ErrorMessage err;
  err.error = code;
  err.reason = reason;
  return frame_message("ERR", err.encode());
}

Bytes ServerConnection::on_frame(std::span<const std::uint8_t> wire) {
  if (closed_) return {};
  Frame frame;
  try {
    frame = parse_frame(wire);
  } catch (const DecodeError&) {
    return error_frame(StatusCode::BadTcpMessageTypeInvalid, "malformed frame");
  }
  try {
    if (frame.type == "HEL") return handle_hello(frame);
    if (!hello_done_) {
      return error_frame(StatusCode::BadTcpMessageTypeInvalid, "expected HEL");
    }
    if (frame.type == "OPN") return handle_opn(wire);
    if (frame.type == "MSG") return handle_msg(wire);
    if (frame.type == "CLO") {
      closed_ = true;
      return {};
    }
    return error_frame(StatusCode::BadTcpMessageTypeInvalid, "unknown frame type " + frame.type);
  } catch (const DecodeError& e) {
    return error_frame(StatusCode::BadSecurityChecksFailed, e.what());
  }
}

Bytes ServerConnection::handle_hello(const Frame& frame) {
  HelloMessage hello = HelloMessage::decode(frame.body);
  (void)hello;
  hello_done_ = true;
  AcknowledgeMessage ack;
  return frame_message("ACK", ack.encode());
}

Bytes ServerConnection::handle_opn(std::span<const std::uint8_t> wire) {
  // The policy URI is in the clear; decryption requires the private key of
  // the certificate the client selected, so try each configured key.
  OpnParsed parsed;
  bool ok = false;
  std::string last_error = "no private key configured";
  if (server_.config_.private_keys.empty()) {
    parsed = parse_opn(wire, nullptr);
    ok = true;
  } else {
    for (const auto& key : server_.config_.private_keys) {
      try {
        parsed = parse_opn(wire, &key);
        ok = true;
        break;
      } catch (const DecodeError& e) {
        last_error = e.what();
      }
    }
  }
  if (!ok) return error_frame(StatusCode::BadSecurityChecksFailed, last_error);

  OpenSecureChannelRequest req = unpack_service<OpenSecureChannelRequest>(parsed.body);

  int endpoint_index = -1;
  for (std::size_t i = 0; i < server_.config_.endpoints.size(); ++i) {
    const auto& ep = server_.config_.endpoints[i];
    if (ep.policy == parsed.policy && ep.mode == req.security_mode) {
      endpoint_index = static_cast<int>(i);
      break;
    }
  }

  if (parsed.policy != SecurityPolicy::None) {
    if (endpoint_index < 0) {
      return error_frame(StatusCode::BadSecurityPolicyRejected, "no endpoint for policy");
    }
    // Client certificate trust decision. The paper's scanner presents a
    // self-signed certificate; servers validating against a trust list
    // abort the channel here ("certificate not accepted", Fig. 6).
    if (!server_.config_.trust_all_client_certs) {
      return error_frame(StatusCode::BadSecurityChecksFailed,
                         "client certificate not trusted");
    }
    client_public_key_ = std::move(parsed.sender_public);
    client_cert_der_ = parsed.sender_cert_der;
  } else if (req.security_mode != MessageSecurityMode::None) {
    return error_frame(StatusCode::BadSecurityModeRejected, "policy None requires mode None");
  }

  channel_open_ = true;
  channel_id_ = server_.next_channel_id_++;
  token_id_ = channel_id_ * 1000 + 1;
  channel_policy_ = parsed.policy;
  channel_mode_ = req.security_mode;
  channel_endpoint_ = endpoint_index;

  const SecurityPolicyInfo& info = policy_info(parsed.policy);
  Bytes server_nonce;
  if (parsed.policy != SecurityPolicy::None) {
    server_nonce = rng_.bytes(info.nonce_bytes);
    client_keys_ = derive_keys(parsed.policy, server_nonce, req.client_nonce);
    server_keys_ = derive_keys(parsed.policy, req.client_nonce, server_nonce);
  }

  OpenSecureChannelResponse resp;
  resp.header.request_handle = req.header.request_handle;
  resp.header.service_result = StatusCode::Good;
  resp.channel_id = channel_id_;
  resp.token_id = token_id_;
  resp.revised_lifetime_ms = req.requested_lifetime_ms;
  resp.server_nonce = server_nonce;
  const Bytes packed = pack_service(resp);

  OpnSecurity sec;
  sec.policy = parsed.policy;
  if (parsed.policy != SecurityPolicy::None) {
    const int cert_index =
        server_.config_.endpoints[static_cast<std::size_t>(endpoint_index)].certificate_index;
    sec.local_private = &server_.config_.private_keys[static_cast<std::size_t>(cert_index)];
    sec.local_cert_der = server_.config_.certificates[static_cast<std::size_t>(cert_index)];
    sec.remote_public = &*client_public_key_;
    sec.remote_cert_thumbprint = x509_thumbprint(client_cert_der_);
  }
  return build_opn(channel_id_, sec, SequenceHeader{seq_++, parsed.seq.request_id}, packed, rng_);
}

Bytes ServerConnection::secure_response(std::span<const std::uint8_t> packed) {
  return build_msg("MSG", channel_id_, token_id_, SequenceHeader{seq_++, last_request_id_}, packed,
                   channel_policy_, channel_mode_, server_keys_);
}

Bytes ServerConnection::handle_msg(std::span<const std::uint8_t> wire) {
  if (!channel_open_) {
    return error_frame(StatusCode::BadSecureChannelIdInvalid, "no open channel");
  }
  MsgParsed parsed = parse_msg(wire, channel_policy_, channel_mode_, client_keys_);
  if (parsed.channel_id != channel_id_) {
    return error_frame(StatusCode::BadSecureChannelIdInvalid, "bad channel id");
  }
  last_request_id_ = parsed.seq.request_id;
  return dispatch_service(parsed.body);
}

Bytes ServerConnection::fault(StatusCode code, std::uint32_t request_handle) {
  ServiceFault f;
  f.header.request_handle = request_handle;
  f.header.service_result = code;
  return secure_response(pack_service(f));
}

Bytes ServerConnection::dispatch_service(std::span<const std::uint8_t> body) {
  const std::uint32_t type_id = peek_type_id(body);
  switch (type_id) {
    case type_ids::kGetEndpointsRequest:
      return handle_get_endpoints(unpack_service<GetEndpointsRequest>(body));
    case type_ids::kFindServersRequest:
      return handle_find_servers(unpack_service<FindServersRequest>(body));
    case type_ids::kCreateSessionRequest:
      return handle_create_session(unpack_service<CreateSessionRequest>(body));
    case type_ids::kActivateSessionRequest:
      return handle_activate_session(unpack_service<ActivateSessionRequest>(body));
    case type_ids::kCloseSessionRequest:
      return handle_close_session(unpack_service<CloseSessionRequest>(body));
    case type_ids::kBrowseRequest: return handle_browse(unpack_service<BrowseRequest>(body));
    case type_ids::kBrowseNextRequest:
      return handle_browse_next(unpack_service<BrowseNextRequest>(body));
    case type_ids::kReadRequest: return handle_read(unpack_service<ReadRequest>(body));
    case type_ids::kWriteRequest: return handle_write(unpack_service<WriteRequest>(body));
    case type_ids::kCallRequest: return handle_call(unpack_service<CallRequest>(body));
    default: {
      UaReader r(body);
      r.node_id();
      return fault(StatusCode::BadServiceUnsupported, 0);
    }
  }
}

Bytes ServerConnection::handle_get_endpoints(const GetEndpointsRequest& req) {
  GetEndpointsResponse resp;
  resp.header.request_handle = req.header.request_handle;
  resp.endpoints = server_.endpoint_descriptions();
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_find_servers(const FindServersRequest& req) {
  FindServersResponse resp;
  resp.header.request_handle = req.header.request_handle;
  resp.servers.push_back(server_.application_description());
  for (const auto& known : server_.config_.known_servers) resp.servers.push_back(known);
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_create_session(const CreateSessionRequest& req) {
  if (channel_endpoint_ < 0 && channel_policy_ == SecurityPolicy::None) {
    // Discovery-only channel: sessions need an endpoint configured for
    // (None, None); otherwise the server only serves GetEndpoints here.
    bool has_none_endpoint = false;
    for (const auto& ep : server_.config_.endpoints) {
      if (ep.policy == SecurityPolicy::None) has_none_endpoint = true;
    }
    if (!has_none_endpoint) {
      return fault(StatusCode::BadSecurityPolicyRejected, req.header.request_handle);
    }
    channel_endpoint_ = 0;
    for (std::size_t i = 0; i < server_.config_.endpoints.size(); ++i) {
      if (server_.config_.endpoints[i].policy == SecurityPolicy::None) {
        channel_endpoint_ = static_cast<int>(i);
        break;
      }
    }
  }
  if (server_.config_.reject_all_sessions) {
    return fault(StatusCode::BadInternalError, req.header.request_handle);
  }

  session_created_ = true;
  session_activated_ = false;
  session_auth_token_ = NodeId(1, 0x53000000u + server_.next_session_id_);
  const NodeId session_id = NodeId(1, server_.next_session_id_++);

  CreateSessionResponse resp;
  resp.header.request_handle = req.header.request_handle;
  resp.session_id = session_id;
  resp.authentication_token = session_auth_token_;
  resp.server_nonce = rng_.bytes(32);
  resp.server_endpoints = server_.endpoint_descriptions();

  const auto& ep = server_.config_.endpoints[static_cast<std::size_t>(channel_endpoint_)];
  if (ep.certificate_index >= 0 &&
      static_cast<std::size_t>(ep.certificate_index) < server_.config_.certificates.size()) {
    resp.server_certificate =
        server_.config_.certificates[static_cast<std::size_t>(ep.certificate_index)];
    if (channel_policy_ != SecurityPolicy::None && !req.client_certificate.empty()) {
      // Proof of private-key possession: sign clientCert || clientNonce.
      Bytes to_sign = req.client_certificate;
      to_sign.insert(to_sign.end(), req.client_nonce.begin(), req.client_nonce.end());
      const auto& key =
          server_.config_.private_keys[static_cast<std::size_t>(ep.certificate_index)];
      const AsymmetricSigner signer = asymmetric_signer(channel_policy_);
      resp.server_signature.algorithm = std::string(signer.algorithm_uri);
      resp.server_signature.signature = signer.sign(key, to_sign, rng_);
    }
  }
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_activate_session(const ActivateSessionRequest& req) {
  if (!session_created_ || req.header.authentication_token != session_auth_token_) {
    return fault(StatusCode::BadSessionIdInvalid, req.header.request_handle);
  }
  const auto& ep = server_.config_.endpoints[static_cast<std::size_t>(
      channel_endpoint_ < 0 ? 0 : channel_endpoint_)];
  const UserTokenType kind = req.user_identity_token.kind;
  bool offered = false;
  for (UserTokenType t : ep.token_types) {
    if (t == kind) offered = true;
  }
  if (!offered) {
    return fault(StatusCode::BadIdentityTokenRejected, req.header.request_handle);
  }
  switch (kind) {
    case UserTokenType::Anonymous:
      if (server_.config_.reject_anonymous_sessions) {
        return fault(StatusCode::BadIdentityTokenRejected, req.header.request_handle);
      }
      break;
    case UserTokenType::UserName: {
      bool ok = false;
      for (const auto& cred : server_.config_.users) {
        if (cred.user == req.user_identity_token.user_name &&
            to_bytes(cred.password) == req.user_identity_token.password) {
          ok = true;
        }
      }
      if (!ok) return fault(StatusCode::BadUserAccessDenied, req.header.request_handle);
      break;
    }
    case UserTokenType::Certificate:
    case UserTokenType::IssuedToken:
      // The study's scanner never authenticates with these; reject like a
      // server with an empty trust list would.
      return fault(StatusCode::BadIdentityTokenRejected, req.header.request_handle);
  }
  session_activated_ = true;
  ActivateSessionResponse resp;
  resp.header.request_handle = req.header.request_handle;
  resp.server_nonce = rng_.bytes(32);
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_close_session(const CloseSessionRequest& req) {
  session_created_ = false;
  session_activated_ = false;
  CloseSessionResponse resp;
  resp.header.request_handle = req.header.request_handle;
  return secure_response(pack_service(resp));
}

BrowseResult ServerConnection::browse_one(const BrowseDescription& desc, std::uint32_t max_refs) {
  BrowseResult result;
  const AddressSpace& space = *server_.config_.address_space;
  if (space.find(desc.node_id) == nullptr) {
    result.status = StatusCode::BadNodeIdUnknown;
    return result;
  }
  std::vector<ReferenceDescription> refs;
  for (const Reference& ref : space.references_of(desc.node_id)) {
    if (desc.direction == BrowseDirection::Forward && !ref.forward) continue;
    const Node* target = space.find(ref.target);
    if (target == nullptr) continue;
    if (desc.node_class_mask != 0 &&
        (desc.node_class_mask & static_cast<std::uint32_t>(target->node_class)) == 0) {
      continue;
    }
    ReferenceDescription rd;
    rd.reference_type_id = ref.reference_type;
    rd.is_forward = ref.forward;
    rd.node_id = target->id;
    rd.browse_name = target->browse_name;
    rd.display_name = target->display_name;
    rd.node_class = target->node_class;
    refs.push_back(std::move(rd));
  }
  if (max_refs != 0 && refs.size() > max_refs) {
    std::vector<ReferenceDescription> rest(refs.begin() + max_refs, refs.end());
    refs.resize(max_refs);
    const std::uint32_t cp_id = next_continuation_++;
    continuations_[cp_id] = std::move(rest);
    UaWriter cp;
    cp.u32(cp_id);
    result.continuation_point = cp.take();
  }
  result.references = std::move(refs);
  return result;
}

Bytes ServerConnection::handle_browse(const BrowseRequest& req) {
  if (!session_activated_) {
    return fault(StatusCode::BadSessionNotActivated, req.header.request_handle);
  }
  BrowseResponse resp;
  resp.header.request_handle = req.header.request_handle;
  if (req.nodes_to_browse.empty()) {
    resp.header.service_result = StatusCode::BadNothingToDo;
  }
  for (const auto& desc : req.nodes_to_browse) {
    resp.results.push_back(browse_one(desc, req.requested_max_references_per_node));
  }
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_browse_next(const BrowseNextRequest& req) {
  if (!session_activated_) {
    return fault(StatusCode::BadSessionNotActivated, req.header.request_handle);
  }
  BrowseNextResponse resp;
  resp.header.request_handle = req.header.request_handle;
  for (const Bytes& cp : req.continuation_points) {
    BrowseResult result;
    if (cp.size() != 4) {
      result.status = StatusCode::BadContinuationPointInvalid;
      resp.results.push_back(std::move(result));
      continue;
    }
    UaReader r(cp);
    const std::uint32_t cp_id = r.u32();
    const auto it = continuations_.find(cp_id);
    if (it == continuations_.end()) {
      result.status = StatusCode::BadContinuationPointInvalid;
    } else if (req.release_continuation_points) {
      continuations_.erase(it);
    } else {
      result.references = std::move(it->second);
      continuations_.erase(it);
    }
    resp.results.push_back(std::move(result));
  }
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_read(const ReadRequest& req) {
  if (!session_activated_) {
    return fault(StatusCode::BadSessionNotActivated, req.header.request_handle);
  }
  ReadResponse resp;
  resp.header.request_handle = req.header.request_handle;
  for (const auto& rv : req.nodes_to_read) {
    resp.results.push_back(server_.config_.address_space->read_attribute(rv.node_id, rv.attribute_id));
  }
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_write(const WriteRequest& req) {
  if (!session_activated_) {
    return fault(StatusCode::BadSessionNotActivated, req.header.request_handle);
  }
  WriteResponse resp;
  resp.header.request_handle = req.header.request_handle;
  AddressSpace& space = *server_.config_.address_space;
  for (const auto& wv : req.nodes_to_write) {
    Node* node = space.find_mutable(wv.node_id);
    if (node == nullptr) {
      resp.results.push_back(StatusCode::BadNodeIdUnknown);
    } else if (wv.attribute_id != AttributeId::Value || node->node_class != NodeClass::Variable) {
      resp.results.push_back(StatusCode::BadAttributeIdInvalid);
    } else if ((node->user_access_level & access_level::kCurrentWrite) == 0) {
      // The anonymous user's rights gate the write — the capability the
      // paper measures via UserAccessLevel but never exercises.
      resp.results.push_back(StatusCode::BadNotWritable);
    } else {
      node->value = wv.value.value;
      resp.results.push_back(StatusCode::Good);
    }
  }
  return secure_response(pack_service(resp));
}

Bytes ServerConnection::handle_call(const CallRequest& req) {
  if (!session_activated_) {
    return fault(StatusCode::BadSessionNotActivated, req.header.request_handle);
  }
  CallResponse resp;
  resp.header.request_handle = req.header.request_handle;
  const AddressSpace& space = *server_.config_.address_space;
  for (const auto& call : req.methods_to_call) {
    CallMethodResult result;
    const Node* method = space.find(call.method_id);
    if (method == nullptr) {
      result.status = StatusCode::BadNodeIdUnknown;
    } else if (method->node_class != NodeClass::Method) {
      result.status = StatusCode::BadAttributeIdInvalid;
    } else if (!method->user_executable) {
      result.status = StatusCode::BadNotExecutable;
    } else {
      // Simulated execution: echo the inputs (enough to observe success).
      result.output_arguments = call.input_arguments;
    }
    resp.results.push_back(std::move(result));
  }
  return secure_response(pack_service(resp));
}

}  // namespace opcua_study
