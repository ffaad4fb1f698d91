// OPC UA server: endpoint advertisement, secure channels, sessions,
// address-space services.
//
// Every Internet-facing deployment of the simulated population is an
// instance of this class, configured by the population generator with the
// security posture the paper observed in the wild: endpoint mode/policy
// sets, identity-token offerings, certificate(s), client-certificate trust
// behaviour, and session-rejection quirks.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "crypto/rsa.hpp"
#include "opcua/addressspace.hpp"
#include "opcua/messages.hpp"
#include "opcua/secureconv.hpp"

namespace opcua_study {

struct EndpointConfig {
  std::string url;  // opc.tcp://host:port/
  MessageSecurityMode mode = MessageSecurityMode::None;
  SecurityPolicy policy = SecurityPolicy::None;
  std::vector<UserTokenType> token_types = {UserTokenType::Anonymous};
  /// Index into ServerConfig::certificates; -1 = endpoint sends no cert
  /// (seen in the wild on None endpoints).
  int certificate_index = 0;
};

struct ServerIdentity {
  std::string application_uri;
  std::string product_uri;
  std::string application_name;
  ApplicationType application_type = ApplicationType::Server;
  std::string software_version = "1.0.0";
};

struct ServerCredential {
  std::string user;
  std::string password;
};

struct ServerConfig {
  ServerIdentity identity;
  std::vector<EndpointConfig> endpoints;
  /// Certificates (DER) with their private keys, referenced by endpoints.
  std::vector<Bytes> certificates;
  std::vector<RsaPrivateKey> private_keys;
  /// false → validate client certificates against a (empty) trust list and
  /// reject self-signed scanner certs: the paper's 80 "certificate not
  /// accepted" hosts.
  bool trust_all_client_certs = true;
  /// Reject ActivateSession with anonymous tokens even when advertised
  /// (paper: "faulty or incomplete endpoint configuration").
  bool reject_anonymous_sessions = false;
  /// Reject CreateSession outright (incomplete configuration).
  bool reject_all_sessions = false;
  std::vector<ServerCredential> users;
  /// Discovery servers: endpoints of *other* hosts announced here.
  std::vector<EndpointDescription> foreign_endpoints;
  std::vector<ApplicationDescription> known_servers;
  std::shared_ptr<AddressSpace> address_space;
};

class ServerConnection;

class Server {
 public:
  Server(ServerConfig config, std::uint64_t seed);

  const ServerConfig& config() const { return config_; }
  ApplicationDescription application_description() const;
  std::vector<EndpointDescription> endpoint_descriptions() const;

  std::unique_ptr<ServerConnection> accept();

 private:
  friend class ServerConnection;
  ServerConfig config_;
  std::uint64_t seed_;
  std::uint32_t next_channel_id_ = 1;
  std::uint32_t next_session_id_ = 1;
};

/// One TCP connection: lock-step frame in → frame out. An empty response
/// means the connection is closed (after CLO, or transport-fatal errors).
class ServerConnection {
 public:
  ServerConnection(Server& server, Rng rng);

  Bytes on_frame(std::span<const std::uint8_t> frame);
  bool closed() const { return closed_; }

 private:
  Bytes handle_hello(const Frame& frame);
  Bytes handle_opn(std::span<const std::uint8_t> wire);
  Bytes handle_msg(std::span<const std::uint8_t> wire);
  Bytes dispatch_service(std::span<const std::uint8_t> body);
  Bytes secure_response(std::span<const std::uint8_t> packed);
  Bytes error_frame(StatusCode code, const std::string& reason);
  Bytes fault(StatusCode code, std::uint32_t request_handle);

  Bytes handle_get_endpoints(const GetEndpointsRequest& req);
  Bytes handle_find_servers(const FindServersRequest& req);
  Bytes handle_create_session(const CreateSessionRequest& req);
  Bytes handle_activate_session(const ActivateSessionRequest& req);
  Bytes handle_close_session(const CloseSessionRequest& req);
  Bytes handle_browse(const BrowseRequest& req);
  Bytes handle_browse_next(const BrowseNextRequest& req);
  Bytes handle_read(const ReadRequest& req);
  Bytes handle_write(const WriteRequest& req);
  Bytes handle_call(const CallRequest& req);

  BrowseResult browse_one(const BrowseDescription& desc, std::uint32_t max_refs);

  Server& server_;
  Rng rng_;
  bool hello_done_ = false;
  bool closed_ = false;

  // Secure-channel state.
  bool channel_open_ = false;
  std::uint32_t channel_id_ = 0;
  std::uint32_t token_id_ = 0;
  SecurityPolicy channel_policy_ = SecurityPolicy::None;
  MessageSecurityMode channel_mode_ = MessageSecurityMode::None;
  int channel_endpoint_ = -1;  // index into config endpoints (-1 = discovery/None)
  Bytes client_cert_der_;
  std::optional<RsaPublicKey> client_public_key_;
  DerivedKeys client_keys_;  // client → server direction
  DerivedKeys server_keys_;  // server → client direction
  std::uint32_t seq_ = 1;
  std::uint32_t last_request_id_ = 0;

  // Session state.
  bool session_created_ = false;
  bool session_activated_ = false;
  NodeId session_auth_token_;

  // Browse continuation points.
  std::map<std::uint32_t, std::vector<ReferenceDescription>> continuations_;
  std::uint32_t next_continuation_ = 1;
};

}  // namespace opcua_study
