// OPC UA client — the scanner's protocol engine (the gopcua/zgrab2
// counterpart of the paper).
//
// Drives one connection through HEL/ACK, OpenSecureChannel (optionally
// with the scanner's self-signed certificate), GetEndpoints/FindServers,
// session establishment and address-space reads. All results are returned
// as status codes + data, never exceptions, because for a scanner every
// failure mode is a *measurement*, not an error.
#pragma once

#include <optional>

#include "crypto/x509.hpp"
#include "opcua/messages.hpp"
#include "opcua/secureconv.hpp"
#include "opcua/transport.hpp"

namespace opcua_study {

struct ClientConfig {
  std::string application_uri = "urn:opcua-study:scanner";
  /// The paper advertises research intent + contact info here (§A.2).
  std::string application_name =
      "OPC UA security study scanner - contact research@example.org";
  Bytes certificate_der;        // self-signed scanner certificate
  std::optional<RsaPrivateKey> private_key;
};

class Client {
 public:
  Client(ClientConfig config, MessageTransport& transport, Rng rng);

  /// HEL → ACK.
  StatusCode hello(const std::string& endpoint_url);

  /// OPN. For policies other than None, `server_cert_der` must hold the
  /// server certificate from an endpoint description and the client must
  /// carry a certificate + key.
  StatusCode open_channel(SecurityPolicy policy, MessageSecurityMode mode,
                          const Bytes& server_cert_der = {});

  StatusCode get_endpoints(const std::string& url, std::vector<EndpointDescription>& out);
  StatusCode find_servers(const std::string& url, std::vector<ApplicationDescription>& out);

  struct SessionInfo {
    Bytes server_certificate;
    /// Verified proof-of-possession signature (CreateSessionResponse).
    bool server_signature_valid = false;
  };
  StatusCode create_session(SessionInfo* info = nullptr);
  StatusCode activate_session_anonymous();
  StatusCode activate_session_username(const std::string& user, const std::string& password);
  StatusCode close_session();

  StatusCode browse(const NodeId& node, std::vector<ReferenceDescription>& out,
                    std::uint32_t max_refs_per_node = 0);
  StatusCode read(const NodeId& node, AttributeId attribute, DataValue& out);
  /// Write a Value attribute (NEVER used by the scanner — §A.1; provided for
  /// operator tooling and attacker-capability demonstrations).
  StatusCode write_value(const NodeId& node, Variant value, StatusCode& node_status);
  /// Call a method with the given inputs.
  StatusCode call_method(const NodeId& object, const NodeId& method,
                         std::vector<Variant> inputs, StatusCode& method_status);
  /// Convenience: read + unwrap a string-array Value (NamespaceArray).
  StatusCode read_string_array(const NodeId& node, std::vector<std::string>& out);

  void close_channel();

  bool channel_open() const { return channel_open_; }
  SecurityPolicy channel_policy() const { return policy_; }
  MessageSecurityMode channel_mode() const { return mode_; }

 private:
  template <typename Request, typename Response>
  StatusCode call(const Request& req, Response& resp);

  ClientConfig config_;
  MessageTransport& transport_;
  Rng rng_;

  bool hello_done_ = false;
  bool channel_open_ = false;
  SecurityPolicy policy_ = SecurityPolicy::None;
  MessageSecurityMode mode_ = MessageSecurityMode::None;
  std::uint32_t channel_id_ = 0;
  std::uint32_t token_id_ = 0;
  std::uint32_t seq_ = 1;
  std::uint32_t request_handle_ = 1;
  DerivedKeys client_keys_;
  DerivedKeys server_keys_;
  NodeId auth_token_;
};

}  // namespace opcua_study
