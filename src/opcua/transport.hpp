// OPC UA TCP transport framing (OPC 10000-6 §7.1).
//
// Message types: HEL/ACK/ERR during connection setup, OPN for
// OpenSecureChannel, MSG for secured service calls, CLO for channel close.
// The study's scanner talks to every simulated host through exactly these
// frames, on the paper's standard port 4840.
#pragma once

#include <string>

#include "opcua/status.hpp"
#include "util/bytes.hpp"

namespace opcua_study {

inline constexpr std::uint16_t kOpcUaDefaultPort = 4840;
inline constexpr std::uint32_t kTransportProtocolVersion = 0;

struct HelloMessage {
  std::uint32_t protocol_version = kTransportProtocolVersion;
  std::uint32_t receive_buffer_size = 65536;
  std::uint32_t send_buffer_size = 65536;
  std::uint32_t max_message_size = 16 * 1024 * 1024;
  std::uint32_t max_chunk_count = 0;
  std::string endpoint_url;

  Bytes encode() const;
  static HelloMessage decode(std::span<const std::uint8_t> body);
};

struct AcknowledgeMessage {
  std::uint32_t protocol_version = kTransportProtocolVersion;
  std::uint32_t receive_buffer_size = 65536;
  std::uint32_t send_buffer_size = 65536;
  std::uint32_t max_message_size = 16 * 1024 * 1024;
  std::uint32_t max_chunk_count = 0;

  Bytes encode() const;
  static AcknowledgeMessage decode(std::span<const std::uint8_t> body);
};

struct ErrorMessage {
  StatusCode error = StatusCode::BadInternalError;
  std::string reason;

  Bytes encode() const;
  static ErrorMessage decode(std::span<const std::uint8_t> body);
};

/// A complete framed transport message.
struct Frame {
  std::string type;  // "HEL", "ACK", "ERR", "OPN", "MSG", "CLO"
  Bytes body;
};

/// Prepend the 8-byte header (type + 'F' + total size).
Bytes frame_message(std::string_view type, std::span<const std::uint8_t> body);
/// Split a wire message; throws DecodeError on malformed framing.
Frame parse_frame(std::span<const std::uint8_t> wire);

/// Abstract request/response byte transport. UA-TCP on this stack is strictly
/// lock-step (one request frame, one response frame), which keeps the
/// simulated Internet single-threaded and deterministic.
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;
  /// Send one frame, receive one frame.
  virtual Bytes roundtrip(const Bytes& request) = 0;
  /// Send a frame with no expected response (CLO).
  virtual void send_oneway(const Bytes& message) = 0;
};

}  // namespace opcua_study
