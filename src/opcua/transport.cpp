#include "opcua/transport.hpp"

#include "opcua/wire.hpp"

namespace opcua_study {

void fields(auto& io, Visited<HelloMessage> auto& m) {
  io.u32(m.protocol_version);
  io.u32(m.receive_buffer_size);
  io.u32(m.send_buffer_size);
  io.u32(m.max_message_size);
  io.u32(m.max_chunk_count);
  io.string(m.endpoint_url);
}

void fields(auto& io, Visited<AcknowledgeMessage> auto& m) {
  io.u32(m.protocol_version);
  io.u32(m.receive_buffer_size);
  io.u32(m.send_buffer_size);
  io.u32(m.max_message_size);
  io.u32(m.max_chunk_count);
}

void fields(auto& io, Visited<ErrorMessage> auto& m) {
  io.status(m.error);
  io.string(m.reason);
}

namespace {
template <typename T>
Bytes encode_body(const T& m) {
  UaWriter w;
  WireEncoder(w).structure(m);
  return w.take();
}
template <typename T>
T decode_body(std::span<const std::uint8_t> body) {
  UaReader r(body);
  T m;
  WireDecoder(r).structure(m);
  return m;
}
}  // namespace

Bytes HelloMessage::encode() const { return encode_body(*this); }
HelloMessage HelloMessage::decode(std::span<const std::uint8_t> body) {
  return decode_body<HelloMessage>(body);
}
Bytes AcknowledgeMessage::encode() const { return encode_body(*this); }
AcknowledgeMessage AcknowledgeMessage::decode(std::span<const std::uint8_t> body) {
  return decode_body<AcknowledgeMessage>(body);
}
Bytes ErrorMessage::encode() const { return encode_body(*this); }
ErrorMessage ErrorMessage::decode(std::span<const std::uint8_t> body) {
  return decode_body<ErrorMessage>(body);
}

Bytes frame_message(std::string_view type, std::span<const std::uint8_t> body) {
  if (type.size() != 3) throw std::invalid_argument("frame type must be 3 chars");
  ByteWriter w;
  w.raw(type);
  w.u8('F');
  w.u32(static_cast<std::uint32_t>(8 + body.size()));
  w.raw(body);
  return w.take();
}

Frame parse_frame(std::span<const std::uint8_t> wire) {
  if (wire.size() < 8) throw DecodeError("frame too short");
  Frame f;
  f.type.assign(wire.begin(), wire.begin() + 3);
  ByteReader r(wire.subspan(4, 4));
  const std::uint32_t size = r.u32();
  if (size != wire.size()) throw DecodeError("frame size mismatch");
  f.body.assign(wire.begin() + 8, wire.end());
  return f;
}

}  // namespace opcua_study
