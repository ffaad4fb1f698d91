// One wire layout per OPC UA structure (OPC 10000-6 §5.2).
//
// Each structure lists its fields once, in wire order, as a function
//
//   void fields(auto& io, Visited<T> auto& m) { io.u32(m.x); ... }
//
// in namespace opcua_study, next to its entry points. WireEncoder walks the
// list over a const message into a UaWriter; WireDecoder walks it over a
// UaReader into a fresh message, so an encoder and its decoder cannot
// drift apart. Both dispatch statically: every call below inlines.
//
// Fields the project carries but does not interpret are named once too:
// each encodes the fixed value the stack sends and decodes by consuming
// the whole field a peer may send in its place (a String array, a
// StatusCode or DiagnosticInfo array, ...), so the fields after it stay
// aligned.
#pragma once

#include <concepts>
#include <type_traits>

#include "opcua/encoding.hpp"

namespace opcua_study {

/// `M` is `T` as the encoder sees it (`const T`) or the decoder fills it.
template <typename M, typename T>
concept Visited = std::same_as<std::remove_const_t<M>, T>;

/// The values an enum field may take (bit v set for value v < 32) and the
/// name a DecodeError gives the field.
struct EnumValues {
  const char* field;
  std::uint32_t defined;
};

class WireEncoder {
 public:
  explicit WireEncoder(UaWriter& w) : w_(w) {}

  void boolean(bool v) { w_.boolean(v); }
  void byte(std::uint8_t v) { w_.byte(v); }
  void u32(std::uint32_t v) { w_.u32(v); }
  void f64(double v) { w_.f64(v); }
  void status(StatusCode v) { w_.status(v); }
  void datetime(std::int64_t v) { w_.datetime(v); }
  template <typename E>
  void enumeration(E v, const EnumValues* = nullptr) { w_.u32(static_cast<std::uint32_t>(v)); }
  void string(const std::string& v) { w_.string(v); }
  void byte_string(const Bytes& v) { w_.byte_string(v); }
  /// A String / ByteString sent as null when empty.
  void nullable_string(const std::string& v) { v.empty() ? w_.null_string() : w_.string(v); }
  void nullable_byte_string(const Bytes& v) {
    v.empty() ? w_.null_byte_string() : w_.byte_string(v);
  }
  void node_id(const NodeId& v) { w_.node_id(v); }
  void expanded_node_id(const NodeId& v) { w_.expanded_node_id(v); }
  void qualified_name(const QualifiedName& v) { w_.qualified_name(v); }
  void localized_text(const LocalizedText& v) { w_.localized_text(v); }
  void data_value(const DataValue& v) { w_.data_value(v); }
  void string_array(const std::vector<std::string>& v) { w_.string_array(v); }
  template <typename T>
  void array(const std::vector<T>& v) {
    w_.array(v, [this](UaWriter&, const T& item) { element(item); });
  }
  /// A nested structure with a field list.
  template <typename T>
  void structure(const T& m) { fields(*this, m); }
  /// A nested structure with a hand-written encode/decode pair.
  template <typename T>
  void coded(const T& m) { m.encode(w_); }

  // Carried, not interpreted: each writes what the stack sends, and the
  // decoder consumes what the comment says.
  void null_string() { w_.null_string(); }               // a String
  void zero_u32() { w_.u32(0); }                         // a UInt32
  void null_diagnostic() { w_.byte(0x00); }              // a DiagnosticInfo
  void null_status_array() { w_.i32(-1); }               // a StatusCode array
  void null_diagnostic_array() { w_.i32(-1); }           // a DiagnosticInfo array
  void null_string_array() { w_.i32(-1); }               // a String array
  void no_software_certificates() { w_.i32(-1); }        // a length, which must be <= 0
  void null_qualified_name() { w_.qualified_name({}); }  // a QualifiedName
  /// ExtensionObject with a null type id and no body; decodes any body.
  void null_extension() {
    w_.node_id(NodeId(0, 0));
    w_.byte(0x00);
  }
  /// A structure sent as `sent`; decodes one and drops it.
  template <typename T>
  void ignored_structure(const T& sent) { structure(sent); }

 private:
  void element(const Bytes& v) { w_.byte_string(v); }
  void element(StatusCode v) { w_.status(v); }
  void element(const Variant& v) { w_.variant(v); }
  void element(const DataValue& v) { w_.data_value(v); }
  template <typename T>
  void element(const T& m) { structure(m); }

  UaWriter& w_;
};

class WireDecoder {
 public:
  explicit WireDecoder(UaReader& r) : r_(r) {}

  void boolean(bool& v) { v = r_.boolean(); }
  void byte(std::uint8_t& v) { v = r_.byte(); }
  void u32(std::uint32_t& v) { v = r_.u32(); }
  void f64(double& v) { v = r_.f64(); }
  void status(StatusCode& v) { v = r_.status(); }
  void datetime(std::int64_t& v) { v = r_.datetime(); }
  /// With `values`, a value outside them throws, naming the field and value.
  template <typename E>
  void enumeration(E& v, const EnumValues* values = nullptr) {
    const std::uint32_t raw = r_.u32();
    if (values != nullptr && (raw >= 32 || (values->defined >> raw & 1u) == 0)) {
      throw DecodeError(std::string("invalid ") + values->field + " value " + std::to_string(raw));
    }
    v = static_cast<E>(raw);
  }
  void string(std::string& v) { v = r_.string(); }
  void byte_string(Bytes& v) { v = r_.byte_string(); }
  void nullable_string(std::string& v) { v = r_.string(); }
  void nullable_byte_string(Bytes& v) { v = r_.byte_string(); }
  void node_id(NodeId& v) { v = r_.node_id(); }
  void expanded_node_id(NodeId& v) { v = r_.expanded_node_id(); }
  void qualified_name(QualifiedName& v) { v = r_.qualified_name(); }
  void localized_text(LocalizedText& v) { v = r_.localized_text(); }
  void data_value(DataValue& v) { v = r_.data_value(); }
  void string_array(std::vector<std::string>& v) { v = r_.string_array(); }
  template <typename T>
  void array(std::vector<T>& v) {
    v = r_.array<T>([this](UaReader&) {
      T item;
      element(item);
      return item;
    });
  }
  template <typename T>
  void structure(T& m) { fields(*this, m); }
  template <typename T>
  void coded(T& m) { m = T::decode(r_); }

  void null_string() { r_.string(); }
  void zero_u32() { r_.u32(); }
  void null_diagnostic() { skip_diagnostic(); }
  void null_status_array() { r_.array<StatusCode>([](UaReader& r) { return r.status(); }); }
  void null_diagnostic_array() {
    r_.array<int>([this](UaReader&) { skip_diagnostic(); return 0; });
  }
  void null_string_array() { r_.string_array(); }
  void no_software_certificates() {
    if (r_.i32() > 0) throw DecodeError("software certificates unsupported");
  }
  void null_qualified_name() { r_.qualified_name(); }
  void null_extension() {
    r_.node_id();
    if ((r_.byte() & 0x01) == 0) return;
    const std::int32_t len = r_.i32();
    if (len > 0) r_.base().skip(static_cast<std::size_t>(len));
  }
  template <typename T>
  void ignored_structure(const T&) {
    T ignored;
    structure(ignored);
  }

 private:
  void element(Bytes& v) { v = r_.byte_string(); }
  void element(StatusCode& v) { v = r_.status(); }
  void element(Variant& v) { v = r_.variant(); }
  void element(DataValue& v) { v = r_.data_value(); }
  template <typename T>
  void element(T& m) { structure(m); }

  /// A DiagnosticInfo: its mask byte and the fields the mask flags (four
  /// Int32s, additionalInfo, innerStatusCode, then innerDiagnosticInfo).
  /// The inner one is the last field, so a loop walks the nesting and
  /// hostile input has no stack depth to exhaust.
  void skip_diagnostic() {
    for (std::uint8_t mask = r_.byte();; mask = r_.byte()) {
      for (unsigned bit = 0; bit < 4; ++bit) {
        if ((mask >> bit & 1u) != 0) r_.i32();
      }
      if ((mask & 0x10) != 0) r_.string();
      if ((mask & 0x20) != 0) r_.status();
      if ((mask & 0x40) == 0) return;
    }
  }

  UaReader& r_;
};

}  // namespace opcua_study
