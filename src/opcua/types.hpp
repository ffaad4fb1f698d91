// OPC UA built-in types (OPC 10000-6 §5.1) — the subset the study needs.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "opcua/status.hpp"
#include "util/bytes.hpp"

namespace opcua_study {

/// NodeId: namespace index + numeric or string identifier.
struct NodeId {
  std::uint16_t namespace_index = 0;
  std::variant<std::uint32_t, std::string> identifier = std::uint32_t{0};

  NodeId() = default;
  NodeId(std::uint16_t ns, std::uint32_t numeric) : namespace_index(ns), identifier(numeric) {}
  NodeId(std::uint16_t ns, std::string name) : namespace_index(ns), identifier(std::move(name)) {}

  bool is_numeric() const { return std::holds_alternative<std::uint32_t>(identifier); }
  std::uint32_t numeric() const { return std::get<std::uint32_t>(identifier); }
  const std::string& text() const { return std::get<std::string>(identifier); }

  std::string to_string() const;

  friend bool operator==(const NodeId&, const NodeId&) = default;
  friend auto operator<=>(const NodeId& a, const NodeId& b) {
    if (auto c = a.namespace_index <=> b.namespace_index; c != 0) return c;
    return a.identifier <=> b.identifier;
  }
};

struct QualifiedName {
  std::uint16_t namespace_index = 0;
  std::string name;
  friend bool operator==(const QualifiedName&, const QualifiedName&) = default;
};

struct LocalizedText {
  std::string locale;
  std::string text;
  friend bool operator==(const LocalizedText&, const LocalizedText&) = default;
};

/// Variant: scalar or string-array payload (the address spaces of the study
/// carry sensor values, strings, timestamps and the NamespaceArray).
struct Variant {
  using Storage = std::variant<std::monostate, bool, std::int32_t, std::uint32_t, std::int64_t,
                               double, std::string, Bytes, std::vector<std::string>>;
  Storage value;

  Variant() = default;
  Variant(bool v) : value(v) {}                         // NOLINT(google-explicit-constructor)
  Variant(std::int32_t v) : value(v) {}                 // NOLINT(google-explicit-constructor)
  Variant(std::uint32_t v) : value(v) {}                // NOLINT(google-explicit-constructor)
  Variant(std::int64_t v) : value(v) {}                 // NOLINT(google-explicit-constructor)
  Variant(double v) : value(v) {}                       // NOLINT(google-explicit-constructor)
  Variant(std::string v) : value(std::move(v)) {}       // NOLINT(google-explicit-constructor)
  Variant(const char* v) : value(std::string(v)) {}     // NOLINT(google-explicit-constructor)
  Variant(Bytes v) : value(std::move(v)) {}             // NOLINT(google-explicit-constructor)
  Variant(std::vector<std::string> v) : value(std::move(v)) {}  // NOLINT

  bool empty() const { return std::holds_alternative<std::monostate>(value); }
  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(value);
  }
  template <typename T>
  const T& as() const {
    return std::get<T>(value);
  }
  std::string to_display_string() const;

  friend bool operator==(const Variant&, const Variant&) = default;
};

struct DataValue {
  Variant value;
  StatusCode status = StatusCode::Good;
  std::int64_t source_timestamp = 0;  // FILETIME ticks

  friend bool operator==(const DataValue&, const DataValue&) = default;
};

/// Well-known ns=0 node ids used by the stack (OPC 10000-5 subset).
namespace node_ids {
inline const NodeId kRootFolder{0, 84};
inline const NodeId kObjectsFolder{0, 85};
inline const NodeId kServer{0, 2253};
inline const NodeId kNamespaceArray{0, 2255};
inline const NodeId kServerArray{0, 2254};
inline const NodeId kServerStatus{0, 2256};
inline const NodeId kSoftwareVersion{0, 2264};
inline const NodeId kBuildInfo{0, 2260};
// Reference types.
inline const NodeId kOrganizes{0, 35};
inline const NodeId kHasComponent{0, 47};
inline const NodeId kHierarchicalReferences{0, 33};
}  // namespace node_ids

enum class NodeClass : std::uint32_t {
  Unspecified = 0,
  Object = 1,
  Variable = 2,
  Method = 4,
};

/// AccessLevel bit masks (OPC 10000-3 §8.57).
namespace access_level {
inline constexpr std::uint8_t kCurrentRead = 0x01;
inline constexpr std::uint8_t kCurrentWrite = 0x02;
}  // namespace access_level

/// Attribute ids (OPC 10000-4 §5.10, subset).
enum class AttributeId : std::uint32_t {
  NodeId = 1,
  NodeClass = 2,
  BrowseName = 3,
  DisplayName = 4,
  Value = 13,
  AccessLevel = 17,
  UserAccessLevel = 18,
  Executable = 21,
  UserExecutable = 22,
};

}  // namespace opcua_study
