// OPC UA address space: nodes, references, namespaces, access levels.
//
// §5.4 of the paper traverses the address spaces of anonymously accessible
// servers, reads every node's user access rights, and classifies systems as
// production/test via the NamespaceArray. This model carries exactly the
// attributes that analysis needs.
#pragma once

#include <map>
#include <vector>

#include "opcua/types.hpp"

namespace opcua_study {

struct Node {
  NodeId id;
  NodeClass node_class = NodeClass::Object;
  QualifiedName browse_name;
  LocalizedText display_name;
  Variant value;
  /// What the server would allow any user (maximum rights).
  std::uint8_t access_level = access_level::kCurrentRead;
  /// What the *anonymous* user gets — the paper's Fig. 7 dimension.
  std::uint8_t user_access_level = access_level::kCurrentRead;
  bool executable = false;
  bool user_executable = false;
};

struct Reference {
  NodeId reference_type = node_ids::kOrganizes;
  NodeId target;
  bool forward = true;
};

class AddressSpace {
 public:
  /// Creates the ns0 skeleton: Root → Objects → Server with NamespaceArray,
  /// ServerArray and ServerStatus/SoftwareVersion.
  AddressSpace();

  /// Register a namespace URI, returning its index.
  std::uint16_t add_namespace(const std::string& uri);
  const std::vector<std::string>& namespaces() const { return namespaces_; }

  Node& add_object(const NodeId& id, const NodeId& parent, const std::string& name);
  Node& add_variable(const NodeId& id, const NodeId& parent, const std::string& name,
                     Variant value, std::uint8_t user_access);
  Node& add_method(const NodeId& id, const NodeId& parent, const std::string& name,
                   bool user_executable);

  const Node* find(const NodeId& id) const;
  Node* find_mutable(const NodeId& id);
  const std::vector<Reference>& references_of(const NodeId& id) const;

  /// Attribute read as seen by the anonymous user; NamespaceArray and
  /// SoftwareVersion are materialized on demand.
  DataValue read_attribute(const NodeId& id, AttributeId attribute) const;

  void set_software_version(std::string version) { software_version_ = std::move(version); }
  const std::string& software_version() const { return software_version_; }

  std::size_t count_of_class(NodeClass cls) const;

 private:
  void link(const NodeId& parent, const NodeId& child, const NodeId& ref_type);

  std::map<NodeId, Node> nodes_;
  std::map<NodeId, std::vector<Reference>> references_;
  std::vector<std::string> namespaces_;
  std::string software_version_ = "1.0.0";
};

}  // namespace opcua_study
