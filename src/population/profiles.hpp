// Manufacturer / namespace / node-name pools for the synthetic population.
//
// Manufacturer names are the clusters the paper reports (Fig. 2: Bachmann,
// Beckhoff, Wago, OPC Foundation discovery servers, "other"); the
// fictitious ones fill the paper's anonymized roles (the all-None vendor of
// §B.1.1, the energy/parking operators of §5.3/§5.4).
#pragma once

#include <string>
#include <vector>

namespace opcua_study {

namespace profiles {

// Application-URI prefixes per manufacturer cluster: the analysis clusters
// hosts the way the paper "manually clustered the values of the
// ApplicationURI field".
struct ManufacturerProfile {
  std::string name;
  std::string uri_prefix;
  std::string product_uri;
};

inline const std::vector<ManufacturerProfile>& manufacturers() {
  static const std::vector<ManufacturerProfile> kProfiles = {
      {"Bachmann", "urn:bachmann:m1com:", "http://bachmann.info/M1"},
      {"Beckhoff", "urn:beckhoff:TwinCAT:", "http://beckhoff.com/TwinCAT"},
      {"Wago", "urn:wago:codesys:", "http://wago.com/e!COCKPIT"},
      {"Siemens", "urn:siemens:s7:", "http://siemens.com/simatic"},
      {"B&R", "urn:br-automation:pvi:", "http://br-automation.com/APROL"},
      {"Unified Automation", "urn:unifiedautomation:uaserver:", "http://unifiedautomation.com"},
      {"open62541", "urn:open62541.server.application:", "http://open62541.org"},
      {"FreeOpcUa", "urn:freeopcua:python:", "http://freeopcua.github.io"},
      {"EnergoTec", "urn:energotec:gateway:", "http://energotec.example/iotgw"},
      {"OPC Foundation", "urn:opcfoundation:ua:lds:", "http://opcfoundation.org/UA/LDS"},
      {"other", "urn:generic:opcua:", "http://example.org/opcua"},
  };
  return kProfiles;
}

inline const ManufacturerProfile& manufacturer(const std::string& name) {
  for (const auto& m : manufacturers()) {
    if (m.name == name) return m;
  }
  return manufacturers().back();
}

// Namespace URIs driving the §5.4 production/test classification.
inline const std::vector<std::string>& production_namespaces() {
  static const std::vector<std::string> kNs = {
      "http://PLCopen.org/OpcUa/IEC61131-3/",
      "urn:plant:energy:substation",
      "urn:parking:guidance:lot",
      "urn:water:sewerage:scada",
      "http://siemens.com/simatic-s7-opcua",
      "urn:factory:line:press",
  };
  return kNs;
}

inline const std::vector<std::string>& test_namespaces() {
  static const std::vector<std::string> kNs = {
      "http://examples.freeopcua.github.io",
      "urn:freeopcua:python:server:example",
      "urn:open62541:tutorial:server",
  };
  return kNs;
}

// Node-name pools (the paper quotes m3InflowPerHour, rSetFillLevel and the
// AddEndpoint function; parking systems exposed license-plate data).
inline const std::vector<std::string>& variable_names() {
  static const std::vector<std::string> kNames = {
      "m3InflowPerHour", "rSetFillLevel",   "rTankLevel",      "iPumpState",
      "rFlowSetpoint",   "LicensePlateCam1", "FreeParkingLots", "rBoilerTemp",
      "iValvePosition",  "rPressureBar",     "EnergyMeter_kWh", "iBatchCounter",
      "bDoorOpen",       "rConveyorSpeed",   "iAlarmCode",      "sRecipeName",
  };
  return kNames;
}

// Broker banners / announced topic prefixes for the MQTT-over-TLS family
// (the second protocol backend, scanner/protocol.hpp). Versions mirror the
// broker mix TLS/MQTT scans report in the wild.
inline const std::vector<std::string>& mqtt_software_versions() {
  static const std::vector<std::string> kVersions = {
      "mosquitto/1.6.9", "mosquitto/2.0.11", "emqx/4.2.3", "HiveMQ/4.5.1", "VerneMQ/1.11.0",
  };
  return kVersions;
}

inline const std::vector<std::string>& mqtt_topic_prefixes() {
  static const std::vector<std::string> kTopics = {
      "factory/line1/", "energy/meters/", "parking/lots/", "water/pumps/", "building/hvac/",
  };
  return kTopics;
}

inline const std::vector<std::string>& method_names() {
  static const std::vector<std::string> kNames = {
      "AddEndpoint", "Start",         "Stop",        "ResetCounters",
      "AckAlarm",    "ReloadConfig",  "SetSetpoint", "UpdateFirmware",
  };
  return kNames;
}

}  // namespace profiles

}  // namespace opcua_study
