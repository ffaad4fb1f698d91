#include "analysis/figures.hpp"

#include <algorithm>

namespace opcua_study {

std::string manufacturer_cluster(const std::string& application_uri) {
  struct Pattern {
    const char* needle;
    const char* cluster;
  };
  static const Pattern kPatterns[] = {
      {"urn:bachmann:", "Bachmann"},
      {"urn:beckhoff:", "Beckhoff"},
      {"urn:wago:", "Wago"},
      {"urn:siemens:", "Siemens"},
      {"urn:br-automation:", "B&R"},
      {"urn:unifiedautomation:", "Unified Automation"},
      {"urn:open62541", "open62541"},
      {"urn:freeopcua:", "FreeOpcUa"},
      {"urn:energotec:", "EnergoTec"},
      {"urn:opcfoundation:ua:lds", "OPC Foundation"},
  };
  for (const auto& pattern : kPatterns) {
    if (application_uri.rfind(pattern.needle, 0) == 0) return pattern.cluster;
  }
  return "other";
}

// ------------------------------------------------------- Fig 6 / Table 2 --

SystemClass classify_namespaces(const std::vector<std::string>& namespaces) {
  static const char* kProductionHints[] = {"IEC61131", "PLCopen", "plant",   "parking",
                                           "sewerage", "simatic", "factory", "scada"};
  static const char* kTestHints[] = {"example", "tutorial", "freeopcua.github.io"};
  bool production = false, test = false;
  for (const auto& ns : namespaces) {
    for (const char* hint : kTestHints) {
      if (ns.find(hint) != std::string::npos) test = true;
    }
    for (const char* hint : kProductionHints) {
      if (ns.find(hint) != std::string::npos) production = true;
    }
  }
  if (production) return SystemClass::production;
  if (test) return SystemClass::test;
  return SystemClass::unclassified;
}

// ----------------------------------------------------------------- Fig 7 --

double AccessRightsStats::hosts_above(const std::vector<double>& fractions, double threshold) {
  if (fractions.empty()) return 0;
  const auto count = std::count_if(fractions.begin(), fractions.end(),
                                   [threshold](double f) { return f > threshold; });
  return static_cast<double>(count) / static_cast<double>(fractions.size());
}

std::vector<std::pair<double, double>> AccessRightsStats::survival_curve(
    std::vector<double> fractions) {
  std::vector<std::pair<double, double>> curve;
  if (fractions.empty()) return curve;
  std::sort(fractions.begin(), fractions.end());
  const double n = static_cast<double>(fractions.size());
  for (double hosts_frac = 0.1; hosts_frac <= 1.0001; hosts_frac += 0.05) {
    // Fraction of nodes that the top `hosts_frac` of hosts can access.
    const std::size_t idx =
        fractions.size() - std::min<std::size_t>(fractions.size(),
                                                 static_cast<std::size_t>(hosts_frac * n + 0.5));
    const std::size_t clamped = std::min(idx, fractions.size() - 1);
    curve.emplace_back(hosts_frac, fractions[clamped]);
  }
  return curve;
}

}  // namespace opcua_study
