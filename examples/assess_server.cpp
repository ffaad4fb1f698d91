// Operator tool: point the assessor at a single OPC UA server and get a
// security report — the "assessment tools assist operators" use case the
// paper cites (Roepert et al.). The grab is a one-host Campaign, the same
// sweep → grab path the Internet-wide scan runs, followed by the
// assessment of that host's record.
//
//   ./build/examples/assess_server [none|deprecated|weakcert|good]
#include <cstdio>
#include <cstring>
#include <optional>

#include "analysis/analysis.hpp"
#include "crypto/x509.hpp"
#include "netsim/opcua_service.hpp"
#include "report/report.hpp"
#include "scanner/campaign.hpp"
#include "study/study.hpp"

using namespace opcua_study;

namespace {

ServerConfig make_profile(const std::string& profile, const RsaKeyPair& keys) {
  ServerConfig config;
  config.identity.application_uri = "urn:assess:target";
  config.identity.application_name = "assessment target (" + profile + ")";
  auto space = std::make_shared<AddressSpace>();
  const std::uint16_t ns = space->add_namespace("urn:plant:energy:substation");
  space->add_object(NodeId(ns, 1), node_ids::kObjectsFolder, "Feeder");
  space->add_variable(NodeId(ns, 2), NodeId(ns, 1), "EnergyMeter_kWh", Variant{1234.5},
                      access_level::kCurrentRead | access_level::kCurrentWrite);
  space->add_method(NodeId(ns, 3), NodeId(ns, 1), "AckAlarm", true);
  config.address_space = space;

  HashAlgorithm cert_hash = HashAlgorithm::sha256;
  EndpointConfig ep;
  ep.url = "opc.tcp://10.1.0.1:4840/";
  if (profile == "none") {
    ep.token_types = {UserTokenType::Anonymous};
    config.endpoints.push_back(ep);
  } else if (profile == "deprecated") {
    config.endpoints.push_back(ep);
    ep.mode = MessageSecurityMode::SignAndEncrypt;
    ep.policy = SecurityPolicy::Basic128Rsa15;
    cert_hash = HashAlgorithm::sha1;
    config.endpoints.push_back(ep);
  } else if (profile == "weakcert") {
    ep.mode = MessageSecurityMode::SignAndEncrypt;
    ep.policy = SecurityPolicy::Basic256Sha256;
    ep.token_types = {UserTokenType::UserName};
    cert_hash = HashAlgorithm::sha1;  // strong policy, SHA-1 certificate
    config.endpoints.push_back(ep);
  } else {  // good
    ep.mode = MessageSecurityMode::SignAndEncrypt;
    ep.policy = SecurityPolicy::Basic256Sha256;
    ep.token_types = {UserTokenType::UserName};
    config.endpoints.push_back(ep);
  }
  CertificateSpec spec;
  spec.subject = {"assess-target", "Plant Org", "DE"};
  spec.signature_hash = cert_hash;
  spec.application_uri = config.identity.application_uri;
  spec.not_before_days = days_from_civil({2019, 8, 1});
  spec.not_after_days = days_from_civil({2029, 8, 1});
  config.certificates = {x509_create(spec, keys.pub, keys.priv)};
  config.private_keys = {keys.priv};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string profile = argc > 1 ? argv[1] : "deprecated";
  std::printf("== assessing a single server (profile: %s) ==\n\n", profile.c_str());

  Rng rng(5150);
  const RsaKeyPair server_keys = rsa_generate(rng, 1024, 8);
  Network net;
  const Ipv4 ip = make_ipv4(10, 1, 0, 1);
  net.listen(ip, kOpcUaDefaultPort,
             make_opcua_factory(std::make_shared<Server>(make_profile(profile, server_keys), 1)));

  KeyFactory keys(5150, "");
  CampaignConfig campaign_config;
  campaign_config.grabber.client = make_scanner_identity(5150, keys);
  Campaign campaign(campaign_config, net);
  const ScanSnapshot snapshot = campaign.run(kNumMeasurements - 1);

  // The snapshot keeps only hosts that spoke OPC UA.
  if (snapshot.hosts.empty()) {
    std::puts("target does not speak OPC UA");
    return 1;
  }
  const HostScanRecord& record = snapshot.hosts.front();

  // The same §5.2 classifier the study's analysis runs: the strongest
  // announced policy, and the primary certificate (the first endpoint
  // certificate that parses).
  std::uint8_t policy_mask = 0;
  for (const auto policy : record.advertised_policies()) {
    policy_mask |= 1u << static_cast<int>(policy);
  }
  std::optional<Certificate> cert;
  for (const Bytes& der : record.distinct_certificates()) {
    try {
      cert = x509_parse(der);
      break;
    } catch (const DecodeError&) {
    }
  }
  CertStrength strength;
  if (cert) strength = {true, cert->signature_hash, cert->key_bits()};
  const std::uint8_t deficits =
      classify_deficiencies(policy_mask, cert ? &strength : nullptr, record.anonymous_offered);

  TextTable report;
  report.set_header({"check", "finding", "verdict"});
  const SecurityPolicy max_policy = strongest_policy_in(policy_mask);
  MessageSecurityMode max_mode = MessageSecurityMode::None;
  for (const auto mode : record.advertised_modes()) {
    if (security_mode_rank(mode) > security_mode_rank(max_mode)) max_mode = mode;
  }
  report.add_row({"strongest security mode", security_mode_name(max_mode),
                  max_mode == MessageSecurityMode::None ? "FAIL: no communication security" : "ok"});
  report.add_row({"strongest security policy", std::string(policy_info(max_policy).name),
                  policy_info(max_policy).deprecated ? "FAIL: deprecated since 2017"
                  : policy_info(max_policy).secure  ? "ok"
                                                    : "FAIL: no security"});
  if (cert) {
    const CertConformance conf =
        classify_certificate(max_policy, cert->signature_hash, cert->key_bits());
    report.add_row({"certificate",
                    hash_name(cert->signature_hash) + " / " + std::to_string(cert->key_bits()) +
                        " bit",
                    conf == CertConformance::conformant ? "ok"
                    : conf == CertConformance::too_weak ? "FAIL: weaker than announced policy"
                                                        : "WARN: stronger than policy allows"});
  }
  report.add_row({"anonymous access", record.anonymous_offered ? "offered" : "not offered",
                  record.anonymous_offered ? "FAIL: disable anonymous authentication" : "ok"});
  if (record.session == SessionOutcome::accessible) {
    int writable = 0;
    for (const auto& node : record.nodes) writable += node.writable;
    report.add_row({"address space", std::to_string(record.nodes.size()) + " nodes traversed, " +
                                         std::to_string(writable) + " anonymously writable",
                    writable > 0 ? "FAIL: anonymous writes possible" : "WARN: readable"});
  }
  std::fputs(report.str().c_str(), stdout);

  std::printf("\noverall: %s\n",
              deficits != 0
                  ? "DEFICIENT configuration (would count towards the paper's 92%)"
                  : "no configuration deficits found");
  return 0;
}
