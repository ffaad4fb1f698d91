// Run a miniature Internet-wide measurement end to end: build a small
// synthetic Internet, sweep it zmap-style, grab every OPC UA host plus an
// MQTT-over-TLS broker fleet through the shared grab core, and print a
// security assessment — the whole paper pipeline in one file.
//
// Telemetry rides along: the run always emits TELEMETRY_report.json and
// TELEMETRY_metrics.prom (the deterministic metrics plane), --trace dumps
// the flight recorder to TELEMETRY_trace.jsonl, and --verbose raises the
// log sink to debug.
//
//   ./build/examples/scan_campaign [scale] [--verbose] [--trace]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "analysis/analysis.hpp"
#include "cli.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "population/deploy.hpp"
#include "report/report.hpp"
#include "report/telemetry.hpp"
#include "scanner/campaign.hpp"
#include "scanner/dataset.hpp"
#include "study/study.hpp"

using namespace opcua_study;

int main(int argc, char** argv) {
  const examples::Cli cli(argc, argv, {"trace"});
  const int hosts = static_cast<int>(cli.number_or(0, 24));
  obs::set_enabled(true);
  obs::set_trace_enabled(cli.flag("trace"));
  std::printf("== miniature scan campaign over %d OPC UA hosts ==\n", hosts);

  // Build a small population: a mix of the paper's archetypes.
  PopulationPlan plan;
  Rng rng(2024);
  for (int i = 0; i < hosts; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "mini";
    host.manufacturer = i % 3 == 0 ? "Bachmann" : (i % 3 == 1 ? "Wago" : "other");
    host.application_uri = (i % 3 == 0   ? "urn:bachmann:m1com:mini-"
                            : i % 3 == 1 ? "urn:wago:codesys:mini-"
                                         : "urn:generic:opcua:mini-") +
                           std::to_string(i);
    host.product_uri = "http://example.org/mini";
    host.application_name = "mini host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 5);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 1, 1});
    switch (i % 4) {
      case 0:  // None-only with anonymous access (the paper's worst case)
        host.modes = {MessageSecurityMode::None};
        host.policies = {SecurityPolicy::None};
        host.tokens = {UserTokenType::Anonymous};
        host.certificate.signature_hash = HashAlgorithm::sha1;
        host.outcome = PlannedOutcome::accessible;
        host.classification = PlannedClass::production;
        host.variable_count = 25;
        host.method_count = 5;
        host.readable_fraction = 1.0;
        host.writable_fraction = 0.2;
        host.executable_fraction = 0.9;
        break;
      case 1:  // deprecated policies, credentials required
        host.modes = {MessageSecurityMode::None, MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::None, SecurityPolicy::Basic128Rsa15};
        host.tokens = {UserTokenType::UserName};
        host.certificate.signature_hash = HashAlgorithm::sha1;
        host.outcome = PlannedOutcome::auth_rejected;
        break;
      case 2:  // strong policy but weak certificate (the paper's 409)
        host.modes = {MessageSecurityMode::None, MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::None, SecurityPolicy::Basic256Sha256};
        host.tokens = {UserTokenType::UserName};
        host.certificate.signature_hash = HashAlgorithm::sha1;
        host.outcome = PlannedOutcome::auth_rejected;
        break;
      default:  // locked down properly
        host.modes = {MessageSecurityMode::SignAndEncrypt};
        host.policies = {SecurityPolicy::Basic256Sha256};
        host.tokens = {UserTokenType::UserName, UserTokenType::Certificate};
        host.certificate.signature_hash = HashAlgorithm::sha256;
        host.certificate.key_bits = 2048;
        host.trust_all_client_certs = false;
        host.outcome = PlannedOutcome::channel_rejected;
        break;
    }
    plan.hosts.push_back(std::move(host));
  }
  // A broker fleet on port 8883 rides along: the campaign below sweeps both
  // protocol families in one campaign, one sweep pass per protocol.
  const int brokers = std::max(1, hosts / 3);
  add_mqtt_population(plan, 2024, brokers);

  DeployConfig deploy_config;
  deploy_config.seed = 11;
  deploy_config.dummy_hosts = 500;  // non-OPC-UA port-4840 noise
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  Deployer deployer(plan, deploy_config);
  Network net;
  deployer.deploy_week(net, 7);

  KeyFactory keys(11, "");
  CampaignConfig campaign_config;
  campaign_config.seed = 3;
  campaign_config.protocols = {{ProtocolId::opcua, 4840},
                               {ProtocolId::mqtt_tls, kMqttTlsDefaultPort}};
  campaign_config.grabber.client = make_scanner_identity(11, keys);
  Campaign campaign(campaign_config, net);
  const ScanSnapshot snapshot = campaign.run(7);

  std::map<ProtocolId, std::size_t> by_protocol;
  for (const auto& host : snapshot.hosts) ++by_protocol[host.protocol];
  std::printf("probes: %llu, port open: %llu, speakers: %zu (",
              static_cast<unsigned long long>(snapshot.probes_sent),
              static_cast<unsigned long long>(snapshot.tcp_open_count), snapshot.hosts.size());
  bool first = true;
  for (const auto& [protocol, count] : by_protocol) {
    std::printf("%s%s %zu", first ? "" : ", ", protocol_name(protocol).c_str(), count);
    first = false;
  }
  std::printf(")\n");

  const StudyAnalysis analysis = analyze_snapshots({snapshot});
  const ModePolicyStats& modes = analysis.modes;
  const AuthStats& auth = analysis.auth;
  const CertConformanceStats& certs = analysis.certificates;

  TextTable summary;
  summary.set_header({"assessment", "hosts"});
  summary.add_row({"servers found", fmt_int(modes.servers)});
  summary.add_row({"no security at all", fmt_int(modes.none_only)});
  summary.add_row({"deprecated policy as maximum", fmt_int(modes.deprecated_max)});
  summary.add_row({"certificate weaker than policy", fmt_int(certs.weaker_than_max)});
  summary.add_row({"anonymous access offered", fmt_int(auth.anonymous_offered)});
  summary.add_row({"publicly accessible", fmt_int(auth.accessible)});
  summary.add_row({"client certificate rejected", fmt_int(auth.channel_rejected)});
  std::fputs(summary.str().c_str(), stdout);

  // Release the anonymized dataset, like the paper does.
  Anonymizer anonymizer;
  const std::string jsonl = to_release_jsonl(snapshot, anonymizer);
  std::printf("\nanonymized dataset release (first line of %d):\n%s\n",
              static_cast<int>(snapshot.hosts.size()),
              jsonl.substr(0, jsonl.find('\n')).c_str());

  // Telemetry report: the grab_outcome totals reconcile exactly with the
  // snapshot's per-host ProbeOutcome grades (pinned by test_observability).
  const obs::MetricsSample sample = obs::collect();
  TelemetryReportOptions report_options;
  report_options.campaign_label = "scan_campaign-example";
  write_telemetry_report("TELEMETRY_report.json", sample, report_options);
  write_prometheus_textfile("TELEMETRY_metrics.prom", sample, report_options);
  std::printf("telemetry: %llu grabs kept -> TELEMETRY_report.json, TELEMETRY_metrics.prom\n",
              static_cast<unsigned long long>(sample[obs::Metric::grab_outcome].total()));
  if (cli.flag("trace")) {
    if (obs::dump_trace("TELEMETRY_trace.jsonl")) {
      std::printf("flight recorder: %zu events -> TELEMETRY_trace.jsonl\n",
                  obs::trace_collect().size());
    }
  }
  return 0;
}
