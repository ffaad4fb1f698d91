// Exposition for the obs metrics plane: the per-campaign
// TELEMETRY_report.json and a Prometheus text endpoint/file.
//
// Both formats walk the merged MetricsSample in metric-id order and emit
// stable metrics only by default — the stable subset is the determinism
// contract (identical across thread counts, in-flight windows and shard
// layouts), so two equal samples always serialize to identical bytes.
// Operational metrics (wall timings, peaks) ride along only when asked.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace opcua_study {

struct TelemetryReportOptions {
  bool include_operational = false;
  std::string campaign_label;  // stamped into the report when non-empty
};

/// TELEMETRY_report.json body: stable metric totals, histogram buckets,
/// and (optionally) the operational section.
std::string telemetry_json(const obs::MetricsSample& sample,
                           const TelemetryReportOptions& options = {});

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double quote and newline become \\, \" and \n. Every label
/// value emitted below goes through this — a hostile campaign label can
/// not break the exposition apart.
std::string prometheus_escape_label(const std::string& value);

/// Prometheus text exposition (`# HELP`/`# TYPE` + samples). Metric names
/// are prefixed `opcua_study_`; labeled cells use a single `cell` label,
/// histograms emit cumulative `_bucket{le=...}`, `_sum`, `_count`. A
/// non-empty options.campaign_label stamps an escaped `campaign` label
/// onto every sample line.
std::string telemetry_prometheus(const obs::MetricsSample& sample,
                                 const TelemetryReportOptions& options = {});

void write_telemetry_report(const std::string& path, const obs::MetricsSample& sample,
                            const TelemetryReportOptions& options = {});

void write_prometheus_textfile(const std::string& path, const obs::MetricsSample& sample,
                               const TelemetryReportOptions& options = {});

}  // namespace opcua_study
