#include "report/telemetry.hpp"

#include <fstream>
#include <stdexcept>

#include "report/json.hpp"

namespace opcua_study {

namespace {

using obs::kHistBucketCount;
using obs::kMetricCount;
using obs::kMetricDefs;
using obs::MetricDef;
using obs::MetricKind;
using obs::MetricValue;
using obs::Stability;

std::string cell_name(const MetricDef& def, unsigned cell) {
  return def.cell_names != nullptr ? def.cell_names[cell] : std::string();
}

void emit_histogram_json(JsonWriter& json, const MetricDef& def, const obs::HistogramValue& hist) {
  json.begin_object();
  json.key("buckets").begin_object();
  for (std::size_t b = 0; b < kHistBucketCount; ++b) {
    json.field(std::to_string((*def.bounds)[b]), hist.buckets[b]);
  }
  json.field("+inf", hist.buckets[kHistBucketCount]);
  json.end_object();
  json.field("sum", hist.sum);
  json.field("count", hist.count);
  json.end_object();
}

void emit_metric_json(JsonWriter& json, const MetricDef& def, const MetricValue& value) {
  json.key(def.name);
  if (def.kind == MetricKind::histogram) {
    if (def.cells == 1) {
      emit_histogram_json(json, def, value.hists[0]);
      return;
    }
    json.begin_object();
    for (unsigned c = 0; c < def.cells; ++c) {
      json.key(cell_name(def, c));
      emit_histogram_json(json, def, value.hists[c]);
    }
    json.end_object();
    return;
  }
  if (def.cells == 1) {
    json.value(value.cells[0]);
    return;
  }
  json.begin_object();
  for (unsigned c = 0; c < def.cells; ++c) json.field(cell_name(def, c), value.cells[c]);
  json.end_object();
}

}  // namespace

std::string telemetry_json(const obs::MetricsSample& sample,
                           const TelemetryReportOptions& options) {
  JsonWriter json;
  json.begin_object();
  json.field("schema", "opcua-telemetry-v1");
  if (!options.campaign_label.empty()) json.field("campaign", options.campaign_label);
  json.key("stable").begin_object();
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetricDefs[i].stability != Stability::stable) continue;
    emit_metric_json(json, kMetricDefs[i], sample.metrics[i]);
  }
  json.end_object();
  if (options.include_operational) {
    json.key("operational").begin_object();
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      if (kMetricDefs[i].stability != Stability::operational) continue;
      emit_metric_json(json, kMetricDefs[i], sample.metrics[i]);
    }
    json.end_object();
  }
  json.end_object();
  return json.str();
}

std::string prometheus_escape_label(const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': escaped += "\\\\"; break;
      case '"': escaped += "\\\""; break;
      case '\n': escaped += "\\n"; break;
      default: escaped += c;
    }
  }
  return escaped;
}

namespace {

/// Joined label pairs ("a=\"x\",b=\"y\"") — empty fragments drop out.
std::string join_labels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

std::string braced(const std::string& labels) {
  return labels.empty() ? std::string() : "{" + labels + "}";
}

}  // namespace

std::string telemetry_prometheus(const obs::MetricsSample& sample,
                                 const TelemetryReportOptions& options) {
  // Every label *value* below is escaped — the campaign label is caller
  // data, and escaping the compile-time cell names too costs nothing.
  const std::string campaign =
      options.campaign_label.empty()
          ? std::string()
          : "campaign=\"" + prometheus_escape_label(options.campaign_label) + "\"";
  std::string out;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& def = kMetricDefs[i];
    if (def.stability == Stability::operational && !options.include_operational) continue;
    const MetricValue& value = sample.metrics[i];
    const std::string name = "opcua_study_" + std::string(def.name);
    out += "# HELP " + name + " " + def.help + "\n";
    if (def.kind == MetricKind::histogram) {
      out += "# TYPE " + name + " histogram\n";
      for (unsigned c = 0; c < def.cells; ++c) {
        const obs::HistogramValue& hist = value.hists[c];
        const std::string cell =
            def.cells == 1
                ? std::string()
                : "cell=\"" + prometheus_escape_label(cell_name(def, c)) + "\"";
        const std::string base = join_labels(campaign, cell);
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < kHistBucketCount; ++b) {
          cumulative += hist.buckets[b];
          out += name + "_bucket{" +
                 join_labels(base, "le=\"" + std::to_string((*def.bounds)[b]) + "\"") + "} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += hist.buckets[kHistBucketCount];
        out += name + "_bucket{" + join_labels(base, "le=\"+Inf\"") + "} " +
               std::to_string(cumulative) + "\n";
        out += name + "_sum" + braced(base) + " " + std::to_string(hist.sum) + "\n";
        out += name + "_count" + braced(base) + " " + std::to_string(hist.count) + "\n";
      }
      continue;
    }
    out += "# TYPE " + name + (def.kind == MetricKind::gauge ? " gauge\n" : " counter\n");
    for (unsigned c = 0; c < def.cells; ++c) {
      const std::string cell =
          def.cells == 1 ? std::string()
                         : "cell=\"" + prometheus_escape_label(cell_name(def, c)) + "\"";
      out += name + braced(join_labels(campaign, cell)) + " " +
             std::to_string(value.cells[c]) + "\n";
    }
  }
  return out;
}

namespace {

void write_text(const std::string& path, const std::string& body, const char* what) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error(std::string("cannot write ") + what + ": " + path);
  out << body;
  out.close();
  if (!out) throw std::runtime_error(std::string("write failure on ") + what + ": " + path);
}

}  // namespace

void write_telemetry_report(const std::string& path, const obs::MetricsSample& sample,
                            const TelemetryReportOptions& options) {
  write_text(path, telemetry_json(sample, options), "telemetry report");
}

void write_prometheus_textfile(const std::string& path, const obs::MetricsSample& sample,
                               const TelemetryReportOptions& options) {
  write_text(path, telemetry_prometheus(sample, options), "prometheus textfile");
}

}  // namespace opcua_study
