#include "workload.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "stats.hpp"

namespace bench {

const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"population.deploy_s", "s"},
    {"scanner.grab_s", "s"},
    {"scanner.grab_wall_s", "s"},
    {"scanner.shard_skew", "ratio"},
    {"scanner.snapshot_write_s", "s"},
    {"scanner.snapshot_bytes_per_record", "B/record"},
    {"scanner.tasks_launched", "count"},
    {"scanner.task_wakeups", "count"},
    {"scanner.grab_bytes_sent", "B"},
    {"scanner.in_flight_peak", "count"},
    {"scanner.sim_window_h", "h"},
    {"scanner.snapshot_chunks_read", "count"},
    {"scanner.snapshot_bytes_read", "B"},
    {"crypto.keys_generated", "count"},
    {"crypto.key_cache_hits", "count"},
    {"study.extend_s", "s"},
    {"study.self_s", "s"},
    {"analysis.pass_s", "s"},
    {"diff.pass_s", "s"},
    {"series.pass_s", "s"},
    {"util.pool_jobs", "count"},
    {"util.pool_width_peak", "count"},
    {"svc.p99_us", "us"},
    {"svc.posture_p50_us", "us"},
    {"svc.study_p50_us", "us"},
    {"svc.diff_p50_us", "us"},
    {"svc.series_p50_us", "us"},
    {"svc.catalog_p50_us", "us"},
    {"svc.cache_hits.sketch", "count"},
    {"svc.cache_hits.postures", "count"},
    {"svc.cache_hits.study", "count"},
    {"svc.cache_hits.diff", "count"},
    {"svc.cache_hits.series", "count"},
    {"svc.cache_misses.sketch", "count"},
    {"svc.cache_misses.postures", "count"},
    {"svc.cache_misses.study", "count"},
    {"svc.cache_misses.diff", "count"},
    {"svc.cache_misses.series", "count"},
    {"svc.append_ms", "ms"},
    {"svc.read_stall_ms", "ms"},
    {"svc.cold_study_ms", "ms"},
    {"svc.rejected", "count"},
    {"svc.resident_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "CHECK FAILED: " << what << '\n';
}

void report_setup(RunResult& result, const std::vector<double>& seconds) {
  const Quartiles q = quartiles(seconds);
  std::cout << "setup_s " << q.q2 << " s: median of " << seconds.size()
            << " set-ups, quartile spread " << q.spread() << '\n';
  result.set("setup_s", q.q2, "s");
}

void finalize_metrics(RunResult& result, bool trace) {
  const std::vector<MetricSpec>& table = trace ? kPerLayer : kEndToEnd;
  std::set<std::string> known;
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : table) {
    known.insert(spec.name);
    const Metric* m = result.find(spec.name);
    if (m == nullptr && !trace) {
      throw std::logic_error(std::string("workload did not report ") + spec.name);
    }
    if (m != nullptr && m->unit != spec.unit) {
      throw std::logic_error(std::string("unit mismatch for ") + spec.name);
    }
    ordered.push_back(m != nullptr ? *m : Metric{spec.name, 0.0, spec.unit});
  }
  for (const Metric& m : result.metrics) {
    if (known.count(m.name) == 0) throw std::logic_error("metric not in the table: " + m.name);
  }
  result.metrics = std::move(ordered);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string fresh_dir(const RunOptions& options, const std::string& name) {
  const std::string dir = options.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string corpus_path(const RunOptions& options) {
  if (options.workload == "paper_scan") {
    return options.corpus_dir + "/paper_scan-" + std::to_string(options.seed) + ".keys";
  }
  return options.corpus_dir + "/" + options.workload + ".keys";
}

}  // namespace bench
