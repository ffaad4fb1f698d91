// Shared plumbing of the three workloads: run options, the result each run
// reports, the metric tables, and small process helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up is timed by repetition: at least twice and until it has taken
/// this long in total, so `setup_s` (the median) is steady even where one
/// set-up takes milliseconds.
inline constexpr double kMinSetupSeconds = 2.0;

/// Run `set_up` repeatedly as above, appending each duration to
/// `seconds`. The caller keeps what the last call built.
template <typename Fn>
void repeat_setup(std::vector<double>& seconds, Fn set_up) {
  double total = 0;
  for (int n = 0; n < 2 || total < kMinSetupSeconds; ++n) {
    const auto start = Clock::now();
    set_up();
    seconds.push_back(seconds_since(start));
    total += seconds.back();
  }
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Target length of the timed region; each workload sizes its work from
  /// it (at least one full job runs).
  double seconds = 10;
  bool trace = false;
  /// Fresh, empty directory owned by this run (snapshot files, sidecars).
  std::string work_dir;
  /// Key corpora, kept across runs (built by `pipeline_bench corpus`).
  std::string corpus_dir;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's report. `correct` is false as soon as any output check
/// fails; `attempted`/`failed` count the workload's operations.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  /// Record an output check; a failing one is printed to stderr.
  void check(bool ok, const std::string& what);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric of a timed run (--trace 0), in print order. Each workload
/// reports all of them; see README.md for what each means per workload.
extern const std::vector<MetricSpec> kEndToEnd;
/// Every metric of a traced run (--trace 1). A workload reports 0 for a
/// layer metric whose layer it does not call.
extern const std::vector<MetricSpec> kPerLayer;

/// Report `setup_s` (the median of `seconds`) and print how many set-ups
/// it rests on and their quartile spread.
void report_setup(RunResult& result, const std::vector<double>& seconds);

/// Fill in the layer metrics a workload does not exercise (as 0) and
/// verify the result names exactly the metrics of its table. Throws
/// std::logic_error on a missing or unknown name.
void finalize_metrics(RunResult& result, bool trace);

/// Key corpora, built outside any timed run: per seed for paper_scan (the
/// deployed population's keys), once per checkout for the synthetic
/// workloads (fleet and follow-up mint keys, which no seed changes).
void build_paper_scan_corpus(const RunOptions& options);
void build_followup_batch_corpus(const RunOptions& options);
void build_service_mixed_corpus(const RunOptions& options);

RunResult run_paper_scan(const RunOptions& options);
RunResult run_followup_batch(const RunOptions& options);
RunResult run_service_mixed(const RunOptions& options);

/// Peak resident set size (VmHWM) of this process in MB.
double peak_rss_mb();
/// FNV-1a digest of a file's bytes (0 when it cannot be read). Used for
/// the "key corpus untouched" and "byte-identical output" checks.
std::uint64_t file_digest(const std::string& path);

/// Empty `<work_dir>/<name>`, created fresh. Every job writes into its own:
/// a stale sketch sidecar from an earlier job makes extend_series throw by
/// design.
std::string fresh_dir(const RunOptions& options, const std::string& name);

/// Corpus file of a workload (per seed for paper_scan, fixed otherwise).
std::string corpus_path(const RunOptions& options);

}  // namespace bench
