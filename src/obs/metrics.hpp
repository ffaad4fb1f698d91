// Deterministic telemetry: sharded per-thread metrics with a fixed,
// compile-time metric table.
//
// Determinism model. Every metric is tagged `stable` or `operational`.
// Stable metrics are integer counters / fixed-bucket histograms whose
// increments derive only from the simulated world (per-host records,
// endpoint-keyed fault draws, simulated-clock durations) — their aggregated
// totals are identical for any thread count, max_in_flight window, or shard
// layout, and the observability tests pin that down. Operational metrics
// (in-flight peaks, wall-clock timings, pool widths) describe the real
// execution and are excluded from the stable exposition by default.
//
// Aggregation. Each thread owns a shard of plain relaxed-atomic slots; the
// collector merges shards in creation order (counters and histogram buckets
// sum, gauges take the max), so the merged sample is order-independent for
// everything stable. Shards are leased from a free list when threads start
// and returned when they exit — fork-join pools that spawn fresh threads
// per call reuse the same storage instead of growing the registry.
//
// Cost. Every instrument site is `if (!obs::enabled()) return;` on one
// relaxed atomic load — no locks, no allocation, no hashing. Telemetry is
// off by default; enabling it must never change a snapshot byte (pinned by
// tests/test_observability.cpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace opcua_study::obs {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };
enum class Stability : std::uint8_t { stable, operational };

/// Fixed metric ids. Adding a metric means one enum entry plus one
/// descriptor row below — offsets and storage are computed at compile time.
enum class Metric : std::uint16_t {
  // -- stable: the deterministic account of a campaign --------------------
  scan_tasks_launched,    // counter, per protocol
  scan_task_wakeups,      // counter: ProbeTask::step() calls
  scan_completion_us,     // histogram, per protocol: task-local sim duration
  grab_outcome,           // counter, protocol x ProbeOutcome (kept records)
  grab_retries,           // counter, per protocol (kept records)
  grab_fault_events,      // counter, per protocol (kept records)
  grab_bytes_sent,        // counter, per protocol (kept records)
  phase_connect_us,       // histogram, per protocol: TCP/TLS connect cost
  phase_hello_us,         // histogram, per protocol: hello exchange cost
  phase_endpoints_us,     // histogram: OPC UA GetEndpoints cost
  phase_auth_probe_us,    // histogram, per protocol: secure/auth probe cost
  net_faults_injected,    // counter, per fault class
  snapshot_chunks_written,
  snapshot_bytes_written,  // chunk header + payload bytes
  snapshot_chunks_read,
  snapshot_bytes_read,
  key_cache_hits,
  keys_generated,
  // -- operational: real-execution shape, excluded from stable exports ----
  scheduler_in_flight_peak,  // gauge: peak live tasks in one scheduler
  pool_jobs,                 // counter: ThreadPool::parallel_for calls
  pool_iterations,           // counter: indices executed by the pool
  pool_width_peak,           // gauge: widest worker set observed
  snapshot_write_wall_us,    // counter: wall-clock µs inside flush_chunk
  snapshot_read_wall_us,     // counter: wall-clock µs inside read_chunk
  analysis_pass_wall_us,     // counter: analyze_source wall-clock µs
  diff_pass_wall_us,         // counter: diff_campaigns wall-clock µs
  series_pass_wall_us,       // counter: analyze_series wall-clock µs
  trace_events_dropped,      // counter: flight-recorder ring overflow
  svc_queries,               // counter, per query kind: requests executed
  svc_queries_rejected,      // counter: admission-control rejections
  svc_cache_hits,            // counter, per artifact class
  svc_cache_misses,          // counter, per artifact class
  svc_query_us,              // histogram, per query kind: wall-clock latency
  svc_resident_bytes,        // gauge: peak resident catalog bytes
  kCount,
};

inline constexpr std::size_t kMetricCount = static_cast<std::size_t>(Metric::kCount);

// Cell label sets (Prometheus label value / JSON key per cell).
inline constexpr const char* kProtocolCells[] = {"opcua", "mqtt-tls"};
inline constexpr const char* kOutcomeCells[] = {
    "opcua/complete",    "opcua/truncated",    "opcua/degraded",    "opcua/unreachable",
    "mqtt-tls/complete", "mqtt-tls/truncated", "mqtt-tls/degraded", "mqtt-tls/unreachable",
};
inline constexpr const char* kFaultCells[] = {"syn_drop", "listener_flap", "reset",
                                              "stall",    "truncate",      "timeout"};
// Study-service dimensions: query kinds (QueryRequest::Kind order) and the
// cached-artifact classes the catalog accounts hits/misses against.
inline constexpr const char* kQueryKindCells[] = {"catalog", "posture", "study", "diff",
                                                  "series"};
inline constexpr const char* kArtifactCells[] = {"sketch", "postures", "study", "diff",
                                                 "series"};

// Fixed histogram bounds (microseconds): kHistBucketCount finite buckets
// plus the implicit +Inf bucket. Fixed bounds keep bucket counts
// order-independent sums, i.e. stable.
inline constexpr std::size_t kHistBucketCount = 8;
using HistBounds = std::array<std::uint64_t, kHistBucketCount>;
// The shared bounds: 100 µs .. 1000 s, one decade per bucket.
inline constexpr HistBounds kHistBounds = {
    100,        1'000,       10'000,        100'000,
    1'000'000,  10'000'000,  100'000'000,   1'000'000'000,
};
// Service query latency: cached reads take tens of microseconds, so the
// bounds split the first shared decade.
inline constexpr HistBounds kQueryLatencyBounds = {
    5, 10, 25, 50, 100, 1'000, 10'000, 1'000'000,
};

struct MetricDef {
  const char* name;
  MetricKind kind;
  Stability stability;
  unsigned cells;                  // label arity; 1 = unlabeled
  const char* const* cell_names;   // nullptr when cells == 1
  const char* help;
  const HistBounds* bounds = &kHistBounds;  // histograms only
};

inline constexpr MetricDef kMetricDefs[kMetricCount] = {
    {"scan_tasks_launched", MetricKind::counter, Stability::stable, 2, kProtocolCells,
     "probe tasks launched by the scan scheduler"},
    {"scan_task_wakeups", MetricKind::counter, Stability::stable, 1, nullptr,
     "probe task step() wake-ups on the event heap"},
    {"scan_completion_us", MetricKind::histogram, Stability::stable, 2, kProtocolCells,
     "per-task grab duration on the simulated clock (task-local)"},
    {"grab_outcome", MetricKind::counter, Stability::stable, 8, kOutcomeCells,
     "kept host records by protocol and ProbeOutcome grade"},
    {"grab_retries", MetricKind::counter, Stability::stable, 2, kProtocolCells,
     "retries recorded on kept host records"},
    {"grab_fault_events", MetricKind::counter, Stability::stable, 2, kProtocolCells,
     "injected-fault events recorded on kept host records"},
    {"grab_bytes_sent", MetricKind::counter, Stability::stable, 2, kProtocolCells,
     "application-layer bytes sent, summed over kept host records"},
    {"phase_connect_us", MetricKind::histogram, Stability::stable, 2, kProtocolCells,
     "simulated connect/handshake cost per successful connect"},
    {"phase_hello_us", MetricKind::histogram, Stability::stable, 2, kProtocolCells,
     "simulated hello-exchange cost"},
    {"phase_endpoints_us", MetricKind::histogram, Stability::stable, 1, nullptr,
     "simulated OPC UA GetEndpoints cost"},
    {"phase_auth_probe_us", MetricKind::histogram, Stability::stable, 2, kProtocolCells,
     "simulated secure-channel/auth probe cost per concluded probe"},
    {"net_faults_injected", MetricKind::counter, Stability::stable, 6, kFaultCells,
     "faults injected by the netsim fault plan, by class"},
    {"snapshot_chunks_written", MetricKind::counter, Stability::stable, 1, nullptr,
     "snapshot chunks sealed by SnapshotWriter"},
    {"snapshot_bytes_written", MetricKind::counter, Stability::stable, 1, nullptr,
     "chunk bytes (header + payload) written by SnapshotWriter"},
    {"snapshot_chunks_read", MetricKind::counter, Stability::stable, 1, nullptr,
     "snapshot chunks decoded or column-mapped by SnapshotReader"},
    {"snapshot_bytes_read", MetricKind::counter, Stability::stable, 1, nullptr,
     "chunk payload bytes served by SnapshotReader"},
    {"key_cache_hits", MetricKind::counter, Stability::stable, 1, nullptr,
     "KeyFactory cache hits"},
    {"keys_generated", MetricKind::counter, Stability::stable, 1, nullptr,
     "RSA key pairs generated by KeyFactory"},
    {"scheduler_in_flight_peak", MetricKind::gauge, Stability::operational, 1, nullptr,
     "peak concurrently-live probe tasks in one scheduler"},
    {"pool_jobs", MetricKind::counter, Stability::operational, 1, nullptr,
     "ThreadPool::parallel_for invocations"},
    {"pool_iterations", MetricKind::counter, Stability::operational, 1, nullptr,
     "indices executed through the thread pool"},
    {"pool_width_peak", MetricKind::gauge, Stability::operational, 1, nullptr,
     "widest concurrent worker set a pool job used"},
    {"snapshot_write_wall_us", MetricKind::counter, Stability::operational, 1, nullptr,
     "wall-clock microseconds spent sealing snapshot chunks"},
    {"snapshot_read_wall_us", MetricKind::counter, Stability::operational, 1, nullptr,
     "wall-clock microseconds spent decoding snapshot chunks"},
    {"analysis_pass_wall_us", MetricKind::counter, Stability::operational, 1, nullptr,
     "wall-clock microseconds per analyze_source pass"},
    {"diff_pass_wall_us", MetricKind::counter, Stability::operational, 1, nullptr,
     "wall-clock microseconds per campaign diff"},
    {"series_pass_wall_us", MetricKind::counter, Stability::operational, 1, nullptr,
     "wall-clock microseconds per series analysis"},
    {"trace_events_dropped", MetricKind::counter, Stability::operational, 1, nullptr,
     "flight-recorder events overwritten by ring overflow"},
    {"svc_queries", MetricKind::counter, Stability::operational, 5, kQueryKindCells,
     "study-service queries executed, by kind"},
    {"svc_queries_rejected", MetricKind::counter, Stability::operational, 1, nullptr,
     "study-service queries refused by admission control"},
    {"svc_cache_hits", MetricKind::counter, Stability::operational, 5, kArtifactCells,
     "catalog artifact-cache hits, by artifact class"},
    {"svc_cache_misses", MetricKind::counter, Stability::operational, 5, kArtifactCells,
     "catalog artifact-cache misses (artifact computed), by artifact class"},
    {"svc_query_us", MetricKind::histogram, Stability::operational, 5, kQueryKindCells,
     "study-service query latency (wall clock)", &kQueryLatencyBounds},
    {"svc_resident_bytes", MetricKind::gauge, Stability::operational, 1, nullptr,
     "peak resident bytes held by the campaign catalog"},
};

inline constexpr const MetricDef& metric_def(Metric m) {
  return kMetricDefs[static_cast<std::size_t>(m)];
}

// Per-cell histogram storage: finite buckets, +Inf bucket, sum, count.
inline constexpr std::size_t kHistStride = kHistBucketCount + 3;

constexpr std::size_t slot_count(const MetricDef& def) {
  return def.kind == MetricKind::histogram ? def.cells * kHistStride : def.cells;
}

inline constexpr auto kSlotOffsets = [] {
  std::array<std::size_t, kMetricCount + 1> offsets{};
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    offsets[i + 1] = offsets[i] + slot_count(kMetricDefs[i]);
  }
  return offsets;
}();
inline constexpr std::size_t kSlotCount = kSlotOffsets[kMetricCount];

namespace detail {

struct Shard {
  std::array<std::atomic<std::uint64_t>, kSlotCount> slots{};
};

extern std::atomic<bool> g_enabled;

/// The calling thread's shard; leases one from the registry on first use.
Shard& local_shard();

}  // namespace detail

inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on);

/// Zero every slot of every shard (leased and free alike). Call between
/// runs when comparing samples; safe only while no instrumented work runs.
void reset();

inline void add(Metric m, std::uint64_t delta = 1, unsigned cell = 0) {
  if (!enabled()) return;
  detail::local_shard()
      .slots[kSlotOffsets[static_cast<std::size_t>(m)] + cell]
      .fetch_add(delta, std::memory_order_relaxed);
}

/// Gauge as a high-water mark: merged value is the max over shards.
inline void gauge_peak(Metric m, std::uint64_t value, unsigned cell = 0) {
  if (!enabled()) return;
  auto& slot = detail::local_shard().slots[kSlotOffsets[static_cast<std::size_t>(m)] + cell];
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur && !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

inline void observe_us(Metric m, std::uint64_t us, unsigned cell = 0) {
  if (!enabled()) return;
  auto* base = &detail::local_shard()
                    .slots[kSlotOffsets[static_cast<std::size_t>(m)] + cell * kHistStride];
  const HistBounds& bounds = *metric_def(m).bounds;
  std::size_t bucket = kHistBucketCount;  // +Inf
  for (std::size_t b = 0; b < kHistBucketCount; ++b) {
    if (us <= bounds[b]) {
      bucket = b;
      break;
    }
  }
  base[bucket].fetch_add(1, std::memory_order_relaxed);
  base[kHistBucketCount + 1].fetch_add(us, std::memory_order_relaxed);  // sum
  base[kHistBucketCount + 2].fetch_add(1, std::memory_order_relaxed);   // count
}

/// RAII wall-clock timer for the operational `*_wall_us` counters: adds the
/// elapsed microseconds on destruction. Skips the clock read entirely when
/// telemetry is disabled, so instrumented passes stay zero-cost.
class WallTimer {
 public:
  explicit WallTimer(Metric m)
      : metric_(m), on_(enabled()),
        start_(on_ ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{}) {}
  WallTimer(const WallTimer&) = delete;
  WallTimer& operator=(const WallTimer&) = delete;
  ~WallTimer() {
    if (!on_) return;
    add(metric_, static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                                std::chrono::steady_clock::now() - start_)
                                                .count()));
  }

 private:
  Metric metric_;
  bool on_;
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------- sampling --

struct HistogramValue {
  std::array<std::uint64_t, kHistBucketCount + 1> buckets{};  // finite + Inf
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

/// One metric's merged value: `cells` for counters/gauges, `hists` for
/// histograms (always sized to the descriptor's cell arity).
struct MetricValue {
  Metric id = Metric::kCount;
  std::vector<std::uint64_t> cells;
  std::vector<HistogramValue> hists;
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : cells) t += v;
    return t;
  }
};

/// Aggregated sample of every metric, in metric-id order; shards merge in
/// creation order (sum / max), so stable metrics compare bit-for-bit.
struct MetricsSample {
  std::vector<MetricValue> metrics;  // size kMetricCount, indexed by id
  const MetricValue& operator[](Metric m) const {
    return metrics[static_cast<std::size_t>(m)];
  }
};

MetricsSample collect();

}  // namespace opcua_study::obs
