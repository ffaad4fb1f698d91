// Spans for the traced run. The benchmark records them from its own code,
// around each public call it makes into a library layer; the library itself
// carries no spans. A span is named "<layer>.<call>" after the src/ module
// the call enters (population, scanner, study, analysis, diff, series, svc),
// so per-layer totals are a group-by on the name prefix.
//
// Spans are kept in memory and written out once the run ends. A disabled
// recorder (every timed run) reads no clock and stores nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

struct Span {
  std::uint64_t trace_id = 0;
  int id = 0;       // index in the recorder
  int parent = -1;  // -1: no parent (a root span)
  std::string name;
  std::int64_t start_ns = 0;  // steady clock, relative to the recorder's origin
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// The layer a span belongs to: its name up to the first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::uint64_t trace_id);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// Open a span; returns its id, or -1 when disabled. Thread-safe: worker
  /// threads pass the id of the span that caused them as `parent`.
  int begin(const std::string& name, int parent);
  void end(int id);

  std::vector<Span> spans() const;
  /// One JSON object per line: trace, id, parent, name, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t trace_id_;
  std::int64_t origin_ns_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, const std::string& name, int parent = -1)
      : recorder_(recorder), id_(recorder.begin(name, parent)) {}
  ~SpanScope() { recorder_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that the union of its direct children covers
/// (children running in parallel are not double-counted, and a child
/// sticking out of its parent is clipped).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Sum of self time over the spans of each layer.
std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans);

/// Sum of durations (busy time) of the spans called exactly `name`.
double busy_seconds(const std::vector<Span>& spans, const std::string& name);

}  // namespace bench
