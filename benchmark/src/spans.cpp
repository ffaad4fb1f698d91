#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace bench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled, std::uint64_t trace_id)
    : enabled_(enabled), trace_id_(trace_id), origin_ns_(enabled ? steady_ns() : 0) {}

std::int64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

int SpanRecorder::begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.trace_id = trace_id_;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(int id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t stop = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "{\"trace\":\"%016llx\",\"id\":%d,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.trace_id), s.id, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) by_layer[spans[i].layer()] += self[i];
  return by_layer;
}

double busy_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

}  // namespace bench
