// Self-tests of the benchmark's own logic: order statistics, span self
// time, the metric tables, and the seeded query list. Exit code 0 = pass.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) < 1e-9, what + ": got " + std::to_string(got) + ", want " +
                                          std::to_string(want));
}

template <typename Fn>
bool throws(Fn fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect_near(bench::percentile(ten, 50), 5.5, "p50 of 1..10");
  expect_near(bench::percentile(ten, 99), 9.91, "p99 of 1..10");
  expect_near(bench::percentile(ten, 0), 1, "p0 of 1..10");
  expect_near(bench::percentile(ten, 100), 10, "p100 of 1..10");
  expect_near(bench::percentile({5.2, 1.1, 9.7, 3.3, 4.4, 8.8, 2.0}, 90), 9.16, "p90 of 7");
  expect_near(bench::percentile({4}, 50), 4, "median of one sample");
  expect(bench::samples_beyond(ten, 50) == 5, "samples beyond p50 of 1..10");
  expect(throws([] { bench::percentile({}, 50); }), "percentile of nothing throws");
  expect(throws([] { bench::percentile({1}, 101); }), "percentile > 100 throws");
}

void test_quartiles() {
  // Reference values: Python's statistics.quantiles(data, n=4).
  const bench::Quartiles q = bench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  expect_near(q.spread(), 5.5 / 5.5, "spread of 1..10");
  const bench::Quartiles two = bench::quartiles({3.0, 1.0});
  expect_near(two.q1, 0.5, "q1 of two samples");
  expect_near(two.q2, 2.0, "q2 of two samples");
  expect_near(two.q3, 3.5, "q3 of two samples");
  const bench::Quartiles seven = bench::quartiles({5.2, 1.1, 9.7, 3.3, 4.4, 8.8, 2.0});
  expect_near(seven.q1, 2.0, "q1 of seven");
  expect_near(seven.q2, 4.4, "q2 of seven");
  expect_near(seven.q3, 8.8, "q3 of seven");
  expect(throws([] { bench::quartiles({1}); }), "quartiles of one sample throw");
}

bench::Span span(int id, int parent, const char* name, std::int64_t start, std::int64_t end) {
  bench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  // root [0,1000): a week [0,400) with overlapping parallel children and
  // one that outlives it, then a write [500,600) directly under the root.
  const std::vector<bench::Span> spans = {
      span(0, -1, "run", 0, 1000),
      span(1, 0, "study.week", 0, 400),
      span(2, 1, "scanner.grab", 10, 300),
      span(3, 1, "scanner.grab", 100, 350),
      span(4, 1, "population.deploy_week", 380, 450),
      span(5, 2, "crypto.inner", 20, 30),
      span(6, 0, "scanner.snapshot_write", 500, 600),
  };
  const std::vector<double> self = bench::self_seconds(spans);
  expect_near(self[0], (1000 - 400 - 100) * 1e-9, "root self time");
  expect_near(self[1], (400 - 340 - 20) * 1e-9, "week self time: union of children, clipped");
  expect_near(self[2], (290 - 10) * 1e-9, "grab self time minus its own child only");
  expect_near(self[3], 250e-9, "leaf self time is its duration");
  const auto layers = bench::self_seconds_by_layer(spans);
  expect_near(layers.at("scanner"), (280 + 250 + 100) * 1e-9, "scanner layer self time");
  expect_near(layers.at("study"), 40e-9, "study layer self time");
  expect_near(bench::busy_seconds(spans, "scanner.grab"), (290 + 250) * 1e-9, "grab busy time");

  bench::SpanRecorder off(false, 1);
  expect(off.begin("x", -1) == -1 && off.spans().empty(), "disabled recorder records nothing");
  bench::SpanRecorder on(true, 7);
  const int root = on.begin("run", -1);
  std::thread worker([&] { const bench::SpanScope s(on, "scanner.grab", root); });
  worker.join();
  on.end(root);
  const std::vector<bench::Span> got = on.spans();
  expect(got.size() == 2 && got[1].parent == root && got[1].trace_id == 7 &&
             got[1].start_ns >= got[0].start_ns && got[1].end_ns <= got[0].end_ns,
         "recorded spans carry parent, trace id and nested times across threads");
}

void test_query_list() {
  using Kind = opcua_study::svc::QueryRequest::Kind;
  const std::size_t count = 9000;
  const auto a = bench::make_query_list(42, count);
  const auto b = bench::make_query_list(42, count);
  const auto c = bench::make_query_list(43, count);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].type == b[i].type && a[i].request == b[i].request &&
           a[i].min_epoch == b[i].min_epoch && a[i].sampled == b[i].sampled;
    differs = differs || !(a[i].request == c[i].request);
  }
  expect(same, "same seed gives the identical query list");
  expect(differs, "another seed gives another query list");
  expect(a.size() == count, "query list has the requested length");
  expect(a[count / 3].type == bench::PlannedOp::Type::append &&
             a[2 * count / 3].type == bench::PlannedOp::Type::append,
         "appends sit at one and two thirds of the list");

  std::size_t kinds[5] = {}, appends = 0, sampled = 0;
  bool gated = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bench::PlannedOp& op = a[i];
    if (op.type == bench::PlannedOp::Type::append) {
      ++appends;
      continue;
    }
    ++kinds[static_cast<std::size_t>(op.request.kind)];
    sampled += op.sampled ? 1 : 0;
    // A query naming m3 (m4) must wait for the first (second) append and
    // may only appear after it in the list.
    for (const std::string* name : {&op.request.campaign, &op.request.followup}) {
      for (int m = bench::kServiceInitialMembers; m < bench::kServiceMembers; ++m) {
        if (*name != bench::member_name(m)) continue;
        const int need = m - bench::kServiceInitialMembers + 1;
        const std::size_t after = need == 1 ? count / 3 : 2 * count / 3;
        gated = gated && op.min_epoch >= need && i > after;
      }
    }
  }
  expect(appends == 2, "exactly two appends");
  expect(gated, "no query names an appended campaign before its append");
  const double queries = static_cast<double>(count - appends);
  expect(std::abs(kinds[static_cast<int>(Kind::posture)] / queries - 0.6) < 0.03, "~60% posture");
  for (const Kind k : {Kind::study, Kind::diff, Kind::series, Kind::catalog}) {
    expect(std::abs(kinds[static_cast<int>(k)] / queries - 0.1) < 0.02, "~10% per other kind");
  }
  expect(sampled > 300, "a sample of responses is checked against inline execute()");
}

void test_metric_tables() {
  bench::RunResult missing;
  missing.set("throughput_per_s", 1, "1/s");
  expect(throws([&] { bench::finalize_metrics(missing, false); }), "missing end-to-end metric");
  bench::RunResult unknown;
  unknown.set("no.such_metric", 1, "s");
  expect(throws([&] { bench::finalize_metrics(unknown, true); }), "unknown layer metric");
  bench::RunResult layer;
  layer.set("svc.append_ms", 3, "ms");
  bench::finalize_metrics(layer, true);
  expect(layer.metrics.size() == bench::kPerLayer.size(), "unexercised layers reported as 0");
  bench::RunResult wrong_unit;
  wrong_unit.set("svc.append_ms", 3, "s");
  expect(throws([&] { bench::finalize_metrics(wrong_unit, true); }), "unit mismatch");
}

}  // namespace

int main() {
  test_percentiles();
  test_quartiles();
  test_self_time();
  test_query_list();
  test_metric_tables();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::puts("pipeline_bench self-tests passed");
  return 0;
}
