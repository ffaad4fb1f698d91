// pipeline_bench: one process per workload run.
//
//   pipeline_bench corpus --workload W --seed N --corpus-dir DIR
//       build the key corpus the workload's timed runs load (untimed)
//   pipeline_bench run --workload W --seed N --seconds S --trace 0|1
//                      --work-dir DIR --corpus-dir DIR --trace-dir DIR
//       run it; the last stdout line is the result JSON
//
// benchmark/run.py drives both; see benchmark/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workload.hpp"

namespace {

int usage() {
  std::cerr << "usage: pipeline_bench corpus|run --workload paper_scan|followup_batch|"
               "service_mixed --seed N [--seconds S --trace 0|1 --work-dir D --trace-dir D] "
               "--corpus-dir D\n";
  return 2;
}

void print_result(const bench::RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const bench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  bench::RunOptions options;
  try {
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.corpus_dir = args.at("corpus-dir");
    if (command == "run") {
      options.seconds = std::stod(args.at("seconds"));
      options.trace = args.at("trace") == "1";
      options.work_dir = args.at("work-dir");
      options.trace_dir = args.at("trace-dir");
    } else if (command != "corpus") {
      return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }

  using RunFn = bench::RunResult (*)(const bench::RunOptions&);
  using CorpusFn = void (*)(const bench::RunOptions&);
  const std::map<std::string, std::pair<CorpusFn, RunFn>> workloads = {
      {"paper_scan", {bench::build_paper_scan_corpus, bench::run_paper_scan}},
      {"followup_batch", {bench::build_followup_batch_corpus, bench::run_followup_batch}},
      {"service_mixed", {bench::build_service_mixed_corpus, bench::run_service_mixed}},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage();

  try {
    if (command == "corpus") {
      it->second.first(options);
      return 0;
    }
    bench::RunResult result = it->second.second(options);
    bench::finalize_metrics(result, options.trace);
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    // An exception ends the run without a result: the operation that threw
    // leaves nothing to measure after it.
    std::cerr << options.workload << ": " << e.what() << '\n';
    return 3;
  }
}
