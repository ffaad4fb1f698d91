// The paper's reproduction gate: one streaming analysis of the recorded
// eight-week campaign, then every table, figure and section in paper
// order, each with its "vs paper" block (src/analysis/paper.hpp). Exits 1
// on any MISMATCH row, so a wrong figure fails the process and CI.
//
//   ./build/reproduce      (the first run records the campaign)
#include <cstdio>

#include "analysis/paper.hpp"
#include "bench_common.hpp"

using namespace opcua_study;

int main() {
  const std::string path = bench::ensure_snapshot_cache();
  AnalysisOptions options;
  options.threads = 0;
  options.shared_primes = true;
  return reproduce_paper(analyze_file(path, kStudySeed, options), stdout) ? 0 : 1;
}
