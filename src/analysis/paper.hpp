// The paper's reproduction: every table, figure and section the study
// reproduces, printed from one StudyAnalysis with its "vs paper" block.
//
// The 95 claims are the paper's printed counts and shares, each checked
// against the analysis with its own tolerance (exact for counts). A value
// the analysis cannot supply — an empty study, a reuse cluster or a
// manufacturer that is absent, a survival curve shorter than the read
// curve — prints "-" and is a MISMATCH, never a crash.
#pragma once

#include <cstdio>

#include "analysis/analysis.hpp"

namespace opcua_study {

/// Prints, in paper order, Table 1, Fig. 2, Fig. 3, Fig. 4, Fig. 5, §5.3,
/// Fig. 6, Table 2, Fig. 7, Fig. 8 and §5.5 to `out`, each followed by its
/// comparison block. Returns true when all 95 claims reproduced. §5.3
/// reads `analysis.shared_primes`, so pass an analysis run with
/// AnalysisOptions::shared_primes set.
bool reproduce_paper(const StudyAnalysis& analysis, std::FILE* out);

}  // namespace opcua_study
