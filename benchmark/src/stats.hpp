// Order statistics the benchmark reports: median, percentiles of latency
// samples, and the quartiles its spread figures use.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bench {

/// p-th percentile (0..100) by linear interpolation between the closest
/// ranks: rank h = (n - 1) * p / 100 (R type 7, numpy's default).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile outside 0..100");
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * p / 100.0;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

/// Samples strictly above the p-th percentile. A tail percentile means
/// little without enough of them, so runs print this count beside it.
inline std::size_t samples_beyond(const std::vector<double>& samples, double p) {
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [cut](double v) { return v > cut; }));
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
  /// Interquartile distance as a share of the median.
  double spread() const { return q2 != 0 ? (q3 - q1) / q2 : 0; }
};

/// Quartiles exactly as Python's statistics.quantiles(data, n=4) gives
/// them (the default 'exclusive' method), so spreads computed here match
/// the ones computed from a run log with the standard library.
inline Quartiles quartiles(std::vector<double> samples) {
  if (samples.size() < 2) throw std::invalid_argument("quartiles need at least two samples");
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  const long n = 4;
  const long m = ld + 1;
  double cut[3] = {};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                  samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

}  // namespace bench
