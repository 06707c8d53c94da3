//===-- perfbench/src/Stats.h - Percentiles and name rules ------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's sample statistics. Percentiles are nearest-rank: the
/// q-th percentile of n sorted samples is the sample at 1-based rank
/// ceil(q n), so exactly n - ceil(q n) samples lie beyond it. A tail
/// percentile is only reported when at least ten samples lie beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
constexpr std::size_t MinBeyond = 10;

/// 1-based nearest rank of percentile \p Q (in (0, 1]) among \p N samples.
inline std::size_t nearestRank(std::size_t N, double Q) {
  // The epsilon keeps exact products (0.95 * 200 = 190) from rounding up.
  const double Rank = std::ceil(Q * double(N) - 1e-9);
  return std::size_t(std::max(1.0, std::min(double(N), Rank)));
}

/// Samples strictly past the nearest-rank position of \p Q.
inline std::size_t samplesBeyond(std::size_t N, double Q) {
  return N == 0 ? 0 : N - nearestRank(N, Q);
}

/// True when \p N samples support percentile \p Q: at least MinBeyond
/// samples lie beyond it.
inline bool supportsPercentile(std::size_t N, double Q) {
  return samplesBeyond(N, Q) >= MinBeyond;
}

/// Smallest sample count that supports percentile \p Q.
inline std::size_t samplesForPercentile(double Q) {
  std::size_t N = 1;
  while (!supportsPercentile(N, Q))
    ++N;
  return N;
}

/// The highest percentile (as a fraction) of the ladder 50, 75, 90, 95,
/// 99, 99.9 that \p N samples support; 0 when none is supported.
inline double highestSupportedPercentile(std::size_t N) {
  static const double Ladder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  for (double Q : Ladder)
    if (supportsPercentile(N, Q))
      return Q;
  return 0;
}

/// Nearest-rank percentile of \p Values (unsorted; copied).
inline double percentileOf(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  return Values[nearestRank(Values.size(), Q) - 1];
}

/// The median: the mean of the two middle samples for even counts.
inline double medianOf(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  const std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
