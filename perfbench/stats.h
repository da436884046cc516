// Percentile reporting for the benchmark's timings.
//
// Every timing is reported as its median, one chosen percentile, and the
// sample count. A percentile is refused unless at least kMinTail samples
// lie beyond it: with fewer, one slow outlier more or less moves it, so
// two runs of the same code cannot agree on it.
#ifndef PGT_PERFBENCH_STATS_H_
#define PGT_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTail = 10;

/// 1-based nearest rank of percentile `q` among `n` samples (the epsilon
/// keeps 0.99 * 1000 from rounding up to rank 991).
inline size_t RankOf(double q, size_t n) {
  return static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile `q` (in (0, 1]) of `sorted` (ascending), or
/// nullopt when fewer than kMinTail samples lie beyond its rank.
inline std::optional<double> Percentile(const std::vector<double>& sorted,
                                        double q) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  size_t rank = RankOf(q, n);
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  return sorted[rank - 1];
}

/// Median, one percentile and the sample count of a set of timings.
struct Summary {
  double median = 0;
  double pct = 0;  // value at `q`
  double q = 0;
  size_t n = 0;
  bool ok = false;  // false: too few samples beyond the percentile

  std::string Describe(const std::string& unit) const {
    char buf[160];
    if (!ok) {
      std::snprintf(buf, sizeof(buf),
                    "refused: %zu samples leave fewer than %zu beyond p%g", n,
                    kMinTail, q * 100);
    } else {
      std::snprintf(buf, sizeof(buf), "p50 %.3f %s, p%g %.3f %s, n=%zu",
                    median, unit.c_str(), q * 100, pct, unit.c_str(), n);
    }
    return buf;
  }
};

inline Summary Summarize(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.q = q;
  s.n = samples.size();
  auto median = Percentile(samples, 0.5);
  auto pct = Percentile(samples, q);
  if (median.has_value() && pct.has_value()) {
    s.median = *median;
    s.pct = *pct;
    s.ok = true;
  }
  return s;
}

inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench

#endif  // PGT_PERFBENCH_STATS_H_
