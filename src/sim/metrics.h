// Exact-sample histogram: the one quantile definition every aggregate
// uses (campaign phase latencies, fleet outages, the --metrics-out
// histograms).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nlh::sim {

// Runs are short; memory is bounded by a sample cap after which only
// count/sum/min/max stay exact.
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 1 << 16;

  void Observe(double v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
    if (samples_.size() < kMaxSamples) samples_.push_back(v);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  // Exact quantile over the retained samples with linear interpolation
  // between closest ranks (the "exclusive" definition used by numpy's
  // default percentile): rank = q*(n-1), result = s[lo] + frac*(s[lo+1]-
  // s[lo]). q <= 0 yields the minimum sample, q >= 1 the maximum.
  double Quantile(double q) const {
    if (samples_.empty()) return 0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (q <= 0) return sorted.front();
    if (q >= 1) return sorted.back();
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> samples_;
};

}  // namespace nlh::sim
