// Summary statistics for the serving benchmark: a log-linear histogram for
// high-rate latency streams and exact quantiles for small sample sets.
#ifndef ECLARITY_PERFBENCH_STATS_H_
#define ECLARITY_PERFBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

// Log-linear histogram over non-negative integers (nanoseconds, counts):
// 64 sub-buckets per power of two, so a bucket is at most 1/64 of its
// value wide. Quantiles interpolate by rank inside the bucket, which keeps
// a steady metric from reading back the same bucket edge on every run.
class LogHistogram {
 public:
  LogHistogram() : buckets_(kOctaves * kSub, 0) {}

  void Add(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }
  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  // The q-quantile (0 <= q <= 1); 0 for an empty histogram.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(cum + c) >= target) {
        const double within = (target - static_cast<double>(cum)) /
                              static_cast<double>(c);
        return Lower(i) + Width(i) * std::clamp(within, 0.0, 1.0);
      }
      cum += c;
    }
    return Lower(buckets_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kOctaves = 64;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub + ((v >> shift) - kSub);
  }
  static double Lower(size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    const int shift = static_cast<int>(i / kSub) - 1;
    return static_cast<double>((i % kSub + kSub) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0
                    : static_cast<double>(uint64_t{1} << (i / kSub - 1));
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// The highest percentile not above `q` that still has at least ten samples
// beyond it (0.5 when there are too few for any tail).
inline double SupportedTail(double q, uint64_t n) {
  if (n == 0) {
    return q;
  }
  const double supported = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(q, supported));
}

// Exact quantile with linear interpolation between order statistics.
inline double SampleQuantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench

#endif  // ECLARITY_PERFBENCH_STATS_H_
