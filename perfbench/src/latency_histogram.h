#ifndef PERFBENCH_LATENCY_HISTOGRAM_H_
#define PERFBENCH_LATENCY_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear histogram of nanosecond latencies: 64 buckets per power of
/// two, so a bucket is at most 1/64 (1.6%) wide. The engine's own
/// lsmlab::Histogram grows buckets by 25%, which is coarser than the
/// regression bounds this benchmark enforces.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  void Add(uint64_t ns) {
    buckets_[Index(ns)]++;
    count_++;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile (0 < q < 1) in nanoseconds, interpolated linearly by
  /// rank inside the bucket that holds it.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    double rank = q * static_cast<double>(count_);
    double seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      double n = static_cast<double>(buckets_[i]);
      if (n > 0 && seen + n >= rank) {
        double lo = static_cast<double>(Lower(i));
        double hi = static_cast<double>(Lower(i + 1));
        return lo + (hi - lo) * (rank - seen) / n;
      }
      seen += n;
    }
    return static_cast<double>(Lower(kNumBuckets));
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Values up to 2^40 ns (18 minutes); larger ones land in the last bucket.
  static constexpr size_t kNumBuckets = kSub * (40 - kSubBits + 1);

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    int e = std::bit_width(v) - 1;  // e >= kSubBits
    size_t i = static_cast<size_t>(kSub * static_cast<uint64_t>(e - kSubBits + 1) +
                                   ((v >> (e - kSubBits)) & (kSub - 1)));
    return i < kNumBuckets ? i : kNumBuckets - 1;
  }

  /// Smallest value of bucket `i`.
  static uint64_t Lower(size_t i) {
    if (i < kSub) {
      return i;
    }
    uint64_t e = i / kSub + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_HISTOGRAM_H_
