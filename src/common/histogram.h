// Latency/size histogram with exact percentile queries. Values are stored in
// logarithmic buckets (HdrHistogram-style, base-2 with linear sub-buckets) so
// recording is O(1) and memory is bounded regardless of sample count.

#ifndef UDR_COMMON_HISTOGRAM_H_
#define UDR_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace udr {

/// Fixed-memory histogram of non-negative int64 values.
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative values are clamped to zero.
  void Record(int64_t value);
  /// Records `count` identical samples.
  void RecordMany(int64_t value, int64_t count);

  /// Number of recorded samples.
  int64_t count() const { return count_; }
  /// Sum of recorded samples.
  int64_t sum() const { return sum_; }
  /// Minimum recorded value (0 when empty).
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  /// Maximum recorded value (0 when empty).
  int64_t max() const { return max_; }
  /// Arithmetic mean (0 when empty).
  double Mean() const;
  /// Value at the given percentile in [0, 100]. Returns an upper bound of the
  /// bucket containing the requested rank (<= 6.25% relative error).
  int64_t Percentile(double p) const;

  int64_t P50() const { return Percentile(50); }
  int64_t P95() const { return Percentile(95); }
  int64_t P99() const { return Percentile(99); }
  int64_t P999() const { return Percentile(99.9); }

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Resets to empty.
  void Reset();

  /// One-line summary "n=.. mean=.. p50=.. p95=.. p99=.. max=..".
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 linear sub-buckets per octave.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 48;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  static int BucketFor(int64_t value);
  static int64_t BucketUpperBound(int bucket);

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace udr

#endif  // UDR_COMMON_HISTOGRAM_H_
