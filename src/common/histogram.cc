#include "common/histogram.h"

#include <algorithm>
#include <cstdio>

namespace udr {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

int Histogram::BucketFor(int64_t value) {
  if (value < 0) value = 0;
  if (value < kSubBuckets) return static_cast<int>(value);
  // Octave = position of the highest set bit above the sub-bucket range.
  int msb = 63 - __builtin_clzll(static_cast<unsigned long long>(value));
  int octave = msb - kSubBucketBits + 1;
  if (octave >= kOctaves - 1) octave = kOctaves - 2;
  int sub = static_cast<int>(value >> octave) & (kSubBuckets - 1);
  // Values in octave o span [2^(o+kSubBucketBits-1), 2^(o+kSubBucketBits)).
  int idx = (octave + 1) * kSubBuckets + sub;
  if (idx >= kBuckets) idx = kBuckets - 1;
  return idx;
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) return bucket;
  int octave = bucket / kSubBuckets - 1;
  int sub = bucket % kSubBuckets;
  return (static_cast<int64_t>(sub) + 1) << octave;
}

void Histogram::Record(int64_t value) { RecordMany(value, 1); }

void Histogram::RecordMany(int64_t value, int64_t n) {
  if (n <= 0) return;
  if (value < 0) value = 0;
  buckets_[BucketFor(value)] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  sum_ += value * n;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min();
  if (p >= 100) return max_;
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      int64_t ub = BucketUpperBound(i);
      return std::min(ub, max_);
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.1f p50=%lld p95=%lld p99=%lld max=%lld",
                static_cast<long long>(count_), Mean(),
                static_cast<long long>(P50()), static_cast<long long>(P95()),
                static_cast<long long>(P99()), static_cast<long long>(max_));
  return buf;
}

}  // namespace udr
