#include "obs/time_series.h"

#include <cinttypes>
#include <cstdio>

namespace udr::obs {

void TimeSeriesSampler::Ring::Push(const SamplePoint& p, size_t capacity) {
  ++total;
  if (capacity == 0) return;
  if (points.size() < capacity) {
    points.push_back(p);
    return;
  }
  points[head] = p;
  head = (head + 1) % points.size();
}

TimeSeriesSampler::TimeSeriesSampler(TimeSeriesConfig config,
                                     const Metrics* metrics,
                                     const sim::SimClock* clock)
    : config_(config), metrics_(metrics), clock_(clock) {
  if (config_.interval <= 0) config_.interval = Millis(100);
  // First sample lands one interval after construction, so a scenario's
  // t=0 state (all zeros) is not a wasted ring slot.
  next_due_ = clock_->Now() + config_.interval;
}

void TimeSeriesSampler::TrackCounter(const std::string& name) {
  counters_.emplace(name, Ring{});
}

void TimeSeriesSampler::TrackQuantile(const std::string& name,
                                      double percentile) {
  quantiles_.emplace(QuantileKey{name, percentile}, Ring{});
}

bool TimeSeriesSampler::MaybeSample() {
  const MicroTime now = clock_->Now();
  if (now < next_due_) return false;
  // One sample per due boundary even if the driver slept past several: the
  // retained points then carry their true (sparser) spacing, which RateOver
  // already handles by dividing by actual time distance.
  const MicroTime t = next_due_;
  while (next_due_ <= now) next_due_ += config_.interval;
  for (auto& [name, ring] : counters_) {
    ring.Push(SamplePoint{t, static_cast<double>(metrics_->Get(name))},
              config_.ring_capacity);
  }
  for (auto& [key, ring] : quantiles_) {
    const Histogram& h = metrics_->HistOrEmpty(key.name);
    ring.Push(SamplePoint{t, static_cast<double>(h.Percentile(key.percentile))},
              config_.ring_capacity);
  }
  ++samples_taken_;
  return true;
}

const SamplePoint* TimeSeriesSampler::LatestAtOrBefore(const Ring& ring,
                                                       MicroTime t) {
  // Points are chronological; walk back from the newest retained point.
  for (size_t i = ring.size(); i > 0; --i) {
    const SamplePoint& p = ring.at(i - 1);
    if (p.t <= t) return &p;
  }
  return nullptr;
}

double TimeSeriesSampler::RateOver(const std::string& counter,
                                   MicroDuration window, MicroTime now) const {
  auto it = counters_.find(counter);
  if (it == counters_.end()) return 0.0;
  const Ring& ring = it->second;
  const SamplePoint* newest = LatestAtOrBefore(ring, now);
  if (newest == nullptr) return 0.0;
  const MicroTime floor = now - window;
  const SamplePoint* oldest = nullptr;
  for (size_t i = 0; i < ring.size(); ++i) {
    const SamplePoint& p = ring.at(i);
    if (p.t >= floor && p.t <= now) {
      oldest = &p;
      break;
    }
  }
  if (oldest == nullptr || oldest->t >= newest->t) return 0.0;
  const double dv = newest->value - oldest->value;
  const double dt_s = ToSeconds(newest->t - oldest->t);
  return dv / dt_s;
}

double TimeSeriesSampler::QuantileAt(const std::string& name, double percentile,
                                     MicroTime t) const {
  auto it = quantiles_.find(QuantileKey{name, percentile});
  if (it == quantiles_.end()) return 0.0;
  const SamplePoint* p = LatestAtOrBefore(it->second, t);
  return p == nullptr ? 0.0 : p->value;
}

std::vector<SamplePoint> TimeSeriesSampler::CounterSeries(
    const std::string& name) const {
  std::vector<SamplePoint> out;
  auto it = counters_.find(name);
  if (it == counters_.end()) return out;
  out.reserve(it->second.size());
  for (size_t i = 0; i < it->second.size(); ++i) out.push_back(it->second.at(i));
  return out;
}

std::string TimeSeriesSampler::Serialize() const {
  // Values are counters and bucketed percentiles — integers in doubles — so
  // %.6g prints them exactly and byte-stably (the scenario replay contract).
  std::string out;
  char buf[64];
  auto append_points = [&](const Ring& ring) {
    for (size_t i = 0; i < ring.size(); ++i) {
      const SamplePoint& p = ring.at(i);
      std::snprintf(buf, sizeof(buf), " %" PRId64 ":%.6g", p.t, p.value);
      out += buf;
    }
    out += '\n';
  };
  for (const auto& [name, ring] : counters_) {
    out += "series counter ";
    out += name;
    append_points(ring);
  }
  for (const auto& [key, ring] : quantiles_) {
    std::snprintf(buf, sizeof(buf), " p%.6g", key.percentile);
    out += "series quantile ";
    out += key.name;
    out += buf;
    append_points(ring);
  }
  return out;
}

}  // namespace udr::obs
