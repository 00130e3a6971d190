// TimeSeriesSampler: a windowed, sim-time view over the Metrics registry.
//
// End-of-run counters and aggregate histograms answer "what happened"; they
// cannot answer "what was happening when the SLO broke" or feed a control
// loop that reacts to the last few hundred milliseconds. The sampler
// snapshots registered counter values and histogram quantiles every
// `interval` of *sim* time into fixed-size rings, and answers the two
// queries a controller needs: RateOver (counter delta per second over a
// trailing window) and QuantileAt (a histogram percentile as of a sim time).
// This is the substrate the ROADMAP's closed-loop control-plane item
// consumes — size coalesce windows from observed arrival rate, adapt
// migration bandwidth from observed foreground p99.
//
// Determinism: sampling happens at exact interval boundaries of the sim
// clock over a deterministic registry, so Serialize() is byte-identical
// across replays of the same seed (the scenario harness's replay contract).
//
// Thread safety: none — the sampler runs on the simulation driver thread,
// reading the registry through its thread-safe Get() and the single-threaded
// HistOrEmpty() accessor (the driver owns the registry while sampling).

#ifndef UDR_OBS_TIME_SERIES_H_
#define UDR_OBS_TIME_SERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/time.h"
#include "sim/clock.h"

namespace udr::obs {

/// Static configuration of one sampler.
struct TimeSeriesConfig {
  /// Sim time between samples. Must be > 0.
  MicroDuration interval = Millis(100);
  /// Points retained per series; older points fall off the ring.
  size_t ring_capacity = 256;
};

/// One retained sample point.
struct SamplePoint {
  MicroTime t = 0;
  double value = 0.0;
};

class TimeSeriesSampler {
 public:
  TimeSeriesSampler(TimeSeriesConfig config, const Metrics* metrics,
                    const sim::SimClock* clock);

  const TimeSeriesConfig& config() const { return config_; }

  /// Registers a counter to snapshot each tick (cumulative value series).
  void TrackCounter(const std::string& name);
  /// Registers a histogram percentile to snapshot each tick. The series is
  /// keyed (name, percentile); track p50 and p99 as two series.
  void TrackQuantile(const std::string& name, double percentile);

  /// Samples every registered series when the clock reached the next
  /// interval boundary; returns whether a sample was taken. Call on every
  /// driver wake (cheap when not due).
  bool MaybeSample();

  /// When the next sample is due (drivers advance the clock here, like
  /// coalescer window deadlines and migration pacing steps).
  MicroTime NextSampleDue() const { return next_due_; }

  int64_t samples_taken() const { return samples_taken_; }

  /// Counter rate per second over the trailing `window` ending at `now`:
  /// the value delta between the newest retained sample at or before `now`
  /// and the oldest retained sample inside the window, over their actual
  /// time distance. 0 when fewer than two samples land in the window.
  double RateOver(const std::string& counter, MicroDuration window,
                  MicroTime now) const;

  /// The tracked percentile of `name` as of time `t` (the newest sample at
  /// or before `t`; 0 when none is retained that early).
  double QuantileAt(const std::string& name, double percentile,
                    MicroTime t) const;

  /// Points currently retained for a counter series (oldest first; empty
  /// when the name is untracked).
  std::vector<SamplePoint> CounterSeries(const std::string& name) const;

  /// Deterministic text form, series sorted by name: one "series <name>"
  /// header plus "t:value" points per line. Byte-identical across replays.
  std::string Serialize() const;

 private:
  /// Fixed-capacity ring of sample points.
  struct Ring {
    std::vector<SamplePoint> points;  ///< Capacity-bounded storage.
    size_t head = 0;                  ///< Oldest retained point.
    int64_t total = 0;                ///< Points ever pushed.

    void Push(const SamplePoint& p, size_t capacity);
    size_t size() const { return points.size(); }
    /// Chronological index: 0 = oldest retained.
    const SamplePoint& at(size_t i) const {
      return points[(head + i) % points.size()];
    }
  };

  struct QuantileKey {
    std::string name;
    double percentile;
    bool operator<(const QuantileKey& o) const {
      if (name != o.name) return name < o.name;
      return percentile < o.percentile;
    }
  };

  /// Newest point at or before `t`; nullptr when none.
  static const SamplePoint* LatestAtOrBefore(const Ring& ring, MicroTime t);

  TimeSeriesConfig config_;
  const Metrics* metrics_;
  const sim::SimClock* clock_;
  MicroTime next_due_;
  int64_t samples_taken_ = 0;
  std::map<std::string, Ring> counters_;
  std::map<QuantileKey, Ring> quantiles_;
};

}  // namespace udr::obs

#endif  // UDR_OBS_TIME_SERIES_H_
