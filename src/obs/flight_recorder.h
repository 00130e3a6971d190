// FlightRecorder: a bounded ring of recent structured control-plane events.
//
// When an SLO row fails, end-of-run counters say *that* something broke;
// the flight recorder says *what the system was doing* in the sim-seconds
// before the breach — route-resolve failures, cluster drain/restore flips,
// partition split/merge decisions, migration cutovers and failures, SLO
// evaluations. Components record into per-component rings (so a chatty
// component cannot evict another's history); scenario::Engine dumps the
// whole recorder automatically on any SLO failure and scenario::Verifier
// on any audit failure, so a failing scenario ships its own diagnosis.
//
// Scope: control-plane events only — decisions, transitions, evaluations.
// Per-op data-path records belong to trace spans (obs/trace.h); keeping the
// recorder off the hot path keeps its cost independent of throughput.
//
// Determinism: events carry sim timestamps and Dump() iterates components
// in sorted order, so a dump is byte-identical across seeded replays.
//
// Thread safety: none — record from the simulation driver thread only
// (per-shard UdrNf instances each own their shard's recorder, mirroring the
// per-shard Metrics/Tracer ownership).

#ifndef UDR_OBS_FLIGHT_RECORDER_H_
#define UDR_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"

namespace udr::obs {

/// One recorded control-plane event.
struct FlightEvent {
  MicroTime t = 0;
  const char* kind = "";  ///< Static event kind ("cutover", "slo.fail", ...).
  std::string detail;     ///< Free-form context ("partition=3 se=7").
};

class FlightRecorder {
 public:
  /// `capacity` = events retained per component; older ones are evicted.
  explicit FlightRecorder(size_t capacity = 256) : capacity_(capacity) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  size_t capacity() const { return capacity_; }

  /// Records one event under `component` (e.g. "router", "migration").
  /// `kind` must be a static string; `detail` is copied.
  void Record(MicroTime t, const std::string& component, const char* kind,
              std::string detail);

  /// Events currently retained for one component, oldest first.
  std::vector<FlightEvent> Events(const std::string& component) const;

  int64_t total_recorded() const { return total_recorded_; }
  int64_t total_evicted() const { return total_evicted_; }
  /// Events currently retained across all components.
  size_t retained() const;

  /// Human-readable dump, components sorted by name, events oldest first:
  ///   [component] t=<us> <kind> <detail>
  /// Byte-identical across seeded replays.
  std::string Dump() const;

 private:
  /// Fixed-capacity ring of events per component.
  struct Ring {
    std::vector<FlightEvent> events;  ///< Capacity-bounded storage.
    size_t head = 0;                  ///< Oldest retained event.

    size_t size() const { return events.size(); }
    const FlightEvent& at(size_t i) const {
      return events[(head + i) % events.size()];
    }
  };

  size_t capacity_;
  int64_t total_recorded_ = 0;
  int64_t total_evicted_ = 0;
  std::map<std::string, Ring> rings_;
};

}  // namespace udr::obs

#endif  // UDR_OBS_FLIGHT_RECORDER_H_
