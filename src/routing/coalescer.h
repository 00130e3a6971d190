// Coalescer: the PoA's cross-event dispatch window.
//
// Router::RouteBatch amortizes ops arriving inside ONE signaling event; a
// production PoA serves many concurrent events, so the next amortization win
// is coalescing ops from *different* in-flight events into one partition-
// group dispatch window. The Coalescer parks events as they arrive, closes
// the window when the sim-clock deadline (`window`) passes or the size cap
// (`max_ops`) fills, and flushes everything as one RouteBatch — one grouped
// WriteBatch / ReadBatch per partition group across all coalesced events —
// then demultiplexes per-op results back to their originating events.
//
// An event's read projections (BatchRequest::projections) ride the window:
// the aggregate batch carries them as its own 1:1 side table, so a parked
// Search copies only its requested attributes, as an inline one does.
//
// Accounting splits each event's latency into queueing delay (submit ->
// window close) and service latency (the shared pipeline dispatch), so the
// cost of waiting for the window is visible separately from the work. Error
// isolation is per op and therefore per event: a failed op in one event
// never poisons another event sharing the window.

#ifndef UDR_ROUTING_COALESCER_H_
#define UDR_ROUTING_COALESCER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/handle_table.h"
#include "common/metrics.h"
#include "common/time.h"
#include "routing/batch.h"
#include "routing/router.h"
#include "sim/clock.h"

namespace udr::routing {

/// Static configuration of one PoA dispatch window.
struct CoalescerConfig {
  /// Window length: an event arriving at an empty window opens it and sets
  /// its close deadline `window` microseconds out. 0 disables coalescing —
  /// every Submit flushes immediately (behavior identical to a direct
  /// RouteBatch per event).
  MicroDuration window = 0;
  /// Closes the window early once this many ops are parked (0 = no cap,
  /// deadline-only close).
  size_t max_ops = 0;
  /// PoA whose location stage resolves the flushed batch.
  sim::SiteId poa_site = 0;
};

/// Identifies one submitted event within its coalescer.
using EventId = uint64_t;

/// One event's demultiplexed share of a window flush.
struct EventOutcome {
  std::vector<OpOutcome> outcomes;  ///< 1:1 with the event's submitted ops.
  /// Time the event spent parked waiting for its window to close.
  MicroDuration queue_delay = 0;
  /// Modelled latency of the shared pipeline dispatch (resolution + slowest
  /// partition-group; every event in the window completes with the flush).
  MicroDuration service_latency = 0;
  int coalesced_events = 0;  ///< Events that shared this flush.
  int partition_groups = 0;  ///< Fan-out of the whole shared dispatch.
  int bypass_hits = 0;       ///< This event's ops served by the hash fast path.
  int cache_hits = 0;        ///< This event's reads served by the PoA cache.
  int failed_ops = 0;        ///< This event's failed ops (isolation is per op).

  bool ok() const { return failed_ops == 0; }
  /// Client-observed latency contribution: waiting plus service.
  MicroDuration latency() const { return queue_delay + service_latency; }
};

/// Cross-event dispatch window in front of one PoA's Router pipeline.
class Coalescer {
 public:
  Coalescer(CoalescerConfig config, Router* router, const sim::SimClock* clock,
            Metrics* metrics);

  const CoalescerConfig& config() const { return config_; }

  /// Parks one event's ops in the window; opens the window when it is the
  /// first arrival. May flush inline (window 0, or the size cap filled);
  /// completed outcomes are claimed with Take().
  EventId Submit(BatchRequest event);

  /// Flushes the window when the sim clock has reached its deadline.
  /// Returns whether a flush happened. Drivers call this whenever they
  /// advance the clock.
  bool FlushIfDue();

  /// Closes the window now regardless of deadline (end-of-run barrier).
  void FlushNow();

  /// Claims a completed event's outcome; nullopt while it is still parked.
  std::optional<EventOutcome> Take(EventId id);

  bool HasPending() const { return !pending_.empty(); }
  size_t pending_events() const { return pending_.size(); }
  size_t pending_ops() const { return pending_ops_; }
  /// Close deadline of the open window; kTimeInfinity when none is open.
  MicroTime deadline() const {
    return pending_.empty() ? kTimeInfinity : deadline_;
  }
  int64_t flushes() const { return flushes_; }

 private:
  struct Parked {
    EventId id = 0;
    BatchRequest event;
    MicroTime arrival = 0;
  };

  /// Aggregates every parked event into one RouteBatch, dispatches it and
  /// demultiplexes per-op results back to their events. `reason` is the
  /// pre-registered counter of the close trigger (deadline / cap /
  /// passthrough / barrier — a fixed set, so no dynamic metric names).
  void Flush(Metrics::Counter& reason);

  CoalescerConfig config_;
  Router* router_;
  const sim::SimClock* clock_;
  Metrics* metrics_;
  // Window-stat handles: the coalescer sits on every event submission, so
  // its counters are pre-registered rather than string-looked-up per op.
  Metrics::Counter events_;
  Metrics::Counter flush_passthrough_;
  Metrics::Counter flush_cap_;
  Metrics::Counter flush_deadline_;
  Metrics::Counter flush_barrier_;
  Metrics::HistHandle flush_ops_;
  Metrics::HistHandle flush_events_;
  Metrics::HistHandle flush_groups_;
  Metrics::HistHandle queue_delay_;

  std::vector<Parked> pending_;  ///< Arrival order (per-key order across events).
  size_t pending_ops_ = 0;
  MicroTime deadline_ = kTimeInfinity;
  EventId next_id_ = 1;
  int64_t flushes_ = 0;
  /// One entry per submitted event still to be taken, in id order: empty
  /// while parked, the outcome once its window flushed.
  HandleTable<std::optional<EventOutcome>> completed_;
  // Flush scratch, reused across flushes: the aggregate batch (with its
  // projection side table) and its outcomes (moved out per event on demux).
  BatchRequest agg_;
  BatchResult flush_;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_COALESCER_H_
