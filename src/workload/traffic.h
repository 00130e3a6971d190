// Traffic-mix runner: drives a deterministic blend of front-end network
// procedures and PS service-management operations against a Testbed while
// the network experiences whatever partition/crash schedule the scenario
// installed. Produces the per-class availability and latency statistics the
// paper reasons about (FE traffic is mostly reads and survives partitions;
// PS traffic is mostly writes and fails on the minority side — §4.1).

#ifndef UDR_WORKLOAD_TRAFFIC_H_
#define UDR_WORKLOAD_TRAFFIC_H_

#include <cstdint>

#include "common/histogram.h"
#include "common/time.h"
#include "telecom/front_end.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"

namespace udr::workload {

/// Parameters of one traffic run.
struct TrafficOptions {
  MicroDuration duration = Seconds(60);
  double fe_rate_per_sec = 200.0;   ///< FE network procedures per second.
  double ps_rate_per_sec = 5.0;     ///< PS service-management ops per second.
  double ims_fraction = 0.15;       ///< Share of FE procedures that are IMS.
  double roaming_fraction = 0.05;   ///< FE procedures served away from home.
  uint64_t subscriber_count = 1000; ///< Population to draw subscribers from.
  /// Skew of the subscriber draw: 0 = uniform (the historical stream,
  /// byte-identical to before the knob existed); 0 < theta < 1 draws from a
  /// Zipf(theta) distribution over the population, rank 0 hottest — the
  /// YCSB-style skewed workload the heat tier is judged against.
  /// Deterministic given `seed`.
  double zipf_theta = 0.0;
  uint64_t seed = 7;
  sim::SiteId ps_site = 0;          ///< PS is co-located with this PoA.
  /// Ship each procedure's ops as ONE multi-op message through the batched
  /// data-path pipeline (FE procedures and PS read-modify-writes) instead of
  /// one northbound round trip per op.
  bool batched = false;
  /// Cross-event coalescing driver: > 1 issues this many concurrent FE
  /// signaling events per arrival tick, each enqueued into the PoA's
  /// dispatch window (FrontEnd deferred mode) instead of executing inline;
  /// the driver advances the clock to each window's deadline, pumps the
  /// flush and collects the demuxed per-event results. Only meaningful when
  /// the UDR deploys `coalesce_window_us > 0`; 1 = the inline drivers above.
  int concurrent_events = 1;
  /// Sharded multi-threaded execution mode (RunShardedTraffic, src/exec/):
  /// split the subscriber space over this many shards, each a complete
  /// data-path slice on its own worker thread behind an SPSC handoff ring.
  /// 1 = single shard (still threaded, for apples-to-apples scaling runs).
  int num_shards = 1;
  /// Total operations the sharded driver submits across all shards.
  int64_t sharded_total_ops = 20000;
  /// Fraction of sharded ops that are writes (seq-stamping modifies).
  double sharded_write_fraction = 0.3;
  /// Ops the driver accumulates per shard before handing off one batch.
  int sharded_batch_ops = 8;
};

/// Aggregated statistics for one traffic class.
struct ClassStats {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t ldap_ops = 0;
  int64_t stale_procedures = 0;
  Histogram latency;  ///< Procedure latency (µs), successful procedures only.

  double availability() const {
    return attempted == 0
               ? 1.0
               : static_cast<double>(ok) / static_cast<double>(attempted);
  }
  void Fold(const telecom::ProcedureResult& r) {
    ++attempted;
    ldap_ops += r.ldap_ops;
    if (r.any_stale) ++stale_procedures;
    if (r.ok()) {
      ++ok;
      latency.Record(r.latency);
    } else {
      ++failed;
    }
  }
  void Merge(const ClassStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    ldap_ops += o.ldap_ops;
    stale_procedures += o.stale_procedures;
    latency.Merge(o.latency);
  }
};

/// Results of a traffic run, split by class.
struct TrafficReport {
  ClassStats fe_read;   ///< Read-only FE procedures.
  ClassStats fe_write;  ///< FE procedures containing writes.
  ClassStats ps;        ///< Provisioning-system operations.
  /// FE procedures that ran while a background migration was in flight
  /// (also counted in fe_read/fe_write) — the foreground-impact view the
  /// bandwidth model is judged by. Empty unless a migration was in flight.
  ClassStats fe_during_migration;
  /// Queueing delay of deferred FE events (time parked in the PoA dispatch
  /// window, µs) — empty unless the concurrent-event driver ran.
  Histogram fe_queue_delay;

  ClassStats FeAll() const {
    ClassStats all = fe_read;
    all.Merge(fe_write);
    return all;
  }
};

/// Runs the mix against `bed` for `opts.duration`, advancing the testbed
/// clock. Subscribers must already be provisioned ([0, subscriber_count)).
TrafficReport RunTraffic(Testbed& bed, const TrafficOptions& opts);

}  // namespace udr::workload

#endif  // UDR_WORKLOAD_TRAFFIC_H_
