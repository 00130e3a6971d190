// udrbench workloads: the four deployment + traffic shapes the benchmark
// measures, and one measured repetition ("round") of each.
//
// A round builds the deployment (timed as set-up), drives its traffic (timed
// as the traffic phase), then checks the outcome. A run repeats rounds of the
// same seed until its measuring budget is spent, so every round of a run must
// produce the same modelled result (the model digest) — the repeat check.
//
// Only public simulator APIs are called from here; host time is read with
// std::chrono::steady_clock, which the simulator itself may not use.

#ifndef UDRBENCH_WORKLOADS_H_
#define UDRBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "exec/shard_runtime.h"
#include "obs/trace.h"
#include "scenario/engine.h"

namespace udrbench {

/// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process (VmHWM) in bytes; 0 when unreadable.
int64_t PeakRssBytes();
/// Current resident set (VmRSS) in bytes; 0 when unreadable.
int64_t CurrentRssBytes();

/// FNV-1a 64 over a byte string (model digests).
uint64_t Fnv1a(const std::string& bytes);

/// Workload names in measuring order.
const std::vector<std::string>& WorkloadNames();
bool IsEngineWorkload(const std::string& name);

/// Scenario spec of an engine workload. `scale` shrinks population and
/// horizon together (1 = the measured size, 0.02 = smoke). A non-zero
/// `trace_rate` turns the program's own span sampler on.
udr::scenario::ScenarioSpec EngineSpec(const std::string& name, uint64_t seed,
                                       double scale, double trace_rate = 0.0);

/// Shape of the `sharded` workload. The population is kept small so a
/// round is short (about 0.35 s of traffic) and a run measures some twenty
/// of them.
struct ShardedShape {
  int shards = 3;
  uint64_t subscribers = 10000;
  int64_t ops = 500000;
  double write_fraction = 0.3;
  int batch_ops = 8;
  uint64_t seed = 1;
  double trace_rate = 0.0;
};
ShardedShape ShardedSpec(uint64_t seed, double scale);

/// One shard's slice as an engine deployment (one site, the shard's
/// replication factor, SE and partition counts, PoA window and share of the
/// population), so the layer replay can run on the sharded workload's shape.
udr::scenario::ScenarioSpec ShardSliceSpec(const ShardedShape& shape);

/// Counters read off a deployment after its traffic phase: the per-layer
/// work counts the ladder and the per-layer metrics are built from.
struct LayerCounters {
  int64_t subscribers = 0;
  int64_t store_bytes = 0;       ///< Modelled record bytes over every SE.
  int64_t stale_reads = 0;       ///< ReplicaSet::stale_reads(), all partitions.
  int64_t degraded_commits = 0;  ///< ReplicaSet::degraded_commits().
  int64_t replica_writes = 0;    ///< ReplicaSet::writes_accepted().
  int64_t per_op_calls = 0;      ///< LDAP ops that took the per-op verb path.
  int64_t batch_ops = 0;         ///< LDAP ops of batched / coalesced events.
  int64_t routed_ops = 0;        ///< Ops resolved by the router.
  int64_t route_batch_ops = 0;   ///< Ops inside Router::RouteBatch calls.
  double groups_per_batch = 0;   ///< Mean partition groups per RouteBatch.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_insertions = 0;
  int64_t cache_invalidations = 0;
  int64_t flushes = 0;           ///< Coalescer window flushes.
  double ops_per_flush = 0;
  int64_t queue_delay_p99_us = 0;  ///< Modelled park time in the window.
  int64_t migration_bytes = 0;
  int64_t migration_chunks = 0;
  double migration_drain_s = 0;  ///< Sim time from first task start to last end.
  int64_t migration_start_us = 0;
  int64_t migration_end_us = 0;
};

/// One measured repetition of an engine workload.
struct EngineRound {
  double setup_s = 0;    ///< Engine ctor: deployment + provisioning.
  double traffic_s = 0;  ///< Engine::Run: traffic, drain, audit, SLO rows.
  int64_t events = 0;    ///< FE procedures + PS operations attempted.
  int64_t failed = 0;
  uint64_t digest = 0;   ///< Fnv1a of the model-only report serialization.
  udr::scenario::ScenarioReport report;
  LayerCounters counters;
  std::vector<std::string> failures;  ///< Correctness checks that failed.
};

/// Runs one round. When `spans` is non-null the deployment's tracer (the
/// spec must set a trace rate) is merged into it after the run.
EngineRound RunEngineRound(const udr::scenario::ScenarioSpec& spec,
                           udr::obs::Tracer* spans = nullptr);

/// One measured repetition of the sharded workload, driven through the
/// exec::ShardRuntime public API with RunShardedTraffic's op stream.
struct ShardedRound {
  double setup_s = 0;    ///< ShardRuntime::Start (per-shard provisioning).
  double traffic_s = 0;  ///< First Submit through Finish (join).
  int64_t events = 0;    ///< Ops completed.
  int64_t failed = 0;
  int64_t order_violations = 0;
  int64_t seq_mismatches = 0;
  int64_t verified_subscribers = 0;
  uint64_t digest = 0;   ///< Fnv1a of the per-shard op/outcome counts.
  udr::exec::ShardRuntimeReport runtime;
  LayerCounters counters;
  /// Host ns of each Submit call (filled when timing was requested).
  udr::Histogram submit_ns;
  int64_t submit_total_ns = 0;
  int64_t submits = 0;
  std::vector<std::string> failures;
};

ShardedRound RunShardedRound(const ShardedShape& shape, bool time_submits,
                             udr::obs::Tracer* spans = nullptr);

}  // namespace udrbench

#endif  // UDRBENCH_WORKLOADS_H_
