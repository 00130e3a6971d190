// udrbench layer replay: one seeded op stream driven top-down through every
// public boundary of the simulator, one boundary per pass, on a freshly
// provisioned deployment of the workload's shape:
//
//   telecom (HlrFe / HssFe / ProvisioningSystem procedures)
//     -> udr (UdrNf::Process per op, UdrNf::ProcessBatch per procedure)
//     -> coalescer (Coalescer::Submit + FlushIfDue + Take)
//     -> routing (Router::RouteBatch per procedure, and per coalesced window)
//     -> location (Router::ResolveAt)
//     -> replication (ReplicaSet::ReadBatch / WriteBatch / CatchUpAll)
//     -> storage (Record::FindById, storage::ApplyWriteOp, CommitLog::Append)
//   plus migration (ReplicaSet::ShipMigrationChunk).
//
// Each call's host ns goes into a per-boundary histogram; a layer's self
// time is its boundary minus the next boundary down on the same stream.

#ifndef UDRBENCH_LAYERS_H_
#define UDRBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"
#include "scenario/engine.h"

namespace udrbench {

/// Host time spent in one public boundary over the replayed stream.
struct BoundaryStat {
  udr::Histogram ns;  ///< Per call, timer overhead removed.
  int64_t total_ns = 0;
  int64_t calls = 0;

  void Add(int64_t call_ns) {
    ns.Record(call_ns);
    total_ns += call_ns;
    ++calls;
  }
  double NsPerCall() const {
    return calls > 0 ? static_cast<double>(total_ns) / calls : 0.0;
  }
};

/// The traffic the replay draws its op stream from: the workload's own
/// deployment and its measured PS / storm shares of all procedures.
struct ReplayMix {
  udr::scenario::ScenarioSpec spec;
  double ps_share = 0;
  double storm_share = 0;
  int64_t procedures = 100000;
};

struct ReplayResult {
  /// Keyed by boundary name ("telecom.procedure", "udr.process", ...).
  std::map<std::string, BoundaryStat> boundaries;
  int64_t passes = 0;
  /// Work in one pass of the stream.
  int64_t procedures = 0;
  int64_t ops = 0;        ///< LDAP ops.
  int64_t catchup_entries = 0;  ///< Slave log applies, all passes.
  /// Ops that failed at any boundary (a failing op times an error path, not
  /// the layer, so the run counts it as incorrect).
  int64_t failed_ops = 0;
  int64_t timer_overhead_ns = 0;
  /// Sampled host-time spans of the boundary calls (Chrome/Perfetto JSON,
  /// one lane per boundary, timestamps in host microseconds).
  std::string host_trace_json;
};

/// Provisions a deployment of `mix.spec`'s shape (timing each
/// CreateSubscriber as "udr.create"), then replays the stream pass by pass
/// until `budget_s` of host time is spent (at least one pass).
ReplayResult ReplayLayers(const ReplayMix& mix, uint64_t seed, double budget_s);

}  // namespace udrbench

#endif  // UDRBENCH_LAYERS_H_
