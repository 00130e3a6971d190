// One shard of the real-concurrency execution mode: a complete, self-owned
// slice of the UDR data path — its own PartitionMap (partitions, replica
// sets, storage elements), its own PoA dispatch window (routing::Coalescer)
// and its own sim clock/network — confined to a single worker thread.
//
// The subscriber space is split by a ShardSlicer: ShardOf(i) names the only
// shard that ever touches subscriber i's record, so shards share NOTHING
// mutable except the thread-safe attribute intern pool and the SPSC handoff
// queues in front of them (spsc_queue.h). Per-key operation order is
// preserved end to end: the driver emits per-subscriber monotonically
// increasing sequence numbers, the SPSC ring is FIFO, and the shard executes
// on one thread through the Coalescer, whose flushes preserve per-key order
// across coalesced events.

#ifndef UDR_EXEC_SHARD_H_
#define UDR_EXEC_SHARD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "location/identity.h"
#include "obs/trace.h"
#include "routing/coalescer.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "telecom/subscriber.h"
#include "udr/udr_nf.h"

namespace udr::routing {
class PartitionMap;
}  // namespace udr::routing

namespace udr::exec {

/// Maps subscribers to shards. Hash mode: a subscriber lands on shard
/// JumpHash(location::HashIdentity(imsi), num_shards), a stateless jump
/// consistent hash (Lamping & Veach, arXiv:1406.2294) of the same identity
/// hash that keys records under hash placement. The owner is a pure function
/// of the key, every shard gets an equal share of the key space, and growing
/// the shard count from n to n+1 moves only the ~1/(n+1) of subscribers that
/// land on the new shard. IMSIs are seed-independent, so the slicer needs no
/// workload seed to agree with every factory.
///
/// Partition-aligned mode (the scenario-harness contract): constructed over a
/// real routing::PartitionMap, the slicer resolves a subscriber to its actual
/// partition and deals live partitions round-robin across shards, so a shard's
/// slice is a union of whole partitions — every subscriber of one partition
/// is owned by exactly one shard, matching the data path's own placement
/// instead of an independent hash. ShardOf() is const and lock-free; a shared
/// slicer is safe across worker threads as long as the map is not mutated
/// (no commissioning / splits / retires) while a run is in flight.
class ShardSlicer {
 public:
  explicit ShardSlicer(int num_shards);
  /// Partition-aligned mode. `map` must be commissioned, outlive the slicer
  /// and stay structurally unmutated while shards execute.
  ShardSlicer(const routing::PartitionMap* map, int num_shards);

  int ShardOf(uint64_t subscriber) const;
  int num_shards() const { return num_shards_; }
  bool partition_aligned() const { return map_ != nullptr; }
  /// Shard owning a partition's whole slice (partition-aligned mode only;
  /// -1 for retired partitions or hash mode).
  int ShardOfPartition(uint32_t partition) const;

 private:
  int num_shards_;
  telecom::SubscriberFactory factory_;
  const routing::PartitionMap* map_ = nullptr;
  std::vector<int> partition_shard_;  ///< Partition id -> owning shard.
};

/// Per-shard deployment knobs.
struct ShardOptions {
  /// Global subscriber population; each shard provisions the subset hashing
  /// to it.
  uint64_t total_subscribers = 1000;
  uint64_t seed = 42;
  int se_per_cluster = 2;
  int partitions_per_se = 2;
  int replication_factor = 2;
  /// PoA dispatch window of the shard's coalescer: size cap and sim-time
  /// deadline (Execute advances the shard's own clock by `tick` per batch).
  size_t dispatch_max_ops = 64;
  MicroDuration dispatch_window = Micros(200);
  MicroDuration tick = Micros(50);
  /// Trace sampling of handoff batches (0 = tracing off). The DRIVER decides
  /// sampling (Tracer::SampleDecision over this rate and `seed`) and stamps
  /// ShardBatch::trace; each shard's own tracer records the spans on its
  /// private sim clock, lane = shard index.
  double trace_sample_rate = 0.0;
};

/// One operation handed to a shard: a read of the subscriber's profile or a
/// write stamping `seq` into its record. `seq` is per-subscriber
/// monotonically increasing on the driver side — the shard verifies it never
/// observes a regression (per-key order across the handoff).
struct ShardOp {
  bool write = false;
  uint64_t subscriber = 0;
  uint64_t seq = 0;
};

/// The handoff unit: every op in a batch must belong to the same shard.
struct ShardBatch {
  std::vector<ShardOp> ops;
  /// Stamped by the driver before the SPSC push (trace id from the driver's
  /// counter, sampling decided there); the consuming shard's tracer opens
  /// the "shard.execute" span under it, so a trace follows the batch across
  /// the thread handoff.
  obs::TraceContext trace;
};

/// Counters a shard accumulates on its worker thread (read after join).
struct ShardStats {
  int64_t ops = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t batches = 0;
  int64_t order_violations = 0;
};

class Shard {
 public:
  /// Shares the runtime's slicer so provisioning and routing agree on the
  /// slice boundary. `slicer` must outlive the shard.
  Shard(int index, const ShardSlicer* slicer, const ShardOptions& opts);
  ~Shard();

  int index() const { return index_; }

  /// Builds the shard's data-path slice and provisions its subscriber
  /// subset. Call from the worker thread before executing batches.
  void Provision();

  /// Executes one handed-off batch through the shard's dispatch window.
  void Execute(const ShardBatch& batch);

  /// End-of-stream barrier: flushes the dispatch window and collects every
  /// outstanding outcome.
  void Drain();

  const ShardStats& stats() const { return stats_; }
  int64_t provisioned() const { return provisioned_; }
  udrnf::UdrNf& udr() { return *udr_; }

  /// Master-copy read of the subscriber's stamped sequence ("shard-seq"
  /// attribute); nullopt when the subscriber is unknown here or never
  /// written. Post-run verification hook: call after ShardRuntime::Finish()
  /// joined the worker and handed the shard to the calling thread.
  std::optional<int64_t> ReadSeq(uint64_t subscriber);

 private:
  void CollectOutcomes();
  location::Identity IdentityOf(uint64_t subscriber) const;

  int index_;
  const ShardSlicer* slicer_;
  ShardOptions opts_;
  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<udrnf::UdrNf> udr_;
  telecom::SubscriberFactory factory_;
  std::unique_ptr<routing::Coalescer> window_;
  std::vector<routing::EventId> pending_;
  std::unordered_map<uint64_t, uint64_t> last_seq_;  ///< Per-key order check.
  ShardStats stats_;
  int64_t provisioned_ = 0;
};

}  // namespace udr::exec

#endif  // UDR_EXEC_SHARD_H_
