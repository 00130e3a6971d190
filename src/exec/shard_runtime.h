// ShardRuntime: the multi-threaded execution mode. N shards, each confined
// to its own worker thread with a private data-path slice (see shard.h), fed
// through one SPSC handoff ring per shard. The driver thread is the single
// producer for every ring; each worker is the single consumer of its own.
//
// Throughput accounting is explicit about cores: each worker measures its
// busy CPU time (CLOCK_THREAD_CPUTIME_ID around Execute/Drain, excluding
// idle polling), and the report derives
//   aggregate_ops_per_sec = sum_i(ops_i / busy_cpu_sec_i)
// — the total service capacity the shards would sustain given a core each.
// On a machine with fewer cores than shards the wall-clock rate
// (wall_ops_per_sec) is lower because shards time-share; both are reported.
// The CPU-time basis is what makes contention visible: any cross-shard
// shared state (a contended lock, a shared allocator arena) inflates
// busy-ns/op and drags the aggregate down even when wall time hides it.

#ifndef UDR_EXEC_SHARD_RUNTIME_H_
#define UDR_EXEC_SHARD_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/shard.h"
#include "exec/spsc_queue.h"
#include "obs/trace.h"

namespace udr::exec {

struct ShardRuntimeOptions {
  int num_shards = 1;
  ShardOptions shard;
  /// Capacity of each shard's SPSC handoff ring (rounded up to a power of
  /// two). A full ring back-pressures the driver (Submit spins with yield).
  size_t queue_capacity = 4096;
  /// When set, shard slices follow this real PartitionMap (partition-aligned
  /// ShardSlicer): a shard owns whole partitions, so the scenario harness can
  /// run sharded with the same placement its single-threaded data path uses.
  /// Must outlive the runtime and stay structurally unmutated (no
  /// commissioning / splits / retires) between Start() and Finish().
  const routing::PartitionMap* slice_map = nullptr;
};

/// Per-shard slice of the final report.
struct ShardReport {
  int64_t ops = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t batches = 0;
  int64_t order_violations = 0;
  int64_t provisioned = 0;
  int64_t busy_ns = 0;  ///< Worker CPU time spent executing (not idling).
  double ops_per_busy_sec() const {
    return busy_ns > 0 ? ops * 1e9 / static_cast<double>(busy_ns) : 0.0;
  }
};

/// Aggregate outcome of one sharded run.
struct ShardRuntimeReport {
  std::vector<ShardReport> shards;
  int64_t ops_submitted = 0;
  int64_t ops_done = 0;
  int64_t ops_failed = 0;
  int64_t order_violations = 0;
  int64_t wall_ns = 0;  ///< Wall time from the provisioning barrier to join.
  /// End-to-end throughput over wall time (time-shared on few cores).
  double wall_ops_per_sec = 0.0;
  /// Sum of per-shard CPU-time service rates: the capacity with a core per
  /// shard. The scaling gate of bench_sharded_scale runs on this.
  double aggregate_ops_per_sec = 0.0;
  /// aggregate divided by shard count — per-core efficiency; flat across
  /// shard counts means no cross-shard contention.
  double ops_per_sec_per_core = 0.0;
};

/// Owns the worker threads and handoff rings of one sharded run.
///
/// Lifecycle: construct -> Start() -> Submit()* -> Finish() -> report/shard().
class ShardRuntime {
 public:
  explicit ShardRuntime(const ShardRuntimeOptions& opts);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Spawns the workers; each builds and provisions its own Shard (thread
  /// confinement: the Shard is born and dies on its worker). Blocks until
  /// every shard finished provisioning.
  void Start();

  /// Routes one batch to shard `shard`'s handoff ring. Single-producer: call
  /// only from the driver thread. Spins (with yield) while the ring is full.
  void Submit(ShardBatch batch, int shard);

  /// Owning shard of a subscriber under this runtime's shard count (served
  /// by a long-lived ring slicer — the driver calls this per op).
  int ShardOf(uint64_t subscriber) const { return slicer_->ShardOf(subscriber); }

  /// Signals end-of-stream, joins the workers (each drains its ring and its
  /// dispatch window first) and assembles the report. Idempotent.
  const ShardRuntimeReport& Finish();

  const ShardRuntimeReport& report() const { return report_; }

  /// The shards survive their workers for post-run verification (ReadSeq,
  /// metrics). Valid only after Finish().
  Shard& shard(int i) { return *shards_[i]; }

  /// Every shard's UdrNf metrics merged into one registry (post-Finish).
  void MergeMetricsInto(Metrics* out) const;

  /// Every shard's spans merged into one tracer (post-Finish; the joins are
  /// the happens-before edges). No-op for shards that ran untraced.
  void MergeTracersInto(obs::Tracer* out) const;

 private:
  void WorkerLoop(int index);

  // Concurrency contract (thread confinement, not locks — nothing here is
  // GUARDED_BY because nothing is shared mutable while threads run):
  //   * opts_, slicer_, queues_ are frozen before Start() spawns workers and
  //     only read afterwards (the queue OBJECTS are shared; their internal
  //     SPSC discipline is enforced in spsc_queue.h);
  //   * shards_[i] and busy_ns_[i] are written only by worker i, and read by
  //     the driver only after Finish() joined that worker (the join is the
  //     happens-before edge);
  //   * submitted_, start_wall_ns_, finished_, report_ are driver-thread
  //     only (construct/Submit/Finish all happen on the driver);
  //   * ready_ and done_ are the cross-thread signals, acquire/release.
  ShardRuntimeOptions opts_;
  std::unique_ptr<ShardSlicer> slicer_;  ///< Built once num_shards is final.
  std::vector<std::unique_ptr<SpscQueue<ShardBatch>>> queues_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< Slot i filled by worker i.
  std::vector<std::thread> workers_;
  std::vector<int64_t> busy_ns_;  ///< Per-worker, written before join.
  std::atomic<int> ready_{0};
  std::atomic<bool> done_{false};
  int64_t submitted_ = 0;   ///< Driver thread only.
  uint64_t trace_counter_ = 0;  ///< Driver thread only (handoff trace ids).
  int64_t start_wall_ns_ = 0;  ///< Driver thread only.
  bool finished_ = false;   ///< Driver thread only.
  ShardRuntimeReport report_;  ///< Driver thread only (post-join).
};

}  // namespace udr::exec

#endif  // UDR_EXEC_SHARD_RUNTIME_H_
