// ShardRuntime: the multi-threaded execution mode. N shards, each confined
// to its own worker thread with a private data-path slice (see shard.h), fed
// through one SPSC handoff ring per shard. The driver thread is the single
// producer for every ring; each worker is the single consumer of its own.
//
// Idle workers park: a worker whose ring stays empty through a bounded spin
// sleeps on its shard's mutex and condition variable, and Submit/Finish wake
// it only when its `sleeping` flag is set (a Dekker handshake, see Park), so
// an idle shard gives its core back instead of polling it.
//
// Throughput accounting is explicit about cores: each worker measures its
// busy CPU time (CLOCK_THREAD_CPUTIME_ID read when the worker switches
// between busy and idle: a busy run starts at the first successful pop after
// idling and ends at the first empty poll, so spinning and parking are
// excluded), and the report derives
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
#include "common/mutex.h"
#include "exec/shard.h"
#include "exec/spsc_queue.h"
#include "obs/trace.h"

namespace udr::exec {

struct ShardRuntimeOptions {
  int num_shards = 1;
  ShardOptions shard;
  /// Capacity of each shard's SPSC handoff ring (rounded up to a power of
  /// two). A full ring back-pressures the driver (Submit yields until the
  /// worker frees a slot).
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
  int64_t parks = 0;    ///< Times the worker slept on an empty ring.
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

  /// Routes one batch to shard `shard`'s handoff ring and wakes the shard's
  /// worker if it is parked. Single-producer: call only from the driver
  /// thread. Yields while the ring is full.
  void Submit(ShardBatch batch, int shard);

  /// Owning shard of a subscriber under this runtime's shard count (served
  /// by a long-lived slicer — the driver calls this per op).
  int ShardOf(uint64_t subscriber) const { return slicer_->ShardOf(subscriber); }

  /// Signals end-of-stream, joins the workers (each drains its ring and its
  /// dispatch window first), hands every shard's thread-confined objects to
  /// the calling thread and assembles the report. Idempotent.
  const ShardRuntimeReport& Finish();

  const ShardRuntimeReport& report() const { return report_; }

  /// Times shard `shard`'s worker has parked so far. Any thread, any time
  /// (tests wait on it to know a worker is asleep).
  int64_t parks(int shard) const {
    return handoffs_[shard]->parks.load(std::memory_order_relaxed);
  }

  /// The shards survive their workers for post-run verification (ReadSeq,
  /// metrics). Valid only after Finish(), and only on the thread that
  /// called it.
  Shard& shard(int i) { return *shards_[i]; }

  /// Every shard's UdrNf metrics merged into one registry (post-Finish).
  void MergeMetricsInto(Metrics* out) const;

  /// Every shard's spans merged into one tracer (post-Finish; the joins are
  /// the happens-before edges). No-op for shards that ran untraced.
  void MergeTracersInto(obs::Tracer* out) const;

 private:
  /// One shard's handoff: its ring and the spot its worker parks on.
  struct Handoff {
    explicit Handoff(size_t capacity) : queue(capacity) {}
    SpscQueue<ShardBatch> queue;
    common::Mutex mu{"exec.shard_runtime.park"};
    common::CondVar wake;
    /// Set by the worker before its last emptiness check, cleared by the
    /// waker under `mu`.
    std::atomic<bool> sleeping{false};
    std::atomic<int64_t> parks{0};
  };

  void WorkerLoop(int index);
  /// Worker side: sleeps until woken unless the ring or done_ says there is
  /// work.
  void Park(Handoff& h);
  /// Driver side, after publishing a push or done_: wakes a parked worker.
  static void WakeIfParked(Handoff& h);

  // Concurrency contract (thread confinement plus one parking lock per
  // shard):
  //   * opts_, slicer_, handoffs_ are frozen before Start() spawns workers
  //     and only read afterwards (the Handoff OBJECTS are shared: the ring's
  //     SPSC discipline is enforced in spsc_queue.h, `sleeping` and `parks`
  //     are atomics, and `mu` only pairs with `wake`);
  //   * shards_[i] and busy_ns_[i] are written only by worker i, and read by
  //     the driver only after Finish() joined that worker (the join is the
  //     happens-before edge) and rebound the shard's confined objects to the
  //     driver thread (common::ThreadOwner checks both sides);
  //   * submitted_, start_wall_ns_, finished_, report_ are driver-thread
  //     only (construct/Submit/Finish all happen on the driver);
  //   * ready_ and done_ are the cross-thread signals, acquire/release.
  ShardRuntimeOptions opts_;
  std::unique_ptr<ShardSlicer> slicer_;  ///< Built once num_shards is final.
  std::vector<std::unique_ptr<Handoff>> handoffs_;
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
