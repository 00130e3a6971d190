// MigrationScheduler: drains planned migration tasks in chunked,
// deadline-paced steps so data movement interleaves with foreground traffic
// instead of blocking it.
//
// Each primary-move task runs the copy -> catch-up -> cutover state machine
// over a replication::MigrationStream: the copy phase ships the commit-log
// snapshot prefix in chunks, catch-up replays the delta committed since copy
// start, and the cutover atomically flips ownership once the target holds
// every acknowledged write (zero-acknowledged-write-loss). Re-home tasks ship
// one hash-keyed subscriber record each through an executor the deployment
// layer supplies (binding and population bookkeeping live there); the bypass
// exception protecting the identity during its migration window is cleared
// here, at cutover.
//
// Pacing reuses the sim-clock window mechanics of routing::Coalescer: a
// token bucket earns bytes at the bandwidth model's effective link rate and
// bursts at most one window's worth; Pump() performs whatever steps the
// bucket affords at the current sim time, and NextDeadline() tells drivers
// exactly when the next chunk's budget matures — the same advance-to-
// deadline loop that flushes coalescer windows also drives migration. A
// priority knob (foreground_cost_bytes) lets foreground operations displace
// migration budget from the window, shrinking background throughput under
// load. With an unthrottled bandwidth model Pump() drains everything
// inline, byte-identical in effect to the old synchronous bulk pass.

#ifndef UDR_MIGRATION_SCHEDULER_H_
#define UDR_MIGRATION_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/time.h"
#include "migration/bandwidth_model.h"
#include "migration/planner.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "routing/partition_map.h"
#include "routing/router.h"
#include "sim/network.h"

namespace udr::migration {

/// Lifecycle of one migration task.
enum class TaskState {
  kPending,  ///< Planned; stream not yet opened.
  kCopying,  ///< Shipping the snapshot prefix (copy phase).
  kCatchUp,  ///< Copy done; replaying the delta committed since.
  kDone,     ///< Cut over; the move is complete.
  kFailed,   ///< Aborted; the source stayed authoritative.
};

/// One task being executed (spec + live execution state).
struct MigrationTask {
  uint64_t id = 0;
  uint64_t plan = 0;  ///< EnqueuePlan() handle this task belongs to.
  MigrationTaskSpec spec;
  TaskState state = TaskState::kPending;
  replication::MigrationStream stream;  ///< kPrimaryMove only.
  replication::MigrationReport report;  ///< Filled at cutover.
  Status error;                         ///< kFailed only.
  int64_t bytes_moved = 0;
  MicroTime started = 0;
  MicroTime finished = 0;
  MicroDuration cutover_latency = 0;  ///< Modelled final-flip latency.
  /// Per-task trace (allocated when the task first runs): chunk ships and
  /// the cutover hang off it so a move's pacing is visible span by span.
  obs::TraceContext trace;

  bool terminal() const {
    return state == TaskState::kDone || state == TaskState::kFailed;
  }
};

/// Aggregate progress snapshot.
struct MigrationProgress {
  int64_t tasks_total = 0;
  int64_t tasks_done = 0;
  int64_t tasks_failed = 0;
  int64_t tasks_pending = 0;  ///< Not yet terminal.
  int64_t bytes_moved = 0;
  int64_t bytes_estimated = 0;
  bool active = false;
};

class MigrationScheduler {
 public:
  /// Ships one re-homed subscriber record and rebinds its identities;
  /// returns the bytes moved. Supplied by the deployment layer.
  using RehomeExecutor =
      std::function<StatusOr<int64_t>(const MigrationTaskSpec& spec)>;

  MigrationScheduler(routing::PartitionMap* map, routing::Router* router,
                     const BandwidthModel* bandwidth, sim::Network* network,
                     Metrics* metrics, obs::FlightRecorder* flight);

  void set_rehome_executor(RehomeExecutor executor) {
    rehome_executor_ = std::move(executor);
  }

  /// Appends a plan's tasks to the drain queue. Tasks whose partition (or
  /// identity) already has a non-terminal task are dropped — re-planning
  /// over in-flight work is an idempotent no-op, not a duplicate move.
  /// Re-home tasks get their bypass exception installed here: the identity
  /// resolves through the location stage for the whole migration window.
  uint64_t EnqueuePlan(const MigrationPlan& plan);

  /// Performs every step the token bucket affords at the current sim time.
  /// Returns whether any progress was made.
  bool Pump();

  /// Runs every queued task to completion, ignoring pacing (the synchronous
  /// bulk path, and the end-of-run barrier). Never leaves the token bucket
  /// in debt — draining is outside the pacing contract.
  void DrainAll();

  /// DrainAll restricted to primary-move tasks: the synchronous Rebalance()
  /// barrier must not also rush queued re-home tasks past their throttle.
  void DrainPrimaryMoves();

  /// When the next chunk's byte budget matures (kTimeInfinity when idle;
  /// "now" when work is ready or the model is unthrottled). Drivers advance
  /// the clock here and Pump(), exactly like coalescer window deadlines.
  MicroTime NextDeadline() const;

  bool HasWork() const { return CurrentTask() != nullptr; }
  /// Any primary-move task not yet terminal (the in-flight rebalance delta).
  bool RebalanceInFlight() const;

  MigrationProgress Progress() const;
  const std::deque<MigrationTask>& tasks() const { return tasks_; }

  /// Installs the tracer chunk/cutover spans are recorded into (nullptr =
  /// off). Cutovers and failures are logged to the constructor's `flight`.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Token-bucket burst window: the bucket holds at most one window's worth
  /// of bytes at the effective link rate (never less than one chunk).
  static constexpr MicroDuration kBurstWindow = Millis(1);

  MicroTime Now() const { return network_->Now(); }

  /// First non-terminal task, nullptr when the queue is drained.
  const MigrationTask* CurrentTask() const;

  /// Effective migration rate over the link a task moves across.
  int64_t RateForTask(const MigrationTask& task) const;
  /// Effective link rate of the task the scheduler is currently draining
  /// (0 = unthrottled).
  int64_t CurrentRateBps() const;
  /// Byte budget the current task needs for its next step.
  int64_t NextStepBytes() const;
  int64_t BurstCapBytes(int64_t rate) const;
  void RefillTokens();

  /// Shared DrainAll / DrainPrimaryMoves body.
  void Drain(bool primary_moves_only);

  /// Advances one task as far as the budget allows. Returns false when the
  /// bucket ran dry (stop pumping); true when the task reached a terminal
  /// state (move on to the next).
  bool StepTask(MigrationTask* task, bool unlimited, bool* progressed);
  void StepRehome(MigrationTask* task);
  void Cutover(MigrationTask* task, replication::ReplicaSet* rs);
  void Fail(MigrationTask* task, Status error);
  void FinishTask(MigrationTask* task);

  routing::PartitionMap* map_;
  routing::Router* router_;
  const BandwidthModel* bandwidth_;
  sim::Network* network_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_;
  RehomeExecutor rehome_executor_;

  std::deque<MigrationTask> tasks_;  ///< Full history; cursor_ splits live/past.
  size_t cursor_ = 0;                ///< First non-terminal task.
  uint64_t next_task_id_ = 1;
  uint64_t next_plan_id_ = 1;
  double tokens_ = 0;  ///< Byte budget earned but not yet spent.
  MicroTime last_refill_ = 0;
  std::unordered_set<uint32_t> partitions_in_flight_;
  std::unordered_set<location::Identity, location::IdentityHasher>
      identities_in_flight_;
};

}  // namespace udr::migration

#endif  // UDR_MIGRATION_SCHEDULER_H_
