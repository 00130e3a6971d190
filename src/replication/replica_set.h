// Replication of one subscriber-data partition across geographically
// disperse storage elements (paper §3.1 decision 2, §3.2, §3.3.1, §5).
//
// Model:
//   * One replica is the *master* copy: all writes execute there and are
//     appended to the authoritative commit log in serialization order.
//   * Slave copies apply the identical entry order ("the serialization order
//     of writes replicated to any slave copy is exactly the same as that
//     imposed by the master copy", §3.2). Application is asynchronous: entry
//     E committed at time T on a master at site S becomes visible on a slave
//     at site S' no earlier than T + one_way_latency(S, S'), and not until
//     any partition between S and S' heals.
//   * On master failure, the most caught-up reachable slave is promoted;
//     acknowledged-but-unreplicated transactions are lost (the async F-A
//     trade-off of §3.3.1) and counted.
//   * SyncMode selects the §5 durability tunings: ASYNC (default),
//     DUAL_SEQUENCE (apply to master then one slave before acking) and
//     QUORUM (Cassandra-style majority ack, the paper's comparator).
//   * PartitionMode selects CAP behaviour on a partition: PREFER_CONSISTENCY
//     (writes fail unless the master is reachable — the paper's default) or
//     PREFER_AVAILABILITY (§5 evolution: any reachable replica accepts
//     writes into a divergence log; ConsistencyRestoration merges after the
//     partition heals).

#ifndef UDR_REPLICATION_REPLICA_SET_H_
#define UDR_REPLICATION_REPLICA_SET_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "sim/network.h"
#include "storage/storage_element.h"

namespace udr::replication {

/// Durability / acknowledgement mode for writes (§3.3.1 and §5).
enum class SyncMode {
  kAsync,         ///< Ack after master commit; slaves catch up later.
  kDualSequence,  ///< Ack after master + one slave applied, in sequence (§5).
  kQuorum,        ///< Ack after a majority of replicas applied (Cassandra-like).
};

/// CAP stance while a network partition separates replicas.
enum class PartitionMode {
  kPreferConsistency,  ///< Writes require the master (paper default, PC).
  kPreferAvailability, ///< Any reachable replica takes writes (§5, PA).
};

/// Conflict resolution policy for consistency restoration (§5).
enum class MergePolicy {
  kFieldMergeLww,        ///< Per-attribute last-writer-wins.
  kLastWriterWinsRecord, ///< Whole record from the latest writer.
  kPreferMaster,         ///< Master wins; divergent values flagged manual.
};

/// Where reads may be served (§3.3.2 vs §3.3.3).
enum class ReadPreference {
  kMasterOnly,  ///< Provisioning System rule: no slave reads.
  kNearest,     ///< Application FE rule: nearest replica, possibly stale.
};

struct ReplicaSetConfig {
  std::string name = "partition-0";
  SyncMode sync_mode = SyncMode::kAsync;
  PartitionMode partition_mode = PartitionMode::kPreferConsistency;
  MergePolicy merge_policy = MergePolicy::kFieldMergeLww;
  /// Time to declare a silent master dead and start failover.
  MicroDuration failover_detection = Seconds(5);
  /// Batching/pipeline delay of the asynchronous log shipper: a committed
  /// entry sits in the master's send buffer this long before leaving. A
  /// master crash inside that window loses the entry — the §3.3.1
  /// durability gap. Zero means ship-at-commit.
  MicroDuration async_ship_delay = 0;
};

/// Outcome of a replicated write.
struct WriteResult {
  Status status;
  MicroDuration latency = 0;     ///< Client-observed latency (or timeout).
  storage::CommitSeq seq = 0;    ///< Authoritative sequence (0 if failed/diverged).
  bool degraded = false;         ///< Dual-sequence fell back to single replica.
  bool diverged = false;         ///< Accepted into a divergence log (AP mode).
  uint32_t served_by = 0;        ///< Replica that executed the write.
};

/// Outcome of a replicated read.
struct ReadResult {
  Status status;
  MicroDuration latency = 0;
  std::optional<storage::Value> value;   ///< Single-attribute reads.
  std::optional<storage::Record> record; ///< Whole-record reads.
  bool stale = false;     ///< Value older than the master's current state.
  uint32_t served_by = 0; ///< Replica that served the read.
};

/// One read of a grouped (batched) partition dispatch.
struct BatchReadOp {
  storage::RecordKey key = 0;
  std::string attr;  ///< Empty: whole-record snapshot.
  ReadPreference pref = ReadPreference::kNearest;
  /// Whole-record reads only: copy just these attributes into the result
  /// (nullptr = all). Staleness is still judged on the whole record.
  const std::vector<storage::AttrId>* projection = nullptr;
};

/// Outcome of a grouped write: the partition-group commits as one log-append
/// window — one client<->master transit for the whole group instead of one
/// per transaction. Each inner transaction still appends its own log entry
/// (per-key serialization order is preserved) and fails in isolation.
struct GroupWriteResult {
  Status status;  ///< Group admission; first per-op failure otherwise.
  std::vector<WriteResult> per_op;  ///< Latency = engine + sync share only.
  MicroDuration latency = 0;  ///< One transit + summed commit service times.
  MicroDuration transit = 0;  ///< The client<->master share of `latency`.
};

/// Outcome of a grouped read: replicas are probed in one fan-out (transit
/// charged once per group, not once per op).
struct GroupReadResult {
  /// Latency = engine service share only. Whole-record ops (empty attr) fill
  /// `record`, attribute ops fill `value`.
  std::vector<ReadResult> per_op;
  MicroDuration latency = 0;  ///< Slowest replica transit + summed service.
  MicroDuration transit = 0;  ///< The slowest-replica share of `latency`.
};

/// Result of a master failover.
struct FailoverReport {
  uint32_t old_master = 0;
  uint32_t new_master = 0;
  storage::CommitSeq acknowledged_seq = 0;  ///< Log head before failover.
  storage::CommitSeq promoted_seq = 0;      ///< New master's applied prefix.
  int64_t lost_transactions = 0;            ///< Acked commits discarded.
};

/// Result of a planned primary-copy migration (scale-out rebalancing). The
/// handoff ships the full authoritative log to the target before switching
/// ownership, so — unlike a failover — no acknowledged write is lost.
struct MigrationReport {
  uint32_t new_master = 0;          ///< Replica id now holding the primary copy.
  bool promoted_existing = false;   ///< Target already hosted a secondary copy.
  int64_t entries_replayed = 0;     ///< Log entries shipped to the target.
  int64_t bytes_moved = 0;          ///< Approx partition state bytes shipped.
  MicroDuration duration = 0;       ///< Modelled bulk-resync time.
};

/// An in-flight chunked primary-copy migration: copy -> catch-up -> cutover.
/// Created by BeginPrimaryMigration, advanced by ShipMigrationChunk (the
/// background scheduler budgets each call against its bandwidth model),
/// finished by CompleteMigration (atomic ownership flip after a final delta
/// replay — no acknowledged write is lost) or AbortMigration (partial target
/// state is discarded; the source stays authoritative). The unit shipped is
/// the commit-log entry, so the target converges on the exact serialization
/// order the master imposed; `snapshot_seq` splits the work into the copy
/// phase (log prefix at Begin) and catch-up (entries committed since).
struct MigrationStream {
  storage::StorageElement* target = nullptr;
  uint32_t expected_master = 0;    ///< Master at Begin; a change aborts the stream.
  bool promote_existing = false;   ///< Target already hosts a secondary copy.
  uint32_t target_replica = 0;     ///< Replica id of that copy (promote path).
  storage::CommitSeq snapshot_seq = 0;  ///< Log head at Begin.
  storage::CommitSeq shipped_seq = 0;   ///< Log prefix already on the target.
  int64_t bytes_moved = 0;         ///< Wire bytes shipped so far.
  int64_t entries_shipped = 0;
  int64_t estimated_bytes = 0;     ///< Begin-time estimate of the total.
  bool finished = false;           ///< Completed or aborted.

  /// Copy phase done: what remains is delta catch-up.
  bool copy_done() const { return shipped_seq >= snapshot_seq; }
};

/// Result of a consistency-restoration pass after a partition heals (§5).
struct RestorationReport {
  int64_t divergent_entries = 0;   ///< Transactions taken on the minority side.
  int64_t applied_ops = 0;         ///< Ops merged into the master view.
  int64_t conflicting_ops = 0;     ///< Ops that raced a majority-side write.
  int64_t dropped_ops = 0;         ///< Conflict losers discarded by the policy.
  int64_t manual_ops = 0;          ///< Conflicts left for human resolution.
};

/// Replication coordinator for one data partition.
class ReplicaSet {
 public:
  /// `elements` are the storage elements hosting the copies, in priority
  /// order: element 0 starts as master copy. All pointers must outlive the
  /// set. The network supplies latency, partitions and the clock.
  ReplicaSet(ReplicaSetConfig config, std::vector<storage::StorageElement*> elements,
             sim::Network* network);

  const ReplicaSetConfig& config() const { return config_; }
  ReplicaSetConfig& mutable_config() { return config_; }
  size_t replica_count() const { return replicas_.size(); }
  uint32_t master_id() const { return master_; }
  sim::SiteId master_site() const;
  sim::SiteId replica_site(uint32_t id) const;
  bool replica_up(uint32_t id) const { return replicas_[id].up; }
  storage::CommitSeq applied_seq(uint32_t id) const;
  const storage::CommitLog& log() const { return log_; }
  const storage::RecordStore& replica_store(uint32_t id) const;
  storage::StorageElement* replica_se(uint32_t id) { return replicas_[id].se; }
  const storage::StorageElement* replica_se(uint32_t id) const {
    return replicas_[id].se;
  }

  // -- Data path ---------------------------------------------------------------

  /// Executes a write transaction (a batch of ops applied atomically) from a
  /// client at `client_site`, honoring sync and partition modes.
  WriteResult Write(sim::SiteId client_site, std::vector<storage::WriteOp> ops);

  /// Executes a group of write transactions as one log-append window: group
  /// admission (failover, reachability, CAP stance) is checked once, each
  /// transaction commits its own log entry in order, and the group pays a
  /// single client<->master transit. When the master path is not cleanly
  /// writable (failover pending, client partitioned) the group degrades to
  /// the per-transaction Write path, keeping its semantics.
  GroupWriteResult WriteBatch(sim::SiteId client_site,
                              std::vector<std::vector<storage::WriteOp>> txns);

  /// WriteBatch into a caller-owned result whose per-op vector keeps its
  /// capacity across calls. Each transaction is moved out of `*txns`, which
  /// the caller clears and reuses.
  void WriteBatch(sim::SiteId client_site,
                  std::vector<std::vector<storage::WriteOp>>* txns,
                  GroupWriteResult* result);

  /// Executes a group of reads in one fan-out: each op picks its replica per
  /// its own preference, transit is charged once per group (slowest replica),
  /// and each op pays only its engine service time on top. Per-op failures
  /// (e.g. master-only with the master partitioned) do not poison the group.
  GroupReadResult ReadBatch(sim::SiteId client_site,
                            const std::vector<BatchReadOp>& ops);

  /// ReadBatch into a caller-owned result whose per-op vector keeps its
  /// capacity across calls.
  void ReadBatch(sim::SiteId client_site, const std::vector<BatchReadOp>& ops,
                 GroupReadResult* result);

  /// Reads one attribute according to the read preference: a one-op
  /// ReadBatch whose latency is the whole group's (transit included). As in
  /// BatchReadOp, an empty `attr` reads the whole record instead.
  ReadResult ReadAttribute(sim::SiteId client_site, storage::RecordKey key,
                           const std::string& attr, ReadPreference pref);

  /// Reads a whole record snapshot (a one-op ReadBatch, like ReadAttribute).
  StatusOr<storage::Record> ReadRecord(sim::SiteId client_site,
                                       storage::RecordKey key,
                                       ReadPreference pref,
                                       ReadResult* meta = nullptr);

  // -- Replication maintenance --------------------------------------------------

  /// Applies every log entry whose delivery time has passed to each slave.
  void CatchUpAll();
  /// Catch-up for a single replica.
  void CatchUp(uint32_t id);

  /// Marks a replica as crashed at the current time (RAM contents lost).
  void CrashReplica(uint32_t id);

  /// Brings a crashed replica back: full resync from the authoritative log.
  void RecoverReplica(uint32_t id);

  /// Promotes the most caught-up reachable replica after a master failure.
  StatusOr<FailoverReport> FailOver();

  /// Planned primary-copy handoff to `target` (scale-out rebalancing). When
  /// the target already hosts a secondary copy it is force-synced to the full
  /// log and promoted in place; otherwise the whole partition slice is bulk
  /// resynced from the commit log onto the target, the old primary SE drops
  /// its copy, and the master replica slot is rebound to the target. Either
  /// way every acknowledged write is on the new primary before it takes
  /// ownership. Fails when the current master is down (fail over first) or
  /// the target is unreachable from the master's site. Implemented as a
  /// one-shot MigrationStream (Begin + Complete): the bulk path and the
  /// background scheduler's throttled path share one machinery.
  StatusOr<MigrationReport> MigratePrimaryTo(storage::StorageElement* target);

  // -- Chunked primary-copy migration (background scheduler) --------------------

  /// Opens a chunked migration stream toward `target` (see MigrationStream).
  /// Performs the same admission as MigratePrimaryTo: master up, target
  /// reachable, capacity checked against the target's RAM budget.
  StatusOr<MigrationStream> BeginPrimaryMigration(storage::StorageElement* target);

  /// Ships the next slice of the stream: at least one log entry, then up to
  /// `max_bytes` of entry payload. Charges the streaming work to both ends'
  /// engine busy horizons (foreground ops queue behind it). Returns the wire
  /// bytes shipped (0 when the target is fully caught up to the log head).
  /// Fails — leaving the source authoritative — when the master changed,
  /// crashed, or lost the target.
  StatusOr<int64_t> ShipMigrationChunk(MigrationStream* stream, int64_t max_bytes);

  /// Entries committed but not yet on the target (0 = ready for cutover).
  int64_t MigrationLag(const MigrationStream& stream) const {
    return static_cast<int64_t>(log_.LastSeq() - stream.shipped_seq);
  }

  /// Atomic cutover: ships the remaining delta, then flips the master slot
  /// to the target (promoting the secondary in place, or rebinding the slot
  /// and dropping the old primary's slice). Every acknowledged write is on
  /// the new primary before it takes ownership.
  StatusOr<MigrationReport> CompleteMigration(MigrationStream* stream);

  /// Cancels the stream: partial state shipped to a fresh target is deleted;
  /// a promote-path target keeps its (valid) early entries. The source
  /// remains authoritative; no map state changed.
  void AbortMigration(MigrationStream* stream);

  /// Approximate wire bytes of the replication stream after sequence `after`
  /// (the planner's transfer-size estimate for a migration).
  int64_t ApproxStreamBytes(storage::CommitSeq after = 0) const;

  /// Merges all divergence logs after a partition heals (§5) and resyncs
  /// every replica to the merged state.
  RestorationReport RestoreConsistency();

  /// True if any replica holds divergent writes.
  bool HasDivergence() const;

  /// Forces every up replica to the full log (test/maintenance helper that
  /// ignores delivery horizons).
  void ForceSyncAll();

  // -- Introspection ------------------------------------------------------------

  int64_t writes_accepted() const { return writes_accepted_; }
  int64_t writes_rejected() const { return writes_rejected_; }
  int64_t reads_served() const { return reads_served_; }
  int64_t stale_reads() const { return stale_reads_; }
  int64_t degraded_commits() const { return degraded_commits_; }
  int64_t diverged_writes() const { return diverged_writes_; }

 private:
  struct Replica {
    storage::StorageElement* se = nullptr;
    storage::CommitSeq applied = 0;
    bool up = true;
    MicroTime down_since = 0;
    sim::IntervalSet outages;       ///< Closed crash intervals (RAM lost).
    storage::CommitLog divergence;  ///< AP-mode writes taken while split.
  };

  MicroTime Now() const { return network_->Now(); }

  /// Delivery time of log entry `seq` at replica `id`, honoring partitions
  /// and origin crashes. An entry leaves its origin's RAM at
  /// HealTime(origin, target, commit_time); if the origin crashed before
  /// that moment the copy is lost at the source and can only re-ship from
  /// the current master after a failover. Returns kTimeInfinity while no
  /// surviving copy can ship it.
  MicroTime EntryDeliveryTime(storage::CommitSeq seq, uint32_t id) const;

  /// Applies entry `seq` to the replica's store.
  void ApplyEntry(Replica* r, storage::CommitSeq seq);

  /// Deletes every record this partition's log (and the replica's divergence
  /// log) ever touched from the replica's store, leaving co-hosted
  /// partitions' records intact. Used before a full resync.
  void DropPartitionKeys(Replica* r) const;

  /// Finds the replica that should serve a read for the client.
  StatusOr<uint32_t> PickReadReplica(sim::SiteId client_site, ReadPreference pref);

  /// Executes a write on the master copy (assumes reachability was checked).
  WriteResult WriteOnMaster(sim::SiteId client_site,
                            std::vector<storage::WriteOp> ops);

  /// Commits one transaction on the master copy. Latency covers the engine
  /// service time and synchronous replication only — the caller adds the
  /// client transit (once per op, or once per group for WriteBatch).
  WriteResult CommitOnMaster(std::vector<storage::WriteOp> ops);

  /// Reads one attribute on replica `id` (already caught up); accounts the
  /// engine service time, staleness and payload into `out`. No transit.
  void ReadAttrOn(uint32_t id, storage::RecordKey key, const std::string& attr,
                  ReadResult* out);

  /// Whole-record counterpart of ReadAttrOn; returns the store's record (or
  /// nullptr) and fills `meta` when non-null.
  const storage::Record* ReadRecordOn(uint32_t id, storage::RecordKey key,
                                      ReadResult* meta);

  /// Executes a divergent write on a reachable non-master replica (AP mode).
  WriteResult WriteDiverged(sim::SiteId client_site, uint32_t id,
                            std::vector<storage::WriteOp> ops);

  /// Routes a divergent write to the nearest reachable replica; fills `out`.
  /// Returns true when the write was accepted.
  bool WriteDivergedNearest(sim::SiteId client_site,
                            std::vector<storage::WriteOp> ops, WriteResult* out);

  /// Synchronous replication cost/acks for DUAL_SEQUENCE / QUORUM.
  Status SyncReplicate(storage::CommitSeq seq, MicroDuration* extra_latency,
                       bool* degraded);

  /// Admission re-check for an open migration stream: the master must be the
  /// one that opened it, up, and able to reach the target.
  Status CheckMigrationStream(const MigrationStream& stream) const;

  ReplicaSetConfig config_;
  std::vector<Replica> replicas_;
  sim::Network* network_;
  storage::CommitLog log_;  ///< Authoritative replication stream.
  uint32_t master_ = 0;
  MicroTime last_failover_ = 0;  ///< When the current master took over.

  int64_t writes_accepted_ = 0;
  int64_t writes_rejected_ = 0;
  int64_t reads_served_ = 0;
  int64_t stale_reads_ = 0;
  int64_t degraded_commits_ = 0;
  int64_t diverged_writes_ = 0;
};

}  // namespace udr::replication

#endif  // UDR_REPLICATION_REPLICA_SET_H_
