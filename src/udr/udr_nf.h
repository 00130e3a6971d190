// UdrNf: the complete User Data Repository network function (paper §2.3).
//
// Composition — a layered data path:
//   * blade clusters at geographic sites (scale-out unit), each with storage
//     elements, stateless LDAP servers behind an L4 balancer (the PoA), and
//     a data location stage instance;
//   * routing::PartitionMap — partition -> replica-set assignment,
//     commissioning, population accounting and live rebalancing;
//   * routing::PlacementPolicy — where a new subscription's primary copy
//     goes (least-loaded, round-robin, hash, selective/home-site §3.5);
//   * routing::Router — PoA selection, identity resolution and the hop to
//     the owning replication::ReplicaSet;
//   * the northbound LDAP interface (UDC-mandated), implemented by this
//     class as an ldap::LdapBackend over the router.
//
// UdrNf itself is deployment orchestration (AddCluster / Rebalance /
// maintenance fan-out) plus the LDAP verb adapter; all placement and
// partition-selection logic lives in src/routing/.

#ifndef UDR_UDR_UDR_NF_H_
#define UDR_UDR_UDR_NF_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "ldap/message.h"
#include "location/identity.h"
#include "location/location_stage.h"
#include "migration/bandwidth_model.h"
#include "migration/planner.h"
#include "migration/scheduler.h"
#include "obs/flight_recorder.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "replication/replica_set.h"
#include "routing/coalescer.h"
#include "routing/partition_map.h"
#include "routing/placement_policy.h"
#include "routing/router.h"
#include "sim/network.h"
#include "udr/blade_cluster.h"

namespace udr::udrnf {

/// Which data location stage realization the NF deploys (§3.5).
enum class LocationKind { kProvisioned, kCached };

/// NF-wide configuration.
struct UdrConfig {
  /// Copies per partition (1 primary + N-1 geographically disperse
  /// secondaries; the paper uses 2-3).
  int replication_factor = 3;
  replication::SyncMode sync_mode = replication::SyncMode::kAsync;
  replication::PartitionMode partition_mode =
      replication::PartitionMode::kPreferConsistency;
  replication::MergePolicy merge_policy = replication::MergePolicy::kFieldMergeLww;
  MicroDuration failover_detection = Seconds(5);
  /// Async log-shipper batching window (see ReplicaSetConfig).
  MicroDuration async_ship_delay = 0;
  /// §3.3.2 decision 2: front-end reads may be served by slave copies.
  bool fe_slave_reads = true;
  LocationKind location_kind = LocationKind::kProvisioned;
  int se_per_cluster = 2;
  int ldap_per_cluster = 2;
  /// Partitions commissioned per storage element; > 1 gives the rebalancer
  /// finer-grained migration units on scale-out.
  int partitions_per_se = 1;
  /// What Rebalance() balances: primary-copy count (default) or primary-
  /// hosted subscriber population per storage element.
  routing::RebalanceWeight rebalance_weight =
      routing::RebalanceWeight::kPrimaryCount;
  /// Fallback placement policy under selective placement. kHash disables the
  /// selective wrapper (§3.5: hashing cannot honor a home site) and keys
  /// records by identity hash, enabling the router's location bypass.
  routing::PlacementKind placement = routing::PlacementKind::kLeastLoaded;
  /// Under kHash placement: let reads skip the location stage via the
  /// router's hash bypass (ROADMAP: hash-routed reads).
  bool hash_routed_reads = true;
  /// Identity type hash placement keys records by (and the only type the
  /// bypass may route — any other type would hash onto the wrong ring).
  location::IdentityType hash_identity_type = location::IdentityType::kImsi;
  /// Cross-event coalescing at the PoA: events enqueued via SubmitEvent are
  /// parked in a per-cluster dispatch window and flushed as ONE grouped
  /// pipeline batch when this window elapses on the sim clock (or the size
  /// cap below fills). 0 = disabled: enqueued events execute immediately,
  /// byte-identical to the inline SubmitBatch path.
  MicroDuration coalesce_window_us = 0;
  /// Closes an open window early once this many ops are parked across the
  /// in-flight events (0 = deadline-only close).
  int coalesce_max_ops = 0;
  /// Background migration: cap on migration traffic per SE-pair link,
  /// bytes/second. 0 = unthrottled — every planned move (scale-out
  /// rebalance, weighted rebalance, hash re-homing) drains inline, the
  /// pre-subsystem behavior. > 0 turns those moves into background tasks
  /// paced by the migration scheduler's token bucket and drained by
  /// PumpMigration / PumpEvents.
  int64_t migration_bandwidth_bps = 0;
  /// Transfer unit of the background scheduler: a migration step ships at
  /// most this many bytes before yielding to foreground traffic.
  int64_t migration_chunk_bytes = 64 * 1024;
  /// Token-bucket burst window of the migration scheduler (the bucket holds
  /// at most one window's worth of bytes at the effective link rate).
  MicroDuration migration_window_us = Millis(1);
  /// Priority knob: each foreground operation displaces this many bytes of
  /// migration budget from the window, so foreground load shrinks
  /// background throughput (0 = no displacement).
  int64_t migration_foreground_cost_bytes = 0;
  /// Heat tier: sample every routed access into the router's per-partition
  /// EWMA rates and top-K hot-key sketch. Enabled implicitly by any heat
  /// consumer below (PoA cache, split threshold).
  bool heat_tracking = false;
  /// EWMA half-life of the partition heat signal: a partition's heat halves
  /// after this much idle sim time.
  MicroDuration heat_halflife_us = Millis(500);
  /// Size of the space-saving hot-key sketch.
  int heat_top_k = 128;
  /// PoA read-through cache budget, bytes per PoA (0 = no cache). Serves
  /// kNearest reads PoA-locally; the write path invalidates synchronously,
  /// so read-your-writes is never violated.
  int64_t poa_cache_bytes = 0;
  /// Modelled service time of a PoA cache hit (replaces the whole partition
  /// round trip for that op).
  MicroDuration poa_cache_hit_cost = Micros(2);
  /// Admission filter: a key enters the cache only once the sketch has seen
  /// it at least this often, keeping one-shot scans from thrashing hot keys.
  int64_t poa_cache_admit_min = 4;
  /// Runtime split trigger: a live partition whose heat reaches this splits
  /// into itself + a sibling claiming half of each of its ring arcs
  /// (0 = never split). Requires hash placement.
  double heat_split_threshold = 0.0;
  /// Runtime merge trigger: a split sibling whose heat falls below this —
  /// after the cooldown — drains back to its ring successors and retires
  /// (0 = never merge).
  double heat_merge_threshold = 0.0;
  /// Cap on runtime splits per NF lifetime (bounds partition growth).
  int heat_max_splits = 4;
  /// Minimum sibling age before it is merge-eligible: a fresh sibling starts
  /// at heat zero and needs time to prove itself cold. 0 picks 4x the
  /// half-life.
  MicroDuration heat_split_cooldown_us = 0;
  // -- Observability (src/obs) -------------------------------------------------
  /// Fraction of signaling events traced end to end, in [0, 1]. The decision
  /// is a pure function of (trace_seed, trace id), so the same seed traces
  /// the same events on every replay. 0 = tracing off (no tracer allocated,
  /// zero data-path overhead).
  double trace_sample_rate = 0.0;
  uint64_t trace_seed = 42;
  /// Hard cap on retained spans (the excess is counted, not stored).
  int64_t trace_max_spans = 1 << 20;
  /// Perfetto lane (tid) of this NF's spans; the sharded execution mode sets
  /// it to the shard index so merged traces keep one row per shard.
  uint32_t trace_lane = 0;
  /// Time-series sampler tick: snapshot registered counters / histogram
  /// quantiles every this much sim time. 0 = sampler off.
  MicroDuration obs_sample_interval_us = 0;
  /// Points retained per sampled series.
  int obs_ring_capacity = 256;
  /// Control-plane events retained per component by the flight recorder
  /// (0 = recorder off).
  int flight_recorder_capacity = 256;
  storage::StorageElementConfig se_template;
  ldap::LdapServerConfig ldap_template;
  location::LocationCostModel location_model;
};

/// The UDR network function.
class UdrNf : public ldap::LdapBackend {
 public:
  UdrNf(UdrConfig config, sim::Network* network);
  ~UdrNf() override;

  const UdrConfig& config() const { return config_; }
  sim::Network* network() const { return network_; }
  MicroTime Now() const { return network_->Now(); }
  Metrics& metrics() { return metrics_; }

  routing::PartitionMap& partition_map() { return map_; }
  routing::Router& router() { return router_; }

  // -- Observability -----------------------------------------------------------

  /// The NF's tracer; nullptr when trace_sample_rate == 0.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// The control-plane flight recorder; nullptr when its capacity is 0.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  /// The time-series sampler; nullptr when obs_sample_interval_us == 0.
  obs::TimeSeriesSampler* sampler() { return sampler_.get(); }

  /// When the sampler's next tick is due (kTimeInfinity when off) — drivers
  /// advance the clock here like NextEventDeadline / NextMigrationDeadline.
  MicroTime NextObsSampleDue() const {
    return sampler_ != nullptr ? sampler_->NextSampleDue() : kTimeInfinity;
  }

  // -- Deployment / scale-out (§3.4) -------------------------------------------

  /// Deploys a new blade cluster at `site` with the configured number of SEs
  /// and LDAP servers. For the provisioned location stage, scale-out incurs
  /// the identity-map sync window of §3.4.2 during which the new PoA cannot
  /// serve.
  StatusOr<BladeCluster*> AddCluster(sim::SiteId site);

  /// Creates replica sets until every storage element primary-hosts the
  /// configured number of partitions. Called lazily by CreateSubscriber;
  /// call explicitly after initial deployment for deterministic layouts.
  /// Under hash placement a grown ring re-homes the ~K/N subscribers whose
  /// ring owner changed, keeping the location bypass correct.
  void CommissionPartitions() { Commission(); }

  /// Live rebalancing after scale-out: plans the primary-copy delta via the
  /// migration planner and drains it synchronously through the background
  /// scheduler (chunked copy -> catch-up -> atomic cutover per partition).
  /// No acknowledged write is lost. Idempotent: a rebalance already in
  /// flight is drained instead of re-planned, and a balanced map plans an
  /// empty delta.
  StatusOr<routing::RebalanceReport> Rebalance();

  // -- Background migration (src/migration) -------------------------------------

  /// Plans the current rebalancing delta and enqueues it for background,
  /// bandwidth-throttled execution (no-op when a rebalance is already in
  /// flight). The move proceeds as PumpMigration drains it; foreground
  /// traffic keeps flowing, protected by the bandwidth model. Returns the
  /// scheduler's progress snapshot after planning.
  migration::MigrationProgress StartMigration();

  /// Performs whatever migration steps the bandwidth budget affords at the
  /// current sim time. PumpEvents() calls this too, so one sim loop drives
  /// both the PoA dispatch windows and background migration.
  void PumpMigration();

  /// Decommissions one storage element's primary copies in ONE planner call:
  /// every partition it primary-hosts becomes a background migration task
  /// toward the least-loaded remaining SE (spread-aware). The drain proceeds
  /// as PumpMigration affords it — throttled under a bandwidth cap, inline
  /// when unthrottled — and no acknowledged write is lost at any cutover.
  /// The SE keeps its secondary copies (replica-membership changes are a
  /// follow-on). Returns the scheduler's progress snapshot after planning.
  migration::MigrationProgress StartDecommission(int se_index);

  /// Progress snapshot of the background migration scheduler.
  migration::MigrationProgress MigrationStatus() const {
    return migration_->Progress();
  }
  /// Any migration task still pending (copy, catch-up, or queued).
  bool MigrationActive() const { return migration_->HasWork(); }

  /// When the next migration chunk's byte budget matures (kTimeInfinity
  /// when idle; "now" when work is ready) — lets drivers advance the clock
  /// to exactly the next pacing step, like NextEventDeadline for windows.
  MicroTime NextMigrationDeadline() const { return migration_->NextDeadline(); }

  /// The background scheduler (introspection for tests and benches).
  migration::MigrationScheduler& migration_scheduler() { return *migration_; }

  // -- Heat tier (hot-key tracking, PoA cache, runtime split/merge) --------------

  /// One runtime split still alive: `sibling` was carved out of `parent`.
  struct HeatSibling {
    uint32_t parent = 0;
    uint32_t sibling = 0;
    MicroTime split_at = 0;  ///< When the split fired (cooldown anchor).
  };

  /// Splits `parent` at runtime: commissions a sibling partition claiming
  /// the midpoint half of each of the parent's ring arcs, bumps the parent's
  /// cache epoch, and enqueues the half-slice re-home plan through the
  /// throttled migration scheduler (drained inline when unthrottled). Only
  /// the parent's subscribers move; no acknowledged write is lost. Requires
  /// hash placement. Returns the sibling's partition id.
  StatusOr<uint32_t> StartSplit(uint32_t parent);

  /// Merges a runtime split sibling back: takes its points off the ring
  /// (reads/writes immediately route to the arc successors), bumps cache
  /// epochs, and drains its population to the new ring owners through the
  /// scheduler. The emptied sibling retires in PumpHeat (immediately when
  /// the drain ran inline).
  Status StartMerge(uint32_t sibling);

  /// Heat-tier control loop, called from PumpEvents: retires drained merge
  /// siblings, splits the hottest partition past the configured threshold,
  /// and merges cooled siblings past their cooldown.
  void PumpHeat();

  int runtime_splits() const { return runtime_splits_; }
  int runtime_merges() const { return runtime_merges_; }
  /// Runtime splits not yet merged away (introspection for tests/benches).
  const std::vector<HeatSibling>& heat_siblings() const {
    return heat_siblings_;
  }

  size_t cluster_count() const { return clusters_.size(); }
  BladeCluster* cluster(uint32_t id) { return clusters_[id].get(); }
  /// Cluster whose PoA serves `site`, nullptr when none is deployed there.
  BladeCluster* ClusterAtSite(sim::SiteId site);

  size_t partition_count() const { return map_.partition_count(); }
  replication::ReplicaSet* partition(uint32_t id) { return map_.partition(id); }

  int TotalStorageElements() const;
  int64_t TotalLdapOpsPerSecond() const;
  int64_t TotalSubscriberCapacity(int64_t avg_record_bytes) const;
  int64_t SubscriberCount() const { return subscriber_count_; }

  // -- Client entry point --------------------------------------------------------

  /// Submits an LDAP request from a client at `client_site`: routes to the
  /// nearest reachable PoA, through its balancer and a stateless LDAP
  /// server, into the data path. The returned latency covers the whole
  /// client-observed path.
  ldap::LdapResult Submit(const ldap::LdapRequest& request,
                          sim::SiteId client_site);

  /// Submits a multi-op request (one signaling event's LDAP ops) as a single
  /// northbound message: one client<->PoA round trip, then the staged batch
  /// pipeline (resolve all, group by partition, grouped dispatch).
  ldap::LdapBatchResult SubmitBatch(const std::vector<ldap::LdapRequest>& requests,
                                    sim::SiteId client_site);

  // -- Cross-event coalescing (PoA dispatch window) ------------------------------

  /// Enqueues one signaling event into the PoA's cross-event dispatch
  /// window: client -> balancer -> stateless server, then the event parks in
  /// the cluster's routing::Coalescer instead of executing inline. The
  /// result is collected with TakeEvent once the window flushes (PumpEvents
  /// when the sim clock passes the deadline, FlushEvents as a barrier). With
  /// `coalesce_window_us == 0` the event executes immediately and TakeEvent
  /// succeeds right away with a result identical to SubmitBatch.
  StatusOr<uint64_t> SubmitEvent(const std::vector<ldap::LdapRequest>& requests,
                                 sim::SiteId client_site);

  /// Flushes every PoA dispatch window whose sim-clock deadline has passed,
  /// completing the affected events. Drivers call this after advancing the
  /// clock.
  void PumpEvents();

  /// Closes all open windows now (end-of-run barrier).
  void FlushEvents();

  /// Earliest close deadline over all open PoA windows (kTimeInfinity when
  /// none is open) — lets drivers advance the clock to exactly the flush.
  MicroTime NextEventDeadline() const;

  /// Claims a completed event's result (client RTT included); nullopt while
  /// the event is still parked in its window.
  std::optional<ldap::LdapBatchResult> TakeEvent(uint64_t handle);

  /// The dispatch window of one cluster's PoA (introspection for tests and
  /// benches); nullptr for an unknown cluster.
  routing::Coalescer* coalescer(uint32_t cluster_id) {
    return cluster_id < coalescers_.size() ? coalescers_[cluster_id].get()
                                           : nullptr;
  }

  // -- ldap::LdapBackend ----------------------------------------------------------

  /// Request semantics, entered at the PoA of `poa_site`: the ProcessBatch
  /// pipeline for one request (same PoA cache and spans). The result carries
  /// the batch latency, transit included; it counts as one foreground op.
  ldap::LdapResult Process(const ldap::LdapRequest& request,
                           uint32_t poa_site) override;

  /// Multi-op request semantics: batchable verbs (search, compare, modify)
  /// ride the routing::Router::RouteBatch pipeline; Delete rides it too, as
  /// a master-only read plus a delete-record write sharing the grouped
  /// windows (population/bind bookkeeping applied from the outcomes); Add
  /// flushes the pending run and executes inline in place, preserving
  /// request order.
  ldap::LdapBatchResult ProcessBatch(const std::vector<ldap::LdapRequest>& requests,
                                     uint32_t poa_site) override;

  /// Parks a multi-op request in this PoA's cross-event dispatch window
  /// (Adds and untranslatable requests resolve inline at enqueue time).
  /// With coalescing disabled this is ProcessBatch plus a stashed result.
  uint64_t EnqueueBatch(const std::vector<ldap::LdapRequest>& requests,
                        uint32_t poa_site) override;

  /// Claims a completed enqueued request; nullopt while its window is open.
  std::optional<ldap::LdapBatchResult> TakeBatchResult(uint64_t handle) override;

  // -- Internal administration -----------------------------------------------------

  /// Specification of a new subscription.
  struct CreateSpec {
    std::vector<location::Identity> identities;
    storage::Record profile;
    /// Selective placement: pin the primary copy to this site (§3.5).
    std::optional<sim::SiteId> home_site;
  };
  struct CreateOutcome {
    location::LocationEntry entry;
    replication::WriteResult write;
  };

  /// Creates a subscription: places the record via the placement policy,
  /// writes the profile through the replication layer and provisions the
  /// identity-location maps.
  StatusOr<CreateOutcome> CreateSubscriber(const CreateSpec& spec,
                                           sim::SiteId origin_site);

  /// Removes a subscription and all its identity bindings.
  Status DeleteSubscriber(const location::Identity& id, sim::SiteId origin_site);

  /// Resolves an identity at the location stage local to `poa_site`
  /// (§3.3.1 decision 1: resolution never leaves the PoA).
  location::ResolveResult Locate(const location::Identity& id,
                                 sim::SiteId poa_site) {
    return router_.ResolveAt(id, poa_site);
  }

  /// Authoritative identity lookup (what a broadcast over all SEs returns).
  StatusOr<location::LocationEntry> AuthoritativeLookup(
      const location::Identity& id) const {
    return router_.AuthoritativeLookup(id);
  }

  // -- Maintenance ------------------------------------------------------------------

  /// Takes a whole cluster's front end out of (or back into) service: its
  /// PoA leaves the router's client rotation and its LDAP farm goes
  /// unhealthy, so clients transparently fail over to the next-nearest PoA.
  /// Storage replica state is untouched — a full site loss pairs this with
  /// CrashReplica on every copy the cluster's SEs host (and the replica
  /// sets' own failover detection promotes surviving secondaries).
  void SetClusterServing(uint32_t cluster_id, bool serving);

  /// Lets every slave copy apply all deliverable replication entries.
  void CatchUpAllPartitions() { map_.CatchUpAll(); }

  /// Runs the §5 consistency-restoration process on every partition,
  /// aggregating the merge report.
  replication::RestorationReport RestoreAllPartitions() {
    return map_.RestoreAll();
  }

 private:
  static bool IsIdentityAttr(const std::string& attr);
  static std::optional<location::IdentityType> IdentityTypeForAttr(
      const std::string& attr);

  std::vector<location::Identity> IdentitiesOfRecord(
      const storage::Record& record) const;
  std::unique_ptr<location::LocationStage> MakeLocationStage();

  /// Commission() plus, under PlacementKind::kHash, re-homing of every
  /// subscriber whose ring owner changed when new partitions joined — the
  /// consistent-hashing data migration that keeps {partition, key} a pure
  /// function of the identity (and so the location bypass correct).
  /// Re-homes ride the migration scheduler: inline when unthrottled,
  /// as paced background tasks (each identity bypass-excepted for its
  /// migration window) when a bandwidth cap is configured.
  void Commission();
  void RehomeHashKeyed();

  /// Executes one re-home task for the scheduler: ships the record to its
  /// live ring owner, rebinds every identity, keeps population bookkeeping.
  /// Returns the bytes moved (0 when the binding vanished or already
  /// agrees — the task is then a successful no-op).
  StatusOr<int64_t> RehomeOne(const migration::MigrationTaskSpec& spec);

  ldap::LdapResult DoAdd(const ldap::LdapRequest& request, uint32_t poa_site);

  /// The requests that never ride the pipeline: Add (placement side effects)
  /// and the protocol-error reply of an unknown verb. Counts one foreground
  /// op before executing, so a throttled migration sees the displacement
  /// before an Add can enqueue re-home work.
  ldap::LdapResult ProcessInline(const ldap::LdapRequest& request,
                                 uint32_t poa_site);

  /// The one verb path behind Process and ProcessBatch, over `count`
  /// requests at `requests` (pointer + count, so the per-op path never
  /// copies its request). When non-null, `*foreground_ops` gets how many
  /// requests were charged to the migration scheduler: pipeline ones and
  /// inline-executed ones, not requests that failed to translate.
  ldap::LdapBatchResult ProcessRequests(const ldap::LdapRequest* requests,
                                        size_t count, uint32_t poa_site,
                                        int64_t* foreground_ops);

  /// Resolves the identity named by a request's DN (or filter) at the PoA.
  StatusOr<location::Identity> RequestIdentity(
      const ldap::LdapRequest& request) const;

  replication::ReadPreference ReadPrefFor(const ldap::LdapRequest& request) const;

  /// Filter match + attribute projection over a fetched record (the verb
  /// semantics of Search after the data path returned the record). Latency
  /// and staleness are the caller's to fill.
  ldap::LdapResult SearchResultFor(const ldap::LdapRequest& request,
                                   const storage::Record& record) const;

  /// Translates a Modify request into pipeline mutations; FailedPrecondition
  /// when it touches an immutable identity attribute.
  StatusOr<std::vector<routing::Mutation>> MutationsFrom(
      const ldap::LdapRequest& request) const;

  /// Translates one batchable request into a pipeline operation.
  StatusOr<routing::Operation> OperationFrom(
      const ldap::LdapRequest& request) const;

  /// Maps one pipeline outcome back onto the request's LDAP result,
  /// keeping the per-verb metrics in parity with the per-op path.
  ldap::LdapResult ResultFromOutcome(const ldap::LdapRequest& request,
                                     const routing::OpOutcome& outcome);

  /// How one request of a multi-op event maps onto the pipeline batch.
  struct RequestSlot {
    enum class Kind {
      kPipeline,  ///< One batchable op at index `op`.
      kDelete,    ///< Master-only read at `op` + delete-record write at `write_op`.
      kInline,    ///< Resolved without the pipeline; result already final.
    };
    Kind kind = Kind::kInline;
    size_t op = 0;
    size_t write_op = 0;
    location::Identity identity;     ///< kDelete: DN identity to unbind.
    ldap::LdapResult inline_result;  ///< kInline.
  };

  /// Completes a pipeline-routed Delete from its two outcomes: maps failures
  /// per op and, on success, applies the same population/bind bookkeeping as
  /// DeleteSubscriber (unbind every identity, which also drops any bypass
  /// exception; decrement population and the subscriber count).
  ldap::LdapResult FinishBatchedDelete(const location::Identity& id,
                                       const routing::OpOutcome& read,
                                       const routing::OpOutcome& write);

  /// Translates one request of an event into a slot, appending pipeline ops
  /// to `batch`. Batchable verbs map 1:1; Delete maps to its read + write
  /// pair; a translation failure resolves inline with its error; Add and
  /// unknown verbs go to `inline_exec` — ProcessRequests uses it to
  /// flush-then-execute, the enqueue path to execute immediately.
  template <typename InlineExec>
  RequestSlot SlotFor(const ldap::LdapRequest& request,
                      routing::BatchRequest* batch, InlineExec&& inline_exec);

  /// One event parked in a cluster's dispatch window, waiting for its flush.
  struct PendingEvent {
    uint32_t cluster = 0;
    routing::EventId event = 0;
    std::vector<ldap::LdapRequest> requests;
    std::vector<RequestSlot> slots;    ///< 1:1 with `requests`.
    MicroDuration inline_latency = 0;  ///< Latency of enqueue-time inline ops.
  };

  /// Builds the LdapBatchResult of a flushed event from its demuxed outcome.
  ldap::LdapBatchResult FinalizeEvent(PendingEvent& event,
                                      routing::EventOutcome& outcome);

  /// Moves every completed event of one cluster's coalescer into the
  /// ready-result map.
  void DrainCoalescer(uint32_t cluster_id);

  UdrConfig config_;
  sim::Network* network_;
  Metrics metrics_;
  Metrics::Counter batch_count_;  ///< udr.batch.count
  Metrics::Counter batch_ops_;    ///< udr.batch.ops
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;

  routing::PartitionMap map_;
  routing::Router router_;
  std::unique_ptr<routing::PlacementPolicy> placement_;
  migration::BandwidthModel bandwidth_model_;
  std::unique_ptr<migration::MigrationScheduler> migration_;

  std::vector<std::unique_ptr<BladeCluster>> clusters_;
  /// One cross-event dispatch window per cluster's PoA (1:1 with clusters_).
  std::vector<std::unique_ptr<routing::Coalescer>> coalescers_;
  /// Events parked in a window, keyed by enqueue handle.
  std::unordered_map<uint64_t, PendingEvent> pending_events_;
  /// Flushed events awaiting TakeBatchResult.
  std::unordered_map<uint64_t, ldap::LdapBatchResult> ready_events_;
  /// Client leg of each in-flight SubmitEvent: {client_site, cluster id}.
  std::unordered_map<uint64_t, std::pair<sim::SiteId, uint32_t>> event_clients_;
  storage::RecordKey next_key_ = 1;
  int64_t subscriber_count_ = 0;
  /// Live runtime splits, oldest first; StartMerge keeps the entry until the
  /// drained sibling actually retires.
  std::vector<HeatSibling> heat_siblings_;
  int runtime_splits_ = 0;
  int runtime_merges_ = 0;
};

}  // namespace udr::udrnf

#endif  // UDR_UDR_UDR_NF_H_
