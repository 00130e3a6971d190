// Router: carries a request from the Point of Access through identity
// location to the replica set owning the subscriber's partition — the data
// location stage of the paper's three-tier PoA / location / storage split,
// extracted from UdrNf.
//
// Responsibilities:
//   * PoA selection: nearest reachable Point of Access for a client site;
//   * identity resolution at a PoA's data location stage instance (§3.3.1
//     decision 1: resolution never leaves the PoA);
//   * the UDR's one identity -> location BindingSet: the authoritative map
//     (what a broadcast over all SEs would answer), which every provisioned
//     PoA stage also resolves through, plus bind/unbind fan-out to the
//     stages that keep per-PoA state (the cache-on-miss stage's cache);
//   * the final hop: LocationEntry -> owning replication::ReplicaSet via the
//     PartitionMap.
//
// Location entries name a partition id, not a storage element, so they stay
// valid across primary-copy migrations and failovers — rebalancing needs no
// location-stage rebind.

#ifndef UDR_ROUTING_ROUTER_H_
#define UDR_ROUTING_ROUTER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "location/identity.h"
#include "location/location_stage.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "routing/batch.h"
#include "routing/heat_tracker.h"
#include "routing/partition_map.h"
#include "routing/poa_cache.h"
#include "sim/network.h"

namespace udr::routing {

/// Outcome of routing one request to its owning replica set.
struct RouteResult {
  Status status;
  replication::ReplicaSet* rs = nullptr;
  storage::RecordKey key = 0;
  uint32_t partition = 0;
  MicroDuration resolve_cost = 0;  ///< Location-stage processing cost.
  bool bypassed_location = false;  ///< Served by the hash fast path.
};

/// What a single-op Route call will do with the replica set. Reads are
/// eligible for the hash-routed location bypass; writes always resolve
/// through the location stage (a bypassed write on an unprovisioned identity
/// would silently materialize a record).
enum class RouteIntent { kRead, kWrite };

/// Hash-routed location bypass (deployed under PlacementKind::kHash): read
/// resolution short-circuits via PartitionMap::PartitionOfIdentity and the
/// identity-hash record key, skipping the location stage entirely. Only
/// identities of `identity_type` are eligible — under hash placement the
/// record is keyed and placed by that identity, and routing any *other*
/// identity type by hash would land on the wrong ring (the paper's
/// one-ring-per-identity-type limitation, §3.5).
struct HashBypassConfig {
  bool enabled = false;
  location::IdentityType identity_type = location::IdentityType::kImsi;
  /// O(1) ring-lookup cost, mirroring LocationCostModel::hash_lookup.
  MicroDuration lookup_cost = Micros(2);
};

/// Heat-aware data path: the router samples every resolved op into a
/// HeatTracker (per-partition EWMA + space-saving top-K key sketch) and can
/// serve the hottest records from per-PoA read-through caches. Everything is
/// off by default — an unconfigured router routes byte-identically to a
/// heat-unaware one.
struct HeatConfig {
  /// Enables access sampling (prerequisite for the cache and split/merge).
  bool track = false;
  HeatTrackerConfig tracker;
  /// Byte budget of each PoA's read-through cache; 0 = no caching.
  int64_t poa_cache_bytes = 0;
  /// PoA-local cost charged per cache hit.
  MicroDuration cache_hit_cost = Micros(2);
  /// Sketch count a key needs before its record is admitted to a cache —
  /// keeps one-hit wonders from churning the byte budget.
  int64_t cache_admit_min_count = 4;
};

class Router {
 public:
  Router(PartitionMap* map, sim::Network* network, Metrics* metrics);

  // -- PoA registry ------------------------------------------------------------

  /// Registers a blade cluster's Point of Access and its data location stage
  /// instance. Called by the deployment layer as clusters come up.
  void RegisterPoa(uint32_t cluster_id, sim::SiteId site,
                   location::LocationStage* stage);

  /// Nearest reachable, serving PoA for a client; returns its cluster id.
  StatusOr<uint32_t> FindPoaCluster(sim::SiteId client_site) const;

  /// Takes a PoA out of (or back into) client rotation. A non-serving PoA —
  /// its site lost, its LDAP farm drained — is skipped by FindPoaCluster, so
  /// clients transparently fail over to the next-nearest PoA while the data
  /// path keeps resolving through surviving location-stage instances.
  void SetPoaServing(uint32_t cluster_id, bool serving);
  bool PoaServing(uint32_t cluster_id) const;

  /// Location stage serving `site`; nullptr when no PoA is deployed there.
  location::LocationStage* StageAtSite(sim::SiteId site) const;

  // -- Identity binding --------------------------------------------------------

  /// Authoritative lookup (what a broadcast over all SEs returns).
  StatusOr<location::LocationEntry> AuthoritativeLookup(
      const location::Identity& id) const;
  bool IsBound(const location::Identity& id) const {
    return bindings_.Find(id).has_value();
  }

  /// The authoritative bindings: the one physical binding set of the UDR.
  /// Provisioned location stages resolve through it; the migration planner
  /// walks it to re-home hash-keyed subscribers after the ring grows,
  /// splits or merges.
  const location::BindingSet& bindings() const { return bindings_; }

  /// Records a binding once, in the shared set, and notifies every PoA stage.
  void Bind(const location::Identity& id, const location::LocationEntry& entry);

  /// Removes a binding everywhere.
  void Unbind(const location::Identity& id);

  // -- Resolution and routing --------------------------------------------------

  /// Resolves an identity at the location stage local to `poa_site`.
  location::ResolveResult ResolveAt(const location::Identity& id,
                                    sim::SiteId poa_site);

  /// Full data-path hop: identity -> location entry -> owning replica set.
  /// The resolution stage's per-op step; reads may take the hash bypass
  /// when it is enabled.
  RouteResult Route(const location::Identity& id, sim::SiteId poa_site,
                    RouteIntent intent = RouteIntent::kWrite);

  // -- Batched pipeline --------------------------------------------------------

  /// Configures the hash-routed location bypass (see HashBypassConfig).
  void SetHashBypass(HashBypassConfig config) { bypass_ = config; }
  const HashBypassConfig& hash_bypass() const { return bypass_; }

  /// Excludes one identity from the bypass: its reads fall back to the
  /// location stage until cleared. Used by the deployment layer when a
  /// subscriber's record could not be re-homed to its ring owner (the stage
  /// still knows the true location; the hash would misroute). The entry's
  /// lifetime is tied to the binding: Unbind drops it, so a deleted
  /// subscriber cannot leak an exception.
  void AddBypassException(const location::Identity& id) {
    bypass_exceptions_.insert(id);
  }
  void ClearBypassException(const location::Identity& id) {
    bypass_exceptions_.erase(id);
  }
  size_t bypass_exception_count() const { return bypass_exceptions_.size(); }

  /// Stage 1 of the pipeline: resolves every op of the batch at the location
  /// stage local to `poa_site` (or via the hash bypass for eligible reads).
  /// Replaces `*routes` with one RouteResult per op and accounts resolution
  /// cost and bypass hits into `result`.
  void ResolveStage(const BatchRequest& batch, sim::SiteId poa_site,
                    BatchResult* result, std::vector<RouteResult>* routes);

  /// The staged batch pipeline: (1) resolve all identities at the PoA,
  /// (2) group ops by owning partition, (3) dispatch one grouped
  /// ReplicaSet::WriteBatch / ReadBatch per partition-group run. Per-key op
  /// order is preserved (grouping is stable and runs within a group execute
  /// in request order); a failed op never poisons the rest of the batch.
  BatchResult RouteBatch(const BatchRequest& batch, sim::SiteId poa_site);

  /// RouteBatch into a caller-owned result: `*out` is overwritten, and
  /// its outcome vector keeps its capacity, so an internal caller that
  /// holds one result across calls allocates no outcome vector per batch.
  void RouteBatch(const BatchRequest& batch, sim::SiteId poa_site,
                  BatchResult* out);

  PartitionMap* partition_map() { return map_; }

  // -- Observability -----------------------------------------------------------

  /// Installs the tracer the pipeline records spans into (nullptr = off).
  /// The coalescer and other front ends reach the tracer through here so
  /// one sink covers the whole data path of this router.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  /// Installs the flight recorder resolve failures are logged to.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  // -- Heat tier ---------------------------------------------------------------

  /// Installs (or reconfigures) heat tracking and the per-PoA caches. PoAs
  /// registered later inherit the configuration.
  void ConfigureHeat(const HeatConfig& config);
  const HeatConfig& heat_config() const { return heat_; }

  /// The access-heat tracker; nullptr until ConfigureHeat(track = true).
  HeatTracker* heat_tracker() { return heat_tracker_.get(); }
  const HeatTracker* heat_tracker() const { return heat_tracker_.get(); }

  /// The read-through cache of the PoA at `site`; nullptr when uncached.
  PoaCache* poa_cache_at(sim::SiteId site);

  /// Synchronously drops `key` from every PoA cache. Called by the batched
  /// write flush and by every direct-write site (create/delete/modify/
  /// re-home), so a cached record never outlives a committed write.
  void InvalidateCached(storage::RecordKey key);

  /// Offers a freshly read record for caching; admitted only if the key is
  /// hot enough in the sketch (and `stale` is false — a cache entry must
  /// equal newest committed master state). The cache takes a Share() of
  /// `record`'s payload, not a copy.
  void CachePopulate(storage::RecordKey key, uint32_t partition,
                     sim::SiteId poa_site, const storage::Record& record,
                     bool stale);

  /// Partition epoch, bumped on migration cutover and split/merge; cache
  /// entries are tagged with it so nothing is served across a re-home (the
  /// bypass-exception shape, applied to cached state).
  uint64_t partition_epoch(uint32_t partition) const {
    return partition < partition_epochs_.size() ? partition_epochs_[partition]
                                                : 0;
  }
  void BumpPartitionEpoch(uint32_t partition);

 private:
  struct Poa {
    uint32_t cluster_id = 0;
    sim::SiteId site = 0;
    location::LocationStage* stage = nullptr;
    std::unique_ptr<PoaCache> cache;
    bool serving = true;  ///< In client rotation (false: site lost/drained).
  };

  /// Resolves one op: hash bypass when eligible, location stage otherwise.
  RouteResult ResolveOne(const location::Identity& id, sim::SiteId poa_site,
                         bool read_intent);

  /// Stage 3 helper: dispatches one partition-group — the resolved ops
  /// owned by `partition` — walking them in request order and flushing
  /// consecutive same-kind runs as one grouped ReplicaSet call. Returns the
  /// group's modelled latency.
  MicroDuration DispatchGroup(const BatchRequest& batch,
                              const std::vector<RouteResult>& routes,
                              uint32_t partition,
                              sim::SiteId poa_site, BatchResult* result,
                              const obs::TraceContext& span_parent,
                              MicroTime dispatch_start);

  /// The cache admission test: the sketch has seen `key` at least
  /// cache_admit_min_count times (always true without a sketch).
  bool WouldAdmit(storage::RecordKey key) const;

  /// Serves one read op from `cache` when possible (same status/value
  /// semantics as the replica-set read path; a whole-record hit copies only
  /// `projection` when non-null and shares the cached payload otherwise).
  /// Returns false on miss.
  bool TryServeFromCache(const Operation& op, const RouteResult& route,
                         const std::vector<storage::AttrId>* projection,
                         PoaCache* cache, OpOutcome* out);

  PartitionMap* map_;
  sim::Network* network_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Pre-registered handles for the pipeline's hot-path metrics (the string
  // Add/Observe API stays for cold call sites).
  Metrics::Counter routed_;
  Metrics::Counter bypass_hits_;
  Metrics::Counter cache_hits_;
  Metrics::Counter cache_misses_;
  Metrics::Counter cache_insertions_;
  Metrics::Counter cache_invalidations_;
  Metrics::Counter batch_count_;
  Metrics::Counter batch_ops_;
  Metrics::HistHandle batch_size_;
  Metrics::HistHandle batch_groups_;
  HashBypassConfig bypass_;
  HeatConfig heat_;
  std::unique_ptr<HeatTracker> heat_tracker_;
  std::vector<uint64_t> partition_epochs_;
  std::unordered_set<location::Identity, location::IdentityHasher>
      bypass_exceptions_;
  std::vector<Poa> poas_;
  location::BindingSet bindings_;
  // RouteBatch scratch, reused across calls so a one-op batch (every per-op
  // LDAP request) allocates little beyond its result. RouteBatch is not
  // reentrant: nothing it calls routes another batch.
  std::vector<RouteResult> routes_;
  std::vector<uint32_t> groups_;
  std::vector<replication::BatchReadOp> read_ops_;
  std::vector<std::vector<storage::WriteOp>> write_txns_;
  std::vector<size_t> run_;
  replication::GroupReadResult read_result_;
  replication::GroupWriteResult write_result_;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_ROUTER_H_
