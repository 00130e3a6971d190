#include "udr/udr_nf.h"

#include <algorithm>
#include <cassert>

#include "common/scratch.h"
#include "ldap/filter.h"
#include "replication/write_builder.h"

namespace udr::udrnf {

using ldap::LdapBatchResult;
using ldap::LdapRequest;
using ldap::LdapResult;
using ldap::LdapResultCode;
using ldap::StatusToLdapCode;
using location::Identity;
using location::IdentityType;
using location::LocationEntry;
using replication::ReadPreference;
using replication::ReplicaSet;
using replication::WriteBuilder;
using storage::Record;

namespace {

/// True when every attribute `record` holds is one of `names`: the record is
/// then its own projection onto `names`.
bool HoldsOnly(const Record& record, const std::vector<std::string>& names) {
  if (record.attribute_count() > names.size()) return false;
  for (const storage::PackedAttr& e : record.entries()) {
    if (std::find(names.begin(), names.end(),
                  storage::AttrNameOf(e.name_id)) == names.end()) {
      return false;
    }
  }
  return true;
}

routing::PartitionMapConfig MapConfigFrom(const UdrConfig& config) {
  routing::PartitionMapConfig mc;
  mc.replication_factor = config.replication_factor;
  mc.partitions_per_se = config.partitions_per_se;
  mc.rebalance_weight = config.rebalance_weight;
  mc.replica_template.sync_mode = config.sync_mode;
  mc.replica_template.partition_mode = config.partition_mode;
  mc.replica_template.merge_policy = config.merge_policy;
  mc.replica_template.failover_detection = config.failover_detection;
  mc.replica_template.async_ship_delay = config.async_ship_delay;
  return mc;
}

}  // namespace

UdrNf::UdrNf(UdrConfig config, sim::Network* network)
    : config_(std::move(config)),
      network_(network),
      batch_count_(metrics_.RegisterCounter("udr.batch.count")),
      batch_ops_(metrics_.RegisterCounter("udr.batch.ops")),
      submit_ok_(metrics_.RegisterCounter("udr.submit.ok")),
      submit_failed_(metrics_.RegisterCounter("udr.submit.failed")),
      search_ok_(metrics_.RegisterCounter("udr.search.ok")),
      modify_ok_(metrics_.RegisterCounter("udr.modify.ok")),
      modify_failed_(metrics_.RegisterCounter("udr.modify.failed")),
      create_ok_(metrics_.RegisterCounter("udr.create.ok")),
      event_enqueued_(metrics_.RegisterCounter("udr.event.enqueued")),
      map_(MapConfigFrom(config_), network),
      router_(&map_, network, &metrics_),
      placement_(routing::MakePlacementPolicy(config_.placement)),
      bandwidth_model_(
          migration::BandwidthModelConfig{config_.migration_bandwidth_bps,
                                          config_.migration_chunk_bytes},
          &network->topology()),
      migration_(std::make_unique<migration::MigrationScheduler>(
          migration::MigrationSchedulerConfig{
              config_.migration_window_us,
              config_.migration_foreground_cost_bytes},
          &map_, &router_, &bandwidth_model_, network, &metrics_)) {
  migration_->set_rehome_executor(
      [this](const migration::MigrationTaskSpec& spec) {
        return RehomeOne(spec);
      });
  if (config_.placement == routing::PlacementKind::kHash &&
      config_.hash_routed_reads) {
    routing::HashBypassConfig bypass;
    bypass.enabled = true;
    bypass.identity_type = config_.hash_identity_type;
    bypass.lookup_cost = config_.location_model.hash_lookup;
    router_.SetHashBypass(bypass);
  }
  if (config_.heat_tracking || config_.poa_cache_bytes > 0 ||
      config_.heat_split_threshold > 0) {
    routing::HeatConfig heat;
    heat.track = true;
    heat.tracker.halflife_us = config_.heat_halflife_us;
    heat.tracker.top_k = config_.heat_top_k;
    heat.poa_cache_bytes = config_.poa_cache_bytes;
    heat.cache_hit_cost = config_.poa_cache_hit_cost;
    heat.cache_admit_min_count = config_.poa_cache_admit_min;
    router_.ConfigureHeat(heat);
  }
  if (config_.trace_sample_rate > 0) {
    obs::Tracer::Options topt;
    topt.sample_rate = config_.trace_sample_rate;
    topt.seed = config_.trace_seed;
    topt.max_spans = config_.trace_max_spans > 0
                         ? static_cast<size_t>(config_.trace_max_spans)
                         : 0;
    topt.lane = config_.trace_lane;
    tracer_ = std::make_unique<obs::Tracer>(topt, network_->clock());
    router_.set_tracer(tracer_.get());
    migration_->set_tracer(tracer_.get());
  }
  if (config_.flight_recorder_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        static_cast<size_t>(config_.flight_recorder_capacity));
    router_.set_flight_recorder(flight_.get());
    migration_->set_flight_recorder(flight_.get());
  }
  if (config_.obs_sample_interval_us > 0) {
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        obs::TimeSeriesConfig{
            config_.obs_sample_interval_us,
            config_.obs_ring_capacity > 0
                ? static_cast<size_t>(config_.obs_ring_capacity)
                : 0},
        &metrics_, network_->clock());
    // Default series: the signals the ROADMAP control-plane loop consumes —
    // arrival/throughput rates for window sizing, queueing/batch quantiles
    // for the latency budget.
    sampler_->TrackCounter("router.routed");
    sampler_->TrackCounter("router.cache.hits");
    sampler_->TrackCounter("udr.batch.ops");
    sampler_->TrackCounter("coalescer.events");
    sampler_->TrackQuantile("router.batch.size", 50);
    sampler_->TrackQuantile("coalescer.queue_delay_us", 99);
  }
}

UdrNf::~UdrNf() = default;

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

std::unique_ptr<location::LocationStage> UdrNf::MakeLocationStage() {
  if (config_.location_kind == LocationKind::kProvisioned) {
    return std::make_unique<location::ProvisionedLocationStage>(
        &router_.bindings(), config_.location_model);
  }
  return std::make_unique<location::CachedLocationStage>(
      [this](const Identity& id) { return router_.AuthoritativeLookup(id); },
      [this]() { return TotalStorageElements(); }, config_.location_model);
}

StatusOr<BladeCluster*> UdrNf::AddCluster(sim::SiteId site) {
  if (clusters_.size() >= kMaxClustersPerNf) {
    return Status::ResourceExhausted("UDR NF already at 256 blade clusters");
  }
  auto cluster = std::make_unique<BladeCluster>(
      static_cast<uint32_t>(clusters_.size()), site, network_->clock());

  // Build every fallible piece before registering anything with the routing
  // layer: an early return destroys the cluster, and the map must never be
  // left holding pointers into it.
  std::vector<storage::StorageElement*> new_ses;
  for (int i = 0; i < config_.se_per_cluster; ++i) {
    storage::StorageElementConfig se_cfg = config_.se_template;
    auto se = cluster->AddStorageElement(
        se_cfg, static_cast<uint32_t>(map_.se_count() + new_ses.size()));
    if (!se.ok()) return se.status();
    new_ses.push_back(*se);
  }
  for (int i = 0; i < config_.ldap_per_cluster; ++i) {
    auto server = cluster->AddLdapServer(config_.ldap_template, this);
    if (!server.ok()) return server.status();
  }
  for (storage::StorageElement* se : new_ses) {
    map_.RegisterStorageElement(se, cluster->id());
  }

  auto stage = MakeLocationStage();
  if (config_.location_kind == LocationKind::kProvisioned && !clusters_.empty()) {
    // §3.4.2: the new data location stage instance syncs its identity maps
    // from a peer; the new PoA cannot serve until the copy completes.
    auto* self = static_cast<location::ProvisionedLocationStage*>(stage.get());
    auto* peer = static_cast<location::ProvisionedLocationStage*>(
        clusters_.front()->location_stage());
    if (peer != nullptr) {
      MicroDuration window = self->BeginSyncFrom(*peer, Now());
      metrics_.Observe("scaleout.sync_window_us", window);
    }
  }
  cluster->SetLocationStage(std::move(stage));
  router_.RegisterPoa(cluster->id(), site, cluster->location_stage());

  // The PoA's cross-event dispatch window. With coalesce_window_us == 0 the
  // coalescer is a passthrough and the enqueue path short-circuits to
  // ProcessBatch, so deployments without the knob pay nothing.
  routing::CoalescerConfig cc;
  cc.window = config_.coalesce_window_us;
  cc.max_ops = config_.coalesce_max_ops > 0
                   ? static_cast<size_t>(config_.coalesce_max_ops)
                   : 0;
  cc.poa_site = site;
  coalescers_.push_back(std::make_unique<routing::Coalescer>(
      cc, &router_, network_->clock(), &metrics_));
  window_events_.emplace_back();
  window_write_keys_.emplace_back();

  clusters_.push_back(std::move(cluster));
  return clusters_.back().get();
}

StatusOr<routing::RebalanceReport> UdrNf::Rebalance() {
  routing::RebalanceReport report;
  report.spread_before = map_.PrimarySpread();
  report.spread_after = report.spread_before;
  report.population_spread_before = map_.PopulationSpread();
  report.population_spread_after = report.population_spread_before;

  // Plan (unless a rebalance is already in flight — repeated calls drain the
  // existing delta instead of recomputing placement from scratch), then run
  // the primary moves to completion through the one migration scheduler.
  // Queued re-home tasks keep their throttle: the synchronous barrier is for
  // the rebalance delta only.
  StartMigration();
  const auto& tasks = migration_->tasks();
  std::vector<size_t> live;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].terminal() &&
        tasks[i].spec.kind == migration::TaskKind::kPrimaryMove) {
      live.push_back(i);
    }
  }
  migration_->DrainPrimaryMoves();

  for (size_t i : live) {
    const migration::MigrationTask& task = tasks[i];
    if (task.state == migration::TaskState::kFailed) {
      metrics_.Add("rebalance.failed");
      return task.error;
    }
    routing::PartitionMove move;
    move.partition = task.spec.partition;
    move.from_site =
        map_.se_info(static_cast<size_t>(task.spec.from_se)).se->site();
    move.to_site =
        map_.se_info(static_cast<size_t>(task.spec.to_se)).se->site();
    move.migration = task.report;
    report.entries_replayed += task.report.entries_replayed;
    report.bytes_moved += task.report.bytes_moved;
    report.duration += task.report.duration;
    report.moves.push_back(std::move(move));
  }
  report.spread_after = map_.PrimarySpread();
  report.population_spread_after = map_.PopulationSpread();

  metrics_.Add("rebalance.passes");
  metrics_.Add("rebalance.moves", static_cast<int64_t>(report.moves.size()));
  metrics_.Observe("rebalance.duration_us", report.duration);
  metrics_.Observe("rebalance.bytes_moved", report.bytes_moved);
  metrics_.Observe("rebalance.population_spread_after",
                   report.population_spread_after);
  return report;
}

migration::MigrationProgress UdrNf::StartMigration() {
  if (!migration_->RebalanceInFlight()) {
    migration::MigrationPlan plan =
        migration::MigrationPlanner::PlanRebalance(map_);
    if (!plan.empty()) {
      migration_->EnqueuePlan(plan);
      metrics_.Add("migration.plans");
      if (flight_ != nullptr) {
        flight_->Record(Now(), "migration", "plan.rebalance",
                        "tasks=" + std::to_string(plan.tasks.size()));
      }
    }
  }
  return migration_->Progress();
}

void UdrNf::PumpMigration() { migration_->Pump(); }

migration::MigrationProgress UdrNf::StartDecommission(int se_index) {
  migration::MigrationPlan plan =
      migration::MigrationPlanner::PlanDecommission(map_, se_index);
  if (!plan.empty()) {
    migration_->EnqueuePlan(plan);
    metrics_.Add("migration.decommission_plans");
    if (flight_ != nullptr) {
      flight_->Record(Now(), "migration", "plan.decommission",
                      "se=" + std::to_string(se_index) +
                          " tasks=" + std::to_string(plan.tasks.size()));
    }
  }
  return migration_->Progress();
}

void UdrNf::SetClusterServing(uint32_t cluster_id, bool serving) {
  if (cluster_id >= clusters_.size()) return;
  router_.SetPoaServing(cluster_id, serving);
  for (ldap::LdapServer* server : clusters_[cluster_id]->balancer().servers()) {
    server->set_healthy(serving);
  }
  metrics_.Add(serving ? "cluster.restored" : "cluster.drained");
  if (flight_ != nullptr) {
    flight_->Record(Now(), "cluster", serving ? "restored" : "drained",
                    "cluster=" + std::to_string(cluster_id));
  }
}

// ---------------------------------------------------------------------------
// Heat tier: runtime partition split / merge
// ---------------------------------------------------------------------------

StatusOr<uint32_t> UdrNf::StartSplit(uint32_t parent) {
  if (config_.placement != routing::PlacementKind::kHash) {
    // Splitting moves subscribers by ring arc; without hash placement
    // {partition, key} is not a function of the ring and nothing would move.
    return Status::FailedPrecondition(
        "runtime partition split requires hash placement");
  }
  UDR_ASSIGN_OR_RETURN(uint32_t sibling, map_.CommissionSplitSibling(parent));
  // The ring now names the sibling for half of the parent's arcs: every
  // PoA-cached record tagged with the parent's old resolution is suspect.
  router_.BumpPartitionEpoch(parent);
  heat_siblings_.push_back(HeatSibling{parent, sibling, Now()});
  ++runtime_splits_;
  metrics_.Add("udr.heat.splits");
  if (flight_ != nullptr) {
    flight_->Record(Now(), "heat", "split",
                    "parent=" + std::to_string(parent) +
                        " sibling=" + std::to_string(sibling));
  }

  migration::MigrationPlan plan = migration::MigrationPlanner::PlanSplit(
      router_, map_, config_.hash_identity_type, parent, sibling);
  if (!plan.empty()) {
    migration_->EnqueuePlan(plan);
    if (config_.migration_bandwidth_bps <= 0) migration_->DrainAll();
  }
  return sibling;
}

Status UdrNf::StartMerge(uint32_t sibling) {
  if (config_.placement != routing::PlacementKind::kHash) {
    return Status::FailedPrecondition(
        "runtime partition merge requires hash placement");
  }
  const int parent = map_.parent_of(sibling);
  UDR_RETURN_IF_ERROR(map_.BeginMerge(sibling));
  // Reads and writes route to the arc successors from this point on; cached
  // copies tagged with either side of the merge are suspect.
  router_.BumpPartitionEpoch(sibling);
  if (parent >= 0) router_.BumpPartitionEpoch(static_cast<uint32_t>(parent));
  metrics_.Add("udr.heat.merge_begun");
  if (flight_ != nullptr) {
    flight_->Record(Now(), "heat", "merge.begin",
                    "sibling=" + std::to_string(sibling) +
                        " parent=" + std::to_string(parent));
  }

  migration::MigrationPlan plan = migration::MigrationPlanner::PlanMerge(
      router_, map_, config_.hash_identity_type, sibling);
  if (!plan.empty()) {
    migration_->EnqueuePlan(plan);
    if (config_.migration_bandwidth_bps <= 0) migration_->DrainAll();
  }
  // Unthrottled drains empty the sibling inline; PumpHeat retires it then
  // (or later, once a throttled drain lands the last re-home).
  return Status::Ok();
}

void UdrNf::PumpHeat() {
  routing::HeatTracker* tracker = router_.heat_tracker();
  if (tracker == nullptr) return;

  // Phase out: a draining merge sibling retires once its population drained.
  for (auto it = heat_siblings_.begin(); it != heat_siblings_.end();) {
    if (map_.partition_draining(it->sibling) &&
        map_.population(it->sibling) == 0 &&
        map_.RetirePartition(it->sibling).ok()) {
      ++runtime_merges_;
      metrics_.Add("udr.heat.merges");
      if (flight_ != nullptr) {
        flight_->Record(Now(), "heat", "merge.retired",
                        "sibling=" + std::to_string(it->sibling));
      }
      it = heat_siblings_.erase(it);
      continue;
    }
    ++it;
  }

  const MicroTime now = Now();

  // Split: hottest live partition at or past the threshold.
  if (config_.heat_split_threshold > 0 &&
      runtime_splits_ < config_.heat_max_splits &&
      config_.placement == routing::PlacementKind::kHash) {
    int hottest = -1;
    double best = 0;
    for (uint32_t p = 0; p < map_.partition_count(); ++p) {
      if (map_.partition_retired(p) || map_.partition_draining(p)) continue;
      const double heat = tracker->PartitionHeat(p, now);
      if (heat >= config_.heat_split_threshold && heat > best) {
        best = heat;
        hottest = static_cast<int>(p);
      }
    }
    if (hottest >= 0) (void)StartSplit(static_cast<uint32_t>(hottest));
  }

  // Merge: cooled siblings past their cooldown, one batch per pump. The
  // migration queue must be idle so a sibling still receiving its split
  // half-slice is never judged cold on arrival.
  if (config_.heat_merge_threshold > 0 && !migration_->HasWork()) {
    const MicroDuration cooldown = config_.heat_split_cooldown_us > 0
                                       ? config_.heat_split_cooldown_us
                                       : 4 * config_.heat_halflife_us;
    std::vector<uint32_t> cold;
    for (const HeatSibling& sib : heat_siblings_) {
      if (map_.partition_draining(sib.sibling) ||
          map_.partition_retired(sib.sibling)) {
        continue;  // Already merging.
      }
      if (now - sib.split_at < cooldown) continue;
      if (tracker->PartitionHeat(sib.sibling, now) <
          config_.heat_merge_threshold) {
        cold.push_back(sib.sibling);
      }
    }
    for (uint32_t sibling : cold) (void)StartMerge(sibling);
  }
}

BladeCluster* UdrNf::ClusterAtSite(sim::SiteId site) {
  for (auto& c : clusters_) {
    if (c->site() == site) return c.get();
  }
  return nullptr;
}

int UdrNf::TotalStorageElements() const {
  int total = 0;
  for (const auto& c : clusters_) total += static_cast<int>(c->se_count());
  return total;
}

int64_t UdrNf::TotalLdapOpsPerSecond() const {
  int64_t total = 0;
  for (const auto& c : clusters_) total += c->LdapOpsPerSecond();
  return total;
}

int64_t UdrNf::TotalSubscriberCapacity(int64_t avg_record_bytes) const {
  int64_t total = 0;
  for (const auto& c : clusters_) {
    total += c->SubscriberCapacity(avg_record_bytes);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Identity helpers
// ---------------------------------------------------------------------------

bool UdrNf::IsIdentityAttr(const std::string& attr) {
  return IdentityTypeForAttr(attr).has_value();
}

std::optional<IdentityType> UdrNf::IdentityTypeForAttr(const std::string& attr) {
  if (attr == "imsi") return IdentityType::kImsi;
  if (attr == "msisdn") return IdentityType::kMsisdn;
  if (attr == "impu") return IdentityType::kImpu;
  if (attr == "impi") return IdentityType::kImpi;
  return std::nullopt;
}

std::vector<Identity> UdrNf::IdentitiesOfRecord(const Record& record) const {
  std::vector<Identity> out;
  for (const char* attr : {"imsi", "msisdn", "impi"}) {
    auto v = record.Get(attr);
    if (v.has_value()) {
      if (const auto* s = std::get_if<std::string>(&*v)) {
        out.push_back(Identity{*IdentityTypeForAttr(attr), *s});
      }
    }
  }
  auto impus = record.Get("impu");
  if (impus.has_value()) {
    if (const auto* xs = std::get_if<std::vector<std::string>>(&*impus)) {
      for (const auto& x : *xs) {
        out.push_back(Identity{IdentityType::kImpu, x});
      }
    } else if (const auto* s = std::get_if<std::string>(&*impus)) {
      out.push_back(Identity{IdentityType::kImpu, *s});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Subscriber administration
// ---------------------------------------------------------------------------

void UdrNf::Commission() {
  const size_t before = map_.partition_count();
  map_.Commission();
  if (config_.placement == routing::PlacementKind::kHash &&
      map_.partition_count() > before) {
    RehomeHashKeyed();
  }
}

void UdrNf::RehomeHashKeyed() {
  // The ring grew: ~K/N hash-keyed subscribers now hash to a new partition.
  // Each one becomes a re-home task through the migration scheduler; its
  // identity resolves through the location stage (bypass exception, added at
  // enqueue) for the whole migration window and goes back to the fast path
  // at cutover. Unthrottled deployments drain inline — the pre-subsystem
  // synchronous behavior; throttled ones drain through PumpMigration.
  migration::MigrationPlan plan = migration::MigrationPlanner::PlanRehome(
      router_, map_, config_.hash_identity_type);
  for (const Identity& id : plan.already_homed) {
    // The ring owner agrees with the provisioned location again (e.g. a
    // later ring change undid the split that once stranded this subscriber):
    // any bypass exception left from a failed re-home is obsolete and would
    // pin the slow path forever.
    router_.ClearBypassException(id);
  }
  if (plan.empty()) return;
  migration_->EnqueuePlan(plan);
  if (config_.migration_bandwidth_bps <= 0) migration_->DrainAll();
}

StatusOr<int64_t> UdrNf::RehomeOne(const migration::MigrationTaskSpec& spec) {
  // Revalidate against live state: the binding may have moved, vanished, or
  // been re-homed by a later ring change while the task sat in the queue.
  auto lookup = router_.AuthoritativeLookup(spec.identity);
  if (!lookup.ok()) return int64_t{0};  // Deleted meanwhile; nothing to move.
  const LocationEntry from_entry = *lookup;
  uint32_t owner = map_.PartitionOfIdentity(spec.identity);
  if (owner == from_entry.partition) return int64_t{0};  // Already homed.

  ReplicaSet* from = map_.partition(from_entry.partition);
  ReplicaSet* to = map_.partition(owner);
  auto record = from->ReadRecord(from->master_site(), from_entry.key,
                                 ReadPreference::kMasterOnly);
  replication::WriteResult write;
  if (record.ok()) {
    WriteBuilder put;
    put.PutRecord(from_entry.key, *record);
    write = to->Write(to->master_site(), std::move(put).Build());
  }
  if (!record.ok() || !write.status.ok()) {
    // The move failed; the old partition keeps the record and the binding,
    // and the enqueue-time bypass exception keeps routing this identity
    // through the location stage until a later ring change re-plans it.
    metrics_.Add("hash.rehome.failed");
    return record.ok() ? write.status : record.status();
  }
  // Partitions overlay a shared SE fleet (a runtime split sibling lands on
  // existing SEs), and each SE keeps ONE physical row per record key. A
  // replicated delete through the old partition would therefore race the new
  // partition's put on every SE hosting copies of BOTH sides, erasing the
  // row the move just landed once the delete stream applies. Remove the old
  // copies surgically instead, and only from SEs exclusive to the old
  // partition — on shared SEs the row simply changes owners (the
  // destination's replication stream overwrites it in place).
  for (uint32_t r = 0; r < from->replica_count(); ++r) {
    storage::StorageElement* se = from->replica_se(r);
    bool shared = false;
    for (uint32_t d = 0; d < to->replica_count(); ++d) {
      if (to->replica_se(d) == se) {
        shared = true;
        break;
      }
    }
    // lint:allow(out-of-log-write): a surgical delete on SEs exclusive to
    // the old partition (see above); catch-up's adoption check covers it.
    if (!shared) se->store().DeleteRecord(from_entry.key);
  }
  // The record changed homes: any PoA-cached copy carries the old partition
  // tag and must not serve another read.
  router_.InvalidateCached(from_entry.key);

  LocationEntry entry;
  entry.key = from_entry.key;
  entry.partition = owner;
  for (const Identity& sub_id : IdentitiesOfRecord(*record)) {
    router_.Bind(sub_id, entry);
  }
  router_.Bind(spec.identity, entry);
  map_.AddPopulation(from_entry.partition, -1);
  map_.AddPopulation(owner, 1);
  metrics_.Add("hash.rehome.moved");
  return record->ApproxBytes();
}

StatusOr<UdrNf::CreateOutcome> UdrNf::CreateSubscriber(const CreateSpec& spec,
                                                       sim::SiteId origin_site) {
  if (spec.identities.empty()) {
    return Status::InvalidArgument("subscription needs at least one identity");
  }
  for (const Identity& id : spec.identities) {
    if (router_.IsBound(id)) {
      return Status::AlreadyExists("identity " + id.ToString() +
                                   " already provisioned");
    }
  }
  Commission();
  routing::PlacementRequest preq;
  preq.home_site = spec.home_site;
  preq.identity = &spec.identities.front();

  // Hash placement keys the record by identity hash, making {partition, key}
  // a pure function of the hash identity — that is what lets the router's
  // location bypass resolve reads without the location stage. The hash
  // identity is the first identity of the configured bypass type, so bypass
  // routing and placement always agree.
  const bool hash_keyed = config_.placement == routing::PlacementKind::kHash;
  if (hash_keyed) {
    const Identity* hash_id = nullptr;
    for (const Identity& id : spec.identities) {
      if (id.type != config_.hash_identity_type) continue;
      if (hash_id != nullptr) {
        // Two identities of the bypass type would each hash-route to their
        // own ring position while only one can key the record — bypassed
        // reads on the other would miss. Keep the placement function total.
        return Status::InvalidArgument(
            "hash placement allows one " +
            std::string(location::IdentityTypeName(
                config_.hash_identity_type)) +
            " per subscription");
      }
      hash_id = &id;
    }
    if (hash_id != nullptr) preq.identity = hash_id;
  }
  UDR_ASSIGN_OR_RETURN(uint32_t pidx, placement_->PickPartition(map_, preq));
  ReplicaSet* rs = map_.partition(pidx);

  // Capacity admission on the primary copy's storage element. (All copies
  // grow by the same amount; admission uses the primary.)
  int64_t bytes = spec.profile.ApproxBytes();
  UDR_RETURN_IF_ERROR(map_.primary_se(pidx)->CheckCapacity(bytes));

  storage::RecordKey key =
      hash_keyed ? location::HashIdentity(*preq.identity) : next_key_++;
  WriteBuilder wb;
  wb.PutRecord(key, spec.profile);
  replication::WriteResult write = rs->Write(origin_site, std::move(wb).Build());
  if (!write.status.ok()) {
    metrics_.Add("udr.create.rejected");
    return write.status;
  }

  // Defensive vs delete-recreate: a cached copy of a previous tenant of this
  // key must not outlive its re-creation.
  router_.InvalidateCached(key);

  LocationEntry entry;
  entry.key = key;
  entry.partition = pidx;
  for (const Identity& id : spec.identities) {
    router_.Bind(id, entry);
  }
  map_.AddPopulation(pidx, 1);
  ++subscriber_count_;
  create_ok_.Add();

  CreateOutcome out;
  out.entry = entry;
  out.write = write;
  return out;
}

Status UdrNf::DeleteSubscriber(const Identity& id, sim::SiteId origin_site) {
  UDR_ASSIGN_OR_RETURN(LocationEntry entry, router_.AuthoritativeLookup(id));
  ReplicaSet* rs = map_.partition(entry.partition);
  auto record = rs->ReadRecord(origin_site, entry.key,
                               ReadPreference::kMasterOnly, nullptr);
  if (!record.ok()) return record.status();

  WriteBuilder wb;
  wb.Delete(entry.key);
  replication::WriteResult write = rs->Write(origin_site, std::move(wb).Build());
  if (!write.status.ok()) return write.status;
  router_.InvalidateCached(entry.key);

  // Unbind drops every identity's bypass exception too, so a subscriber that
  // landed on the exception list during a failed re-home does not leak an
  // entry past its own deletion.
  for (const Identity& sub_id : IdentitiesOfRecord(*record)) {
    router_.Unbind(sub_id);
  }
  router_.Unbind(id);  // Defensive: DN identity may not appear in attrs.
  map_.AddPopulation(entry.partition, -1);
  --subscriber_count_;
  metrics_.Add("udr.delete.ok");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// LDAP front door
// ---------------------------------------------------------------------------

LdapResult UdrNf::Submit(const LdapRequest& request, sim::SiteId client_site) {
  auto poa = router_.FindPoaCluster(client_site);
  if (!poa.ok()) {
    LdapResult r;
    r.code = LdapResultCode::kUnavailable;
    r.diagnostic = poa.status().message();
    r.latency = network_->rpc_timeout();
    metrics_.Add("udr.submit.unavailable");
    return r;
  }
  BladeCluster* cluster = clusters_[*poa].get();
  LdapResult result = cluster->balancer().Serve(request, cluster->site());
  // Client <-> PoA leg (LAN when the client is co-located, §3.3.2 measure 1).
  result.latency += network_->topology().Rtt(client_site, cluster->site()) +
                    network_->topology().HopOverhead();
  (result.ok() ? submit_ok_ : submit_failed_).Add();
  return result;
}

StatusOr<Identity> UdrNf::RequestIdentity(const LdapRequest& request) const {
  // Base-object operations name the subscriber in the DN leaf.
  if (!request.dn.empty()) {
    const ldap::Rdn& leaf = request.dn.leaf();
    auto type = IdentityTypeForAttr(leaf.attr);
    if (type.has_value()) {
      return Identity{*type, leaf.value};
    }
  }
  // Single-level searches under ou=subscribers use an equality filter on an
  // identity attribute (the SLF-style lookup pattern).
  if (request.op == ldap::LdapOp::kSearch &&
      request.scope == ldap::SearchScope::kSingleLevel) {
    auto filter = ldap::Filter::Parse(request.filter);
    if (filter.ok() && filter->kind() == ldap::Filter::Kind::kEquality) {
      auto type = IdentityTypeForAttr(filter->attr());
      if (type.has_value()) {
        return Identity{*type, filter->value()};
      }
    }
  }
  return Status::InvalidArgument(
      "request does not address a subscriber identity (dn=" +
      request.dn.ToString() + ")");
}

ReadPreference UdrNf::ReadPrefFor(const LdapRequest& request) const {
  if (request.master_only || !config_.fe_slave_reads) {
    return ReadPreference::kMasterOnly;
  }
  return ReadPreference::kNearest;
}

LdapResult UdrNf::Process(const LdapRequest& request, uint32_t poa_site) {
  int64_t charged = 0;
  ProcessRequests(&request, 1, poa_site, &charged, &process_result_);
  // A per-op call is one foreground op even when it failed to translate.
  if (charged == 0) migration_->OnForegroundOps(1);
  LdapResult result = std::move(process_result_.results.front());
  result.latency = process_result_.latency;
  return result;
}

LdapResult UdrNf::ProcessInline(const LdapRequest& request, uint32_t poa_site) {
  migration_->OnForegroundOps(1);
  if (request.op == ldap::LdapOp::kAdd) return DoAdd(request, poa_site);
  LdapResult r;
  r.code = LdapResultCode::kProtocolError;
  r.diagnostic = "unsupported operation";
  return r;
}

LdapResult UdrNf::SearchResultFor(const LdapRequest& request,
                                  storage::Record record) const {
  LdapResult r;
  // The default presence filter matches every entry: no parse needed.
  bool matches = true;
  if (request.filter != ldap::kPresenceFilter) {
    auto filter = ldap::Filter::Parse(request.filter);
    if (!filter.ok()) {
      r.code = LdapResultCode::kProtocolError;
      r.diagnostic = filter.status().message();
      return r;
    }
    matches = (filter->kind() == ldap::Filter::Kind::kPresence &&
               filter->attr() == "objectclass") ||
              filter->Matches(record);
  }
  if (matches) {
    ldap::SearchEntry entry;
    entry.dn = request.dn;
    if (request.requested_attrs.empty()) {
      entry.record = std::move(record);
    } else if (HoldsOnly(record, request.requested_attrs)) {
      // Already the projection (the replica projected it): no second copy.
      entry.record = std::move(record);
      entry.record.set_version(0);
    } else {
      for (const std::string& attr : request.requested_attrs) {
        const storage::Attribute* a = record.Find(attr);
        if (a != nullptr) {
          entry.record.Set(attr, a->value, a->modified_at, a->writer);
        }
      }
    }
    r.entries.push_back(std::move(entry));
  }
  r.code = LdapResultCode::kSuccess;
  return r;
}

std::vector<storage::AttrId> UdrNf::SearchProjection(
    const LdapRequest& request) {
  if (request.op != ldap::LdapOp::kSearch ||
      request.scope != ldap::SearchScope::kBaseObject ||
      request.filter != ldap::kPresenceFilter ||
      request.requested_attrs.empty()) {
    return {};
  }
  std::vector<storage::AttrId> ids;
  if (!spare_ids_.empty()) {
    ids = std::move(spare_ids_.back());
    spare_ids_.pop_back();
    ids.clear();
  }
  ids.reserve(request.requested_attrs.size());
  for (const std::string& attr : request.requested_attrs) {
    const storage::AttrId id = storage::LookupAttr(attr);
    if (id == storage::kInvalidAttrId) {
      spare_ids_.push_back(std::move(ids));
      return {};
    }
    ids.push_back(id);
  }
  return ids;
}

LdapResult UdrNf::DoAdd(const LdapRequest& request, uint32_t poa_site) {
  LdapResult r;
  if (request.dn.empty() || !IsIdentityAttr(request.dn.leaf().attr)) {
    r.code = LdapResultCode::kUnwillingToPerform;
    r.diagnostic = "Add must target an identity-keyed subscriber DN";
    return r;
  }
  CreateSpec spec;
  spec.profile = request.add_entry;
  // The DN leaf identity plus any identity attributes in the entry.
  spec.identities.push_back(Identity{
      *IdentityTypeForAttr(request.dn.leaf().attr), request.dn.leaf().value});
  for (const Identity& id : IdentitiesOfRecord(request.add_entry)) {
    if (!(id == spec.identities.front())) spec.identities.push_back(id);
  }
  auto home = request.add_entry.Get("homesite");
  if (home.has_value()) {
    if (const auto* v = std::get_if<int64_t>(&*home)) {
      spec.home_site = static_cast<sim::SiteId>(*v);
    }
  }
  auto outcome = CreateSubscriber(spec, poa_site);
  if (!outcome.ok()) {
    r.code = StatusToLdapCode(outcome.status());
    r.diagnostic = outcome.status().message();
    r.latency += network_->rpc_timeout() / 100;  // Admission-failure handling.
    if (outcome.status().IsUnavailable()) r.latency = network_->rpc_timeout();
    return r;
  }
  r.latency += outcome->write.latency;
  r.code = LdapResultCode::kSuccess;
  return r;
}

StatusOr<std::vector<routing::Mutation>> UdrNf::MutationsFrom(
    const LdapRequest& request) const {
  std::vector<routing::Mutation> muts;
  muts.reserve(request.mods.size());
  for (const ldap::Modification& mod : request.mods) {
    if (IsIdentityAttr(mod.attr)) {
      return Status::FailedPrecondition(
          "identity attributes are immutable; delete and re-add");
    }
    routing::Mutation m;
    switch (mod.type) {
      case ldap::ModType::kAdd:
      case ldap::ModType::kReplace:
        m.kind = routing::Mutation::Kind::kSet;
        m.attr = mod.attr;
        m.value = mod.value;
        break;
      case ldap::ModType::kDelete:
        m.kind = routing::Mutation::Kind::kRemove;
        m.attr = mod.attr;
        break;
    }
    muts.push_back(std::move(m));
  }
  return muts;
}

// ---------------------------------------------------------------------------
// Batched data path (multi-op LDAP messages)
// ---------------------------------------------------------------------------

StatusOr<routing::Operation> UdrNf::OperationFrom(
    const LdapRequest& request) const {
  UDR_ASSIGN_OR_RETURN(Identity identity, RequestIdentity(request));
  switch (request.op) {
    case ldap::LdapOp::kSearch:
      return routing::Operation::ReadRecord(std::move(identity),
                                            ReadPrefFor(request));
    case ldap::LdapOp::kCompare:
      return routing::Operation::ReadAttribute(
          std::move(identity), request.compare_attr, ReadPrefFor(request));
    case ldap::LdapOp::kModify: {
      UDR_ASSIGN_OR_RETURN(std::vector<routing::Mutation> muts,
                           MutationsFrom(request));
      return routing::Operation::Write(std::move(identity), std::move(muts));
    }
    default:
      return Status::Unimplemented(
          std::string(ldap::LdapOpName(request.op)) +
          " does not ride the batch pipeline");
  }
}

LdapResult UdrNf::ResultFromOutcome(const LdapRequest& request,
                                    routing::OpOutcome& outcome) {
  LdapResult r;
  r.latency = outcome.latency;
  r.stale = outcome.stale;
  if (!outcome.ok()) {
    if (request.op == ldap::LdapOp::kModify) modify_failed_.Add();
    r.code = StatusToLdapCode(outcome.status);
    r.diagnostic = outcome.status.message();
    return r;
  }
  switch (request.op) {
    case ldap::LdapOp::kSearch: {
      if (!outcome.record.has_value()) {
        r.code = LdapResultCode::kNoSuchObject;
        r.diagnostic = "record missing from batch outcome";
        return r;
      }
      MicroDuration latency = r.latency;
      r = SearchResultFor(request, *std::move(outcome.record));
      r.latency = latency;
      r.stale = outcome.stale;
      if (r.ok()) search_ok_.Add();
      return r;
    }
    case ldap::LdapOp::kCompare:
      r.code = outcome.value.has_value() &&
                       storage::ValueToString(*outcome.value) ==
                           request.compare_value
                   ? LdapResultCode::kCompareTrue
                   : LdapResultCode::kCompareFalse;
      return r;
    case ldap::LdapOp::kModify:
      r.code = LdapResultCode::kSuccess;
      modify_ok_.Add();
      return r;
    default:
      r.code = LdapResultCode::kOperationsError;
      r.diagnostic = "unbatchable op in batch outcome";
      return r;
  }
}

ldap::LdapResult UdrNf::FinishBatchedDelete(const Identity& id,
                                            const routing::OpOutcome& read,
                                            const routing::OpOutcome& write) {
  LdapResult r;
  r.latency = read.latency + write.latency;
  if (!read.ok()) {
    r.code = StatusToLdapCode(read.status);
    r.diagnostic = read.status.message();
    return r;
  }
  if (!write.ok()) {
    r.code = StatusToLdapCode(write.status);
    r.diagnostic = write.status.message();
    return r;
  }
  // Same bookkeeping as DeleteSubscriber; Unbind also drops any bypass
  // exception each identity held, so delete churn cannot leak entries.
  for (const Identity& sub_id : IdentitiesOfRecord(*read.record)) {
    router_.Unbind(sub_id);
  }
  router_.Unbind(id);
  map_.AddPopulation(write.partition, -1);
  --subscriber_count_;
  metrics_.Add("udr.delete.ok");
  r.code = LdapResultCode::kSuccess;
  return r;
}

template <typename InlineExec>
UdrNf::RequestSlot UdrNf::SlotFor(const LdapRequest& request,
                                  routing::BatchRequest* batch,
                                  InlineExec&& inline_exec) {
  RequestSlot slot;
  switch (request.op) {
    case ldap::LdapOp::kSearch:
    case ldap::LdapOp::kCompare:
    case ldap::LdapOp::kModify: {
      auto op = OperationFrom(request);
      if (!op.ok()) {
        slot.inline_result.code = StatusToLdapCode(op.status());
        slot.inline_result.diagnostic = op.status().message();
        return slot;
      }
      slot.kind = RequestSlot::Kind::kPipeline;
      slot.op = batch->size();
      batch->Add(*std::move(op), SearchProjection(request));
      return slot;
    }
    case ldap::LdapOp::kDelete: {
      auto identity = RequestIdentity(request);
      if (!identity.ok()) {
        slot.inline_result.code = StatusToLdapCode(identity.status());
        slot.inline_result.diagnostic = identity.status().message();
        return slot;
      }
      // A Delete rides the grouped windows as a master-only whole-record
      // read (existence check + the identity set to unbind) followed by a
      // delete-record write; per-key order makes the read observe the
      // record exactly as a solo DeleteSubscriber would.
      slot.kind = RequestSlot::Kind::kDelete;
      slot.identity = *identity;
      slot.op = batch->size();
      batch->Add(routing::Operation::ReadRecord(*identity,
                                                ReadPreference::kMasterOnly));
      slot.write_op = batch->size();
      batch->Add(routing::Operation::Write(
          *std::move(identity),
          {{routing::Mutation::Kind::kDeleteRecord, "", storage::Value{}}}));
      return slot;
    }
    default:
      // Add (and anything unknown) carries placement side effects the
      // pipeline does not model; the caller decides when it executes.
      slot.inline_result = inline_exec(request);
      return slot;
  }
}

ldap::LdapBatchResult UdrNf::ProcessBatch(
    const std::vector<LdapRequest>& requests, uint32_t poa_site) {
  LdapBatchResult out;
  ProcessRequests(requests.data(), requests.size(), poa_site, nullptr, &out);
  batch_count_.Add();
  batch_ops_.Add(static_cast<int64_t>(requests.size()));
  if (!out.ok()) metrics_.Add("udr.batch.failed_ops", out.failed_ops());
  return out;
}

void UdrNf::ProcessRequests(const LdapRequest* requests, size_t count,
                            uint32_t poa_site, int64_t* foreground_ops,
                            LdapBatchResult* result) {
  // The scratch members below assume one ProcessRequests at a time: an
  // inline Add places and binds, it never routes another request.
  assert(!processing_ && "ProcessRequests re-entered");
  processing_ = true;
  LdapBatchResult& out = *result;
  ResetKeepingCapacity(&out, &LdapBatchResult::results).resize(count);
  routing::BatchRequest& batch = batch_;
  std::vector<std::pair<size_t, RequestSlot>>& slots = slots_;
  routing::BatchResult& br = route_result_;

  // One trace per signaling event; the root "event" span covers the whole
  // modelled latency and the pipeline spans hang off it.
  const MicroTime event_start = Now();
  obs::Span event_span;
  batch.trace = obs::TraceContext();
  if (tracer_ != nullptr) {
    event_span = tracer_->StartSpan("event", tracer_->StartTrace());
    batch.trace = event_span.context();
  }
  // Pipeline requests are charged to the migration scheduler below; inline
  // ones charged themselves in ProcessInline.
  int64_t pipeline_requests = 0;
  int64_t inline_requests = 0;
  auto flush = [&]() {
    if (batch.empty()) return;
    if (parked_writes_.size() != 0) CloseWindowsWritingTo(batch);
    router_.RouteBatch(batch, poa_site, &br);
    out.latency += br.latency;
    out.partition_groups += br.partition_groups;
    out.bypass_hits += br.bypass_hits;
    for (auto& [idx, slot] : slots) {
      out.results[idx] =
          slot.kind == RequestSlot::Kind::kDelete
              ? FinishBatchedDelete(slot.identity, br.outcomes[slot.op],
                                    br.outcomes[slot.write_op])
              : ResultFromOutcome(requests[idx], br.outcomes[slot.op]);
    }
    // The projections' id buffers go back to the pool for the next batch.
    for (std::vector<storage::AttrId>& ids : batch.projections) {
      if (ids.capacity() != 0) spare_ids_.push_back(std::move(ids));
    }
    batch.Clear();
    slots.clear();
  };

  for (size_t i = 0; i < count; ++i) {
    bool executed_inline = false;
    RequestSlot slot = SlotFor(requests[i], &batch,
                               [&](const LdapRequest& req) {
                                 // Flush the pending run so per-key order
                                 // holds, then execute in place.
                                 flush();
                                 executed_inline = true;
                                 return ProcessInline(req, poa_site);
                               });
    if (slot.kind == RequestSlot::Kind::kInline) {
      if (executed_inline) {
        ++inline_requests;
        out.latency += slot.inline_result.latency;
      }
      out.results[i] = std::move(slot.inline_result);
    } else {
      ++pipeline_requests;
      slots.emplace_back(i, std::move(slot));
    }
  }
  flush();
  event_span.EndAt(event_start + out.latency);

  // Priority coupling: foreground ops displace migration budget from the
  // scheduler's pacing window (no-op unless the knob is configured).
  migration_->OnForegroundOps(pipeline_requests);
  if (foreground_ops != nullptr) {
    *foreground_ops = pipeline_requests + inline_requests;
  }
  processing_ = false;
}

// ---------------------------------------------------------------------------
// Cross-event coalescing (PoA dispatch window)
// ---------------------------------------------------------------------------

uint64_t UdrNf::EnqueueBatch(std::vector<LdapRequest> requests,
                             uint32_t poa_site) {
  const uint64_t handle = NextEnqueueHandle();
  BladeCluster* cluster = ClusterAtSite(poa_site);
  if (config_.coalesce_window_us <= 0 || cluster == nullptr) {
    // Coalescing off: the enqueue path degenerates to the inline pipeline,
    // byte-identical to ProcessBatch (the PR 2 behavior).
    CompleteEvent(handle, ProcessBatch(requests, poa_site));
    return handle;
  }

  routing::Coalescer& window = *coalescers_[cluster->id()];
  for (const LdapRequest& req : requests) {
    if (req.op == ldap::LdapOp::kAdd) {
      // An Add cannot wait in the window (its placement/binding side effects
      // must not be reordered against parked ops on the same keys), and its
      // event's internal order must hold too. Close the window — everything
      // that arrived earlier dispatches first, preserving arrival order —
      // then run the whole event inline, exactly as serial execution would.
      window.FlushNow();
      DrainCoalescer(cluster->id());
      metrics_.Add("udr.event.inline_add");
      CompleteEvent(handle, ProcessBatch(requests, poa_site));
      return handle;
    }
  }

  PendingEvent event;
  event.requests = std::move(requests);
  routing::BatchRequest batch;
  batch.ops.reserve(event.requests.size());
  event.slots.reserve(event.requests.size());
  auto enqueue_inline = [&](const LdapRequest& r) {
    // Unreachable for Add (handled above); anything else landing here is
    // an unsupported verb whose error resolves at enqueue.
    LdapResult res = ProcessInline(r, poa_site);
    event.inline_latency += res.latency;
    return res;
  };
  // Projections ride the window (the coalescer carries them into its
  // aggregate batch), so a parked Search copies only what it asked for.
  for (const LdapRequest& req : event.requests) {
    event.slots.push_back(
        SlotFor(req, &batch, enqueue_inline));
  }

  if (batch.empty()) {
    // Every request resolved inline; the event never enters the window.
    LdapBatchResult out;
    out.results.reserve(event.slots.size());
    for (RequestSlot& slot : event.slots) {
      out.results.push_back(std::move(slot.inline_result));
    }
    out.latency = event.inline_latency;
    CompleteEvent(handle, std::move(out));
    return handle;
  }

  // A write parks behind every earlier write to its record: one parked in
  // another cluster's window dispatches now, before this one can.
  for (const routing::Operation& op : batch.ops) {
    const std::optional<storage::RecordKey> key = WriteKeyOf(op);
    if (!key.has_value()) continue;
    CloseWindowHolding(*key, cluster->id());
    if (parked_writes_.Find(*key) == FlatKeyIndex::kNone) {
      parked_writes_.Insert(*key, cluster->id());
      window_write_keys_[cluster->id()].push_back(*key);
    }
  }

  // A parked event carries its own trace into the window: the coalescer
  // records its park wait and hangs the shared flush's pipeline spans off
  // the first sampled trace of the window.
  if (tracer_ != nullptr) batch.trace = tracer_->StartTrace();
  event.event = window.Submit(std::move(batch));
  events_.Put(handle, EventEntry{std::move(event), {}, false});
  window_events_[cluster->id()].push_back(handle);
  event_enqueued_.Add();
  // Drain only when the submit itself closed the window (size cap hit) —
  // the common parked submit leaves nothing to take.
  if (!window.HasPending()) DrainCoalescer(cluster->id());
  return handle;
}

void UdrNf::CompleteEvent(uint64_t handle, ldap::LdapBatchResult result) {
  events_.Put(handle, EventEntry{PendingEvent(), std::move(result), true});
  ++event_completions_;
}

std::optional<ldap::LdapBatchResult> UdrNf::TakeBatchResult(uint64_t handle) {
  EventEntry* entry = events_.Find(handle);
  if (entry == nullptr || !entry->ready) return std::nullopt;
  LdapBatchResult out = std::move(entry->result);
  events_.Erase(handle);
  return out;
}

ldap::LdapBatchResult UdrNf::FinalizeEvent(PendingEvent& event,
                                           routing::EventOutcome& outcome) {
  LdapBatchResult out;
  out.results.resize(event.requests.size());
  for (size_t i = 0; i < event.slots.size(); ++i) {
    RequestSlot& slot = event.slots[i];
    switch (slot.kind) {
      case RequestSlot::Kind::kInline:
        out.results[i] = std::move(slot.inline_result);
        break;
      case RequestSlot::Kind::kPipeline:
        out.results[i] =
            ResultFromOutcome(event.requests[i], outcome.outcomes[slot.op]);
        break;
      case RequestSlot::Kind::kDelete:
        out.results[i] =
            FinishBatchedDelete(slot.identity, outcome.outcomes[slot.op],
                                outcome.outcomes[slot.write_op]);
        break;
    }
  }
  // Latency split: time parked in the window is reported apart from the
  // shared dispatch's service share (plus any enqueue-time inline work).
  out.queue_delay = outcome.queue_delay;
  out.latency = event.inline_latency + outcome.queue_delay +
                outcome.service_latency;
  out.partition_groups = outcome.partition_groups;
  out.bypass_hits = outcome.bypass_hits;
  out.coalesced_events = outcome.coalesced_events;
  batch_count_.Add();
  batch_ops_.Add(static_cast<int64_t>(event.requests.size()));
  if (!out.ok()) metrics_.Add("udr.batch.failed_ops", out.failed_ops());
  int64_t pipeline_requests = 0;  // Inline ops counted in ProcessInline.
  for (const RequestSlot& slot : event.slots) {
    if (slot.kind != RequestSlot::Kind::kInline) ++pipeline_requests;
  }
  migration_->OnForegroundOps(pipeline_requests);
  return out;
}

void UdrNf::DrainCoalescer(uint32_t cluster_id) {
  routing::Coalescer& window = *coalescers_[cluster_id];
  // Only this window's parked events, in arrival order: a flush completes
  // all of them at once.
  std::vector<uint64_t>& parked = window_events_[cluster_id];
  size_t kept = 0;
  for (uint64_t handle : parked) {
    EventEntry& entry = *events_.Find(handle);
    auto outcome = window.Take(entry.parked.event);
    if (!outcome.has_value()) {
      parked[kept++] = handle;
      continue;
    }
    entry.result = FinalizeEvent(entry.parked, *outcome);
    entry.parked = PendingEvent();
    entry.ready = true;
    ++event_completions_;
  }
  parked.resize(kept);
  // A flush takes the whole window, so its parked writes are gone too.
  if (kept == 0) {
    for (storage::RecordKey key : window_write_keys_[cluster_id]) {
      parked_writes_.Erase(key);
    }
    window_write_keys_[cluster_id].clear();
  }
}

void UdrNf::CloseWindowHolding(storage::RecordKey key, uint32_t keep) {
  const uint32_t cluster_id = parked_writes_.Find(key);
  if (cluster_id == FlatKeyIndex::kNone || cluster_id == keep) return;
  metrics_.Add("udr.event.order_close");
  coalescers_[cluster_id]->FlushNow();
  DrainCoalescer(cluster_id);
}

void UdrNf::CloseWindowsWritingTo(const routing::BatchRequest& batch) {
  for (const routing::Operation& op : batch.ops) {
    if (const auto key = WriteKeyOf(op)) CloseWindowHolding(*key, kNoCluster);
    if (parked_writes_.size() == 0) return;
  }
}

std::optional<storage::RecordKey> UdrNf::WriteKeyOf(
    const routing::Operation& op) const {
  if (op.kind != routing::Operation::Kind::kWrite) return std::nullopt;
  std::optional<location::LocationEntry> at =
      router_.bindings().Find(op.identity);
  if (!at.has_value()) return std::nullopt;
  return at->key;
}

StatusOr<uint64_t> UdrNf::SubmitEvent(std::vector<LdapRequest> requests,
                                      sim::SiteId client_site) {
  auto poa = router_.FindPoaCluster(client_site);
  if (!poa.ok()) {
    metrics_.Add("udr.submit.unavailable");
    return poa.status();
  }
  BladeCluster* cluster = clusters_[*poa].get();
  auto handle =
      cluster->balancer().EnqueueBatch(std::move(requests), cluster->site());
  if (!handle.ok()) {
    metrics_.Add("udr.submit.unavailable");
    return handle.status();
  }
  event_clients_.Put(*handle, EventClient{client_site, cluster->id()});
  return *handle;
}

void UdrNf::PumpEvents() {
  for (uint32_t c = 0; c < coalescers_.size(); ++c) {
    if (coalescers_[c]->FlushIfDue()) DrainCoalescer(c);
  }
  // One sim loop drives all the background primitives: the PoA dispatch
  // windows, the migration scheduler, the heat-tier control loop, and the
  // time-series sampler's tick.
  PumpMigration();
  PumpHeat();
  if (sampler_ != nullptr) sampler_->MaybeSample();
}

void UdrNf::FlushEvents() {
  for (uint32_t c = 0; c < coalescers_.size(); ++c) {
    coalescers_[c]->FlushNow();
    DrainCoalescer(c);
  }
}

MicroTime UdrNf::NextEventDeadline() const {
  MicroTime next = kTimeInfinity;
  for (const auto& window : coalescers_) {
    next = std::min(next, window->deadline());
  }
  return next;
}

std::optional<ldap::LdapBatchResult> UdrNf::TakeEvent(uint64_t handle) {
  const EventClient* client = event_clients_.Find(handle);
  if (client == nullptr) return std::nullopt;
  BladeCluster* cluster = clusters_[client->cluster].get();
  auto result = cluster->balancer().TakeBatch(handle);
  if (!result.has_value()) return std::nullopt;
  // One client <-> PoA round trip for the whole event, as on SubmitBatch.
  result->latency +=
      network_->topology().Rtt(client->site, cluster->site()) +
      network_->topology().HopOverhead();
  (result->ok() ? submit_ok_ : submit_failed_).Add();
  event_clients_.Erase(handle);
  return result;
}

LdapBatchResult UdrNf::SubmitBatch(const std::vector<LdapRequest>& requests,
                                   sim::SiteId client_site) {
  auto poa = router_.FindPoaCluster(client_site);
  if (!poa.ok()) {
    LdapBatchResult out;
    out.results.resize(requests.size());
    for (LdapResult& r : out.results) {
      r.code = LdapResultCode::kUnavailable;
      r.diagnostic = poa.status().message();
    }
    out.latency = network_->rpc_timeout();
    metrics_.Add("udr.submit.unavailable");
    return out;
  }
  BladeCluster* cluster = clusters_[*poa].get();
  LdapBatchResult result =
      cluster->balancer().ServeBatch(requests, cluster->site());
  // One client <-> PoA round trip for the whole multi-op message — the
  // per-request transit the batch saves over Submit-per-op.
  result.latency += network_->topology().Rtt(client_site, cluster->site()) +
                    network_->topology().HopOverhead();
  (result.ok() ? submit_ok_ : submit_failed_).Add();
  return result;
}

}  // namespace udr::udrnf
