#include "routing/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/scratch.h"
#include "replication/write_builder.h"

namespace udr::routing {

using location::Identity;
using location::LocationEntry;
using location::ResolveResult;

Router::Router(PartitionMap* map, sim::Network* network, Metrics* metrics,
               obs::FlightRecorder* flight)
    : map_(map),
      network_(network),
      metrics_(metrics),
      flight_(flight),
      routed_(metrics->RegisterCounter("router.routed")),
      bypass_hits_(metrics->RegisterCounter("router.bypass.hits")),
      cache_hits_(metrics->RegisterCounter("router.cache.hits")),
      cache_misses_(metrics->RegisterCounter("router.cache.misses")),
      cache_insertions_(metrics->RegisterCounter("router.cache.insertions")),
      cache_invalidations_(
          metrics->RegisterCounter("router.cache.invalidations")),
      batch_count_(metrics->RegisterCounter("router.batch.count")),
      batch_ops_(metrics->RegisterCounter("router.batch.ops")),
      batch_size_(metrics->RegisterHist("router.batch.size")),
      batch_groups_(metrics->RegisterHist("router.batch.groups")) {}

void Router::RegisterPoa(uint32_t cluster_id, sim::SiteId site,
                         location::LocationStage* stage) {
  // Both deployed stage kinds read bindings_: a provisioned stage's §3.4.2
  // copy is a modelled window only, and a cache-on-miss stage was built
  // with every existing binding marked unseen. Either way the router only
  // notifies it of bindings made from now on.
  Poa poa;
  poa.cluster_id = cluster_id;
  poa.site = site;
  poa.stage = stage;
  if (heat_.poa_cache_bytes > 0) {
    poa.cache = std::make_unique<PoaCache>(
        PoaCacheConfig{heat_.poa_cache_bytes, heat_.cache_hit_cost});
  }
  poas_.push_back(std::move(poa));
}

void Router::ConfigureHeat(const HeatConfig& config) {
  heat_ = config;
  // A cache without the sketch has no admission signal; the tracker is the
  // prerequisite tier, so a cache budget implies tracking.
  if (heat_.poa_cache_bytes > 0) heat_.track = true;
  heat_tracker_ =
      heat_.track ? std::make_unique<HeatTracker>(heat_.tracker) : nullptr;
  for (Poa& poa : poas_) {
    poa.cache = heat_.poa_cache_bytes > 0
                    ? std::make_unique<PoaCache>(PoaCacheConfig{
                          heat_.poa_cache_bytes, heat_.cache_hit_cost})
                    : nullptr;
  }
}

PoaCache* Router::poa_cache_at(sim::SiteId site) {
  for (Poa& poa : poas_) {
    if (poa.site == site) return poa.cache.get();
  }
  return nullptr;
}

void Router::RebindToThisThread() {
  if (heat_tracker_ != nullptr) heat_tracker_->RebindToThisThread();
  for (Poa& poa : poas_) {
    if (poa.cache != nullptr) poa.cache->RebindToThisThread();
  }
}

void Router::InvalidateCached(storage::RecordKey key) {
  for (Poa& poa : poas_) {
    if (poa.cache != nullptr && poa.cache->Invalidate(key)) {
      cache_invalidations_.Add();
    }
  }
}

void Router::BumpPartitionEpoch(uint32_t partition) {
  if (partition_epochs_.size() <= partition) {
    partition_epochs_.resize(partition + 1, 0);
  }
  ++partition_epochs_[partition];
  flight_->Record(network_->Now(), "router", "epoch.bump",
                  "partition=" + std::to_string(partition) + " epoch=" +
                      std::to_string(partition_epochs_[partition]));
}

bool Router::WouldAdmit(storage::RecordKey key) const {
  return heat_tracker_ == nullptr ||
         heat_tracker_->KeyCount(key) >= heat_.cache_admit_min_count;
}

void Router::CachePopulate(storage::RecordKey key, uint32_t partition,
                           sim::SiteId poa_site, const storage::Record& record,
                           bool stale) {
  // Policy: only non-stale reads may seed the cache — an entry must equal
  // the newest committed master state, or a hit would widen the staleness
  // window beyond what the replica set itself serves.
  if (stale) return;
  PoaCache* cache = poa_cache_at(poa_site);
  if (cache == nullptr || !WouldAdmit(key)) return;
  cache->Insert(key, partition, partition_epoch(partition), record.Share());
  cache_insertions_.Add();
}

StatusOr<uint32_t> Router::FindPoaCluster(sim::SiteId client_site) const {
  int best = -1;
  MicroDuration best_rtt = 0;
  for (size_t i = 0; i < poas_.size(); ++i) {
    if (!poas_[i].serving) continue;
    sim::SiteId s = poas_[i].site;
    if (!network_->Reachable(client_site, s)) continue;
    MicroDuration rtt = network_->topology().Rtt(client_site, s);
    if (best < 0 || rtt < best_rtt) {
      best = static_cast<int>(i);
      best_rtt = rtt;
    }
  }
  if (best < 0) {
    return Status::Unavailable("no reachable Point of Access from site " +
                               std::to_string(client_site));
  }
  return poas_[best].cluster_id;
}

void Router::SetPoaServing(uint32_t cluster_id, bool serving) {
  for (Poa& poa : poas_) {
    if (poa.cluster_id == cluster_id) poa.serving = serving;
  }
}

location::LocationStage* Router::StageAtSite(sim::SiteId site) const {
  for (const Poa& poa : poas_) {
    if (poa.site == site) return poa.stage;
  }
  return nullptr;
}

StatusOr<LocationEntry> Router::AuthoritativeLookup(const Identity& id) const {
  std::optional<LocationEntry> found = bindings_.Find(id);
  if (!found) {
    return Status::NotFound("identity " + id.ToString() + " not provisioned");
  }
  return *found;
}

void Router::Bind(const Identity& id, const LocationEntry& entry) {
  bindings_.Put(id, entry);
  for (const Poa& poa : poas_) {
    if (poa.stage != nullptr) (void)poa.stage->Bind(id, entry);
  }
}

void Router::Unbind(const Identity& id) {
  bindings_.Erase(id);
  // An unbound identity must not pin a bypass exception: the exception list
  // exists to protect live bindings the hash would misroute, and a leaked
  // entry would linger forever (and silently disable the fast path if the
  // identity is ever provisioned again).
  bypass_exceptions_.erase(id);
  for (const Poa& poa : poas_) {
    if (poa.stage != nullptr) (void)poa.stage->Unbind(id);
  }
}

ResolveResult Router::ResolveAt(const Identity& id, sim::SiteId poa_site) {
  location::LocationStage* stage = StageAtSite(poa_site);
  if (stage == nullptr) {
    ResolveResult out;
    out.status = Status::Unavailable("no location stage at site " +
                                     std::to_string(poa_site));
    return out;
  }
  return stage->Resolve(id, network_->Now());
}

RouteResult Router::ResolveOne(const Identity& id, sim::SiteId poa_site,
                               bool read_intent) {
  RouteResult out;
  // Hash fast path: under hash placement the owning partition and the record
  // key are pure functions of the identity, so an eligible read never needs
  // the location stage (no lookup state, no scale-out sync window).
  if (bypass_.enabled && read_intent && id.type == bypass_.identity_type &&
      map_->partition_count() > 0 && bypass_exceptions_.count(id) == 0) {
    out.status = Status::Ok();
    out.resolve_cost = bypass_.lookup_cost;
    out.key = location::HashIdentity(id);
    out.partition = map_->PartitionOfIdentity(id);
    out.rs = map_->partition(out.partition);
    out.bypassed_location = true;
    if (heat_tracker_ != nullptr) {
      heat_tracker_->RecordAccess(out.partition, out.key, network_->Now());
    }
    bypass_hits_.Add();
    routed_.Add();
    return out;
  }
  ResolveResult loc = ResolveAt(id, poa_site);
  out.resolve_cost = loc.cost;
  if (!loc.status.ok()) {
    out.status = loc.status;
    // lint:allow(hot-metric-literal): failure path only, never per routed op.
    metrics_->Add("router.resolve.failed");
    flight_->Record(network_->Now(), "router", "resolve.fail",
                    id.ToString() + " " + loc.status.ToString());
    return out;
  }
  if (loc.entry.partition >= map_->partition_count()) {
    out.status = Status::Internal("location entry names unknown partition " +
                                  std::to_string(loc.entry.partition));
    return out;
  }
  out.status = Status::Ok();
  out.key = loc.entry.key;
  out.partition = loc.entry.partition;
  out.rs = map_->partition(loc.entry.partition);
  if (heat_tracker_ != nullptr) {
    heat_tracker_->RecordAccess(out.partition, out.key, network_->Now());
  }
  routed_.Add();
  return out;
}

RouteResult Router::Route(const Identity& id, sim::SiteId poa_site,
                          RouteIntent intent) {
  return ResolveOne(id, poa_site, intent == RouteIntent::kRead);
}

void Router::ResolveStage(const BatchRequest& batch, sim::SiteId poa_site,
                          BatchResult* result,
                          std::vector<RouteResult>* routes) {
  routes->clear();
  for (const Operation& op : batch.ops) {
    routes->push_back(ResolveOne(op.identity, poa_site, op.IsRead()));
    result->resolve_cost += routes->back().resolve_cost;
    if (routes->back().bypassed_location) ++result->bypass_hits;
  }
}

MicroDuration Router::DispatchGroup(const BatchRequest& batch,
                                    const std::vector<RouteResult>& routes,
                                    uint32_t partition,
                                    sim::SiteId poa_site, BatchResult* result,
                                    const obs::TraceContext& span_parent,
                                    MicroTime dispatch_start) {
  replication::ReplicaSet* rs = map_->partition(partition);
  PoaCache* cache = poa_cache_at(poa_site);
  // The whole group ships to its replica set as one message: runs within it
  // execute in order, but their transits overlap in a single round-trip
  // window, so the group pays max(run transit) + the serialized service time.
  // Cache hits never enter the window at all — they cost PoA-local time.
  MicroDuration service_total = 0;
  MicroDuration window_transit = 0;
  MicroDuration cache_cost = 0;
  // Span attribution cursor in modelled time: each flushed run occupies
  // [cursor, cursor + run latency] and advances the cursor by its serialized
  // service share (the overlapping transits stay inside the run span).
  MicroTime span_cursor = dispatch_start;

  // Pending run of consecutive same-kind ops (one grouped dispatch each).
  // Only one kind is ever pending, so `run` holds the batch op index of each
  // entry of whichever run that is.
  std::vector<std::vector<storage::WriteOp>>& write_txns = write_txns_;
  std::vector<replication::BatchReadOp>& read_ops = read_ops_;
  std::vector<size_t>& run = run_;

  auto flush_writes = [&]() {
    if (write_txns.empty()) return;
    replication::GroupWriteResult& gw = write_result_;
    rs->WriteBatch(poa_site, &write_txns, &gw);
    service_total += gw.latency - gw.transit;
    window_transit = std::max(window_transit, gw.transit);
    if (tracer_ != nullptr) {
      tracer_->RecordSpan("replica.write", span_parent, span_cursor,
                          span_cursor + gw.latency);
    }
    span_cursor += gw.latency - gw.transit;
    for (size_t j = 0; j < gw.per_op.size(); ++j) {
      OpOutcome& o = result->outcomes[run[j]];
      o.status = std::move(gw.per_op[j].status);
      o.latency = gw.per_op[j].latency;
      o.seq = gw.per_op[j].seq;
      o.served_by = gw.per_op[j].served_by;
      if (!o.status.ok()) ++result->failed_ops;
      // Synchronous invalidation: a committed write must never leave a
      // cached copy behind, at this PoA or any other.
      if (o.status.ok()) InvalidateCached(routes[run[j]].key);
    }
    write_txns.clear();
    run.clear();
  };
  auto flush_reads = [&]() {
    if (read_ops.empty()) return;
    replication::GroupReadResult& gr = read_result_;
    rs->ReadBatch(poa_site, read_ops, &gr);
    service_total += gr.latency - gr.transit;
    window_transit = std::max(window_transit, gr.transit);
    if (tracer_ != nullptr) {
      tracer_->RecordSpan("replica.read", span_parent, span_cursor,
                          span_cursor + gr.latency);
    }
    span_cursor += gr.latency - gr.transit;
    for (size_t j = 0; j < gr.per_op.size(); ++j) {
      const size_t idx = run[j];
      replication::ReadResult& read = gr.per_op[j];
      OpOutcome& o = result->outcomes[idx];
      o.status = std::move(read.status);
      o.latency = read.latency;
      o.stale = read.stale;
      o.served_by = read.served_by;
      o.value = std::move(read.value);
      o.record = std::move(read.record);
      if (!o.status.ok()) ++result->failed_ops;
      // Read-through population: a fresh whole-record read of a hot key
      // seeds this PoA's cache (admission filtered by the heat sketch). A
      // projected read never does: the dispatch below kept the projection
      // only where the sketch would not admit the key.
      const std::vector<storage::AttrId>* projection = batch.ProjectionOf(idx);
      if (cache != nullptr && o.ok() && !o.stale && o.record.has_value() &&
          read_ops[j].projection == nullptr &&
          batch.ops[idx].kind == Operation::Kind::kReadRecord &&
          batch.ops[idx].read_pref == replication::ReadPreference::kNearest) {
        CachePopulate(routes[idx].key, routes[idx].partition, poa_site,
                      *o.record, o.stale);
      }
      // A read that fetched the whole record only to seed the cache is
      // projected for its caller now that the cache holds its share.
      if (projection != nullptr && read_ops[j].projection == nullptr &&
          o.record.has_value()) {
        o.record = o.record->Projected(*projection);
      }
    }
    read_ops.clear();
    run.clear();
  };

  // Walk the group's ops in request order; consecutive writes commit as one
  // log-append window, consecutive reads probe as one fan-out. A kind switch
  // flushes the pending run first, preserving per-key op order.
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    if (!routes[i].status.ok() || routes[i].partition != partition) continue;
    const Operation& op = batch.ops[i];
    if (op.kind == Operation::Kind::kWrite) {
      flush_reads();
      replication::WriteBuilder wb;
      wb.Reserve(op.mutations.size());
      for (const Mutation& m : op.mutations) {
        switch (m.kind) {
          case Mutation::Kind::kSet:
            wb.Set(routes[i].key, m.attr, m.value);
            break;
          case Mutation::Kind::kRemove:
            wb.Remove(routes[i].key, m.attr);
            break;
          case Mutation::Kind::kDeleteRecord:
            wb.Delete(routes[i].key);
            break;
        }
      }
      write_txns.push_back(std::move(wb).Build());
      run.push_back(i);
    } else {
      // Flushing pending writes FIRST both preserves per-key order and makes
      // the cache check below read-your-writes safe: any earlier write of
      // this batch has already committed and invalidated its key.
      flush_writes();
      const std::vector<storage::AttrId>* projection = batch.ProjectionOf(i);
      if (TryServeFromCache(op, routes[i], projection, cache,
                            &result->outcomes[i])) {
        cache_cost += cache->hit_cost();
        ++result->cache_hits;
        if (!result->outcomes[i].ok()) ++result->failed_ops;
        continue;
      }
      replication::BatchReadOp ro;
      ro.key = routes[i].key;
      if (op.kind == Operation::Kind::kReadAttribute) ro.attr = op.attr;
      ro.pref = op.read_pref;
      // A kNearest miss at a caching PoA that the sketch admits seeds the
      // cache, which needs the whole record: only its projection is
      // dropped. The resolve stage sampled every op of the batch before
      // any dispatch, so KeyCount here equals KeyCount at CachePopulate.
      const bool seeds_cache =
          projection != nullptr && cache != nullptr &&
          op.read_pref == replication::ReadPreference::kNearest &&
          WouldAdmit(routes[i].key);
      if (!seeds_cache) ro.projection = projection;
      read_ops.push_back(std::move(ro));
      run.push_back(i);
    }
  }
  flush_writes();
  flush_reads();
  return window_transit + service_total + cache_cost;
}

bool Router::TryServeFromCache(const Operation& op, const RouteResult& route,
                               const std::vector<storage::AttrId>* projection,
                               PoaCache* cache, OpOutcome* out) {
  if (cache == nullptr || op.kind == Operation::Kind::kWrite) return false;
  // Policy boundary: only kNearest reads are cache-eligible. Master-only
  // reads (provisioning, delete preconditions) always see the primary.
  if (op.read_pref != replication::ReadPreference::kNearest) return false;
  const storage::Record* rec = cache->Lookup(
      route.key, route.partition, partition_epoch(route.partition));
  if (rec == nullptr) {
    cache_misses_.Add();
    return false;
  }
  out->from_cache = true;
  out->stale = false;
  out->latency = cache->hit_cost();
  if (op.kind == Operation::Kind::kReadAttribute) {
    // Mirrors ReplicaSet::ReadAttrOn exactly: the cached record equals the
    // master copy, so attribute presence/absence answers match too.
    const storage::Attribute* a = rec->Find(op.attr);
    if (a == nullptr) {
      out->status = Status::NotFound("attribute " + op.attr);
    } else {
      out->status = Status::Ok();
      out->value = a->value;
    }
  } else {
    out->status = Status::Ok();
    out->record = projection != nullptr ? rec->Projected(*projection)
                                        : rec->Share();
  }
  cache_hits_.Add();
  return true;
}

BatchResult Router::RouteBatch(const BatchRequest& batch,
                               sim::SiteId poa_site) {
  BatchResult result;
  RouteBatch(batch, poa_site, &result);
  return result;
}

void Router::RouteBatch(const BatchRequest& batch, sim::SiteId poa_site,
                        BatchResult* out) {
  BatchResult& result = *out;
  ResetKeepingCapacity(out, &BatchResult::outcomes).resize(batch.ops.size());
  if (batch.empty()) return;

  // Pipeline root span: covers the batch's whole modelled latency. All
  // stage spans hang off it in modelled time (the clock does not advance
  // while latencies are computed, so children close via EndAt/RecordSpan
  // at start + modelled cost).
  const MicroTime t0 = network_->Now();
  obs::Span batch_span = obs::StartSpan(tracer_, "route.batch", batch.trace);
  const obs::TraceContext batch_ctx = batch_span.context();

  // Stage 1: resolve every identity at the PoA (or via the hash bypass).
  std::vector<RouteResult>& routes = routes_;
  ResolveStage(batch, poa_site, &result, &routes);
  if (tracer_ != nullptr) {
    tracer_->RecordSpan("resolve", batch_ctx, t0, t0 + result.resolve_cost);
  }

  // Stage 2: the owning partitions, in first-seen order. A batch spans a
  // handful of partitions, so a linear scan beats a map; each group keeps
  // request order inside it (stable grouping = per-key order preserved).
  std::vector<uint32_t>& groups = groups_;
  groups.clear();
  for (size_t i = 0; i < routes.size(); ++i) {
    OpOutcome& o = result.outcomes[i];
    o.bypassed_location = routes[i].bypassed_location;
    if (!routes[i].status.ok()) {
      // Per-op isolation: a failed resolution fails this op only.
      o.status = routes[i].status;
      ++result.failed_ops;
      continue;
    }
    o.partition = routes[i].partition;
    o.key = routes[i].key;
    if (std::find(groups.begin(), groups.end(), o.partition) == groups.end()) {
      groups.push_back(o.partition);
    }
  }
  result.partition_groups = static_cast<int>(groups.size());

  // Stage 3: one grouped dispatch per replica set; groups fan out
  // concurrently from the PoA, so the batch pays the slowest one.
  const MicroTime dispatch_start = t0 + result.resolve_cost;
  MicroDuration slowest_group = 0;
  for (uint32_t partition : groups) {
    obs::Span dispatch_span =
        tracer_ != nullptr
            ? tracer_->StartSpanAt("dispatch", batch_ctx, dispatch_start)
            : obs::Span();
    const MicroDuration group_latency =
        DispatchGroup(batch, routes, partition, poa_site, &result,
                      dispatch_span.context(), dispatch_start);
    dispatch_span.EndAt(dispatch_start + group_latency);
    slowest_group = std::max(slowest_group, group_latency);
  }
  result.latency = result.resolve_cost + slowest_group;
  batch_span.EndAt(t0 + result.latency);

  batch_count_.Add();
  batch_ops_.Add(static_cast<int64_t>(batch.ops.size()));
  batch_size_.Observe(static_cast<int64_t>(batch.ops.size()));
  batch_groups_.Observe(result.partition_groups);
}

}  // namespace udr::routing
