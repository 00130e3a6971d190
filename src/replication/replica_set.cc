#include "replication/replica_set.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "common/scratch.h"

namespace udr::replication {

using storage::CommitSeq;
using storage::LogEntry;
using storage::Record;
using storage::RecordKey;
using storage::Value;
using storage::WriteKind;
using storage::WriteOp;

ReplicaSet::ReplicaSet(ReplicaSetConfig config,
                       std::vector<storage::StorageElement*> elements,
                       sim::Network* network)
    : config_(std::move(config)), network_(network) {
  assert(!elements.empty());
  replicas_.reserve(elements.size());
  for (auto* se : elements) {
    Replica r;
    r.se = se;
    replicas_.push_back(std::move(r));
  }
}

sim::SiteId ReplicaSet::master_site() const {
  return replicas_[master_].se->site();
}

sim::SiteId ReplicaSet::replica_site(uint32_t id) const {
  return replicas_[id].se->site();
}

CommitSeq ReplicaSet::applied_seq(uint32_t id) const {
  return replicas_[id].applied;
}

const storage::RecordStore& ReplicaSet::replica_store(uint32_t id) const {
  return replicas_[id].se->store();
}

MicroTime ReplicaSet::EntryDeliveryTime(CommitSeq seq, uint32_t id) const {
  const LogEntry& e = log_.At(seq);
  const Replica& origin = replicas_[e.origin_replica];
  sim::SiteId origin_site = origin.se->site();
  sim::SiteId target_site = replicas_[id].se->site();
  const auto& partitions = network_->partitions();

  // When does the entry actually leave the origin's RAM toward `id`? The
  // shipper batches for async_ship_delay, and a partition makes the origin
  // buffer the entry until the link heals.
  MicroTime send_at = partitions.HealTime(
      origin_site, target_site, e.commit_time + config_.async_ship_delay);
  bool origin_lost_it =
      origin.outages.OutageWithin(e.commit_time, send_at + 1) > 0 ||
      (!origin.up && origin.down_since <= send_at);
  if (!origin_lost_it) {
    return send_at + network_->topology().OneWayLatency(origin_site,
                                                        target_site);
  }
  // The origin died with the entry still buffered. If the entry survived the
  // failover truncation it lives on the current master, which re-ships it.
  if (e.origin_replica == master_) {
    return kTimeInfinity;  // No surviving copy can ship it (yet).
  }
  sim::SiteId master_s = replicas_[master_].se->site();
  MicroTime base = std::max(e.commit_time, last_failover_);
  MicroTime resend_at = partitions.HealTime(master_s, target_site, base);
  return resend_at + network_->topology().OneWayLatency(master_s, target_site);
}

void ReplicaSet::ApplyEntry(Replica* r, CommitSeq seq) {
  storage::ApplyWriteOps(&r->se->store(), log_.At(seq).ops,
                         log_.BirthTag(seq));
  r->applied = seq;
}

void ReplicaSet::ApplyThrough(uint32_t id, CommitSeq to) {
  Replica& r = replicas_[id];
  const Replica& m = replicas_[master_];
  // The master's store is an adoption source only while it and the replica
  // hold exactly the log's writes: no divergence on either side.
  const bool adopt = id != master_ && m.up && m.se != r.se &&
                     r.divergence.empty() && m.divergence.empty();
  storage::CatchUpRange(log_, r.applied, to, &r.se->store(),
                        adopt ? &m.se->store() : nullptr);
  r.applied = to;
}

void ReplicaSet::CatchUp(uint32_t id) {
  Replica& r = replicas_[id];
  if (!r.up) return;
  if (id == master_) {
    r.applied = log_.LastSeq();
    return;
  }
  CommitSeq to = r.applied;
  while (to < log_.LastSeq() && EntryDeliveryTime(to + 1, id) <= Now()) ++to;
  if (to > r.applied) ApplyThrough(id, to);
}

void ReplicaSet::CatchUpAll() {
  for (uint32_t id = 0; id < replicas_.size(); ++id) CatchUp(id);
}

WriteResult ReplicaSet::Write(sim::SiteId client_site,
                              std::vector<WriteOp> ops) {
  WriteResult out;
  Replica& master = replicas_[master_];

  // Master failure handling: fail over once the detection timeout elapses.
  if (!master.up) {
    if (Now() >= master.down_since + config_.failover_detection) {
      auto fo = FailOver();
      if (!fo.ok()) {
        ++writes_rejected_;
        out.status = fo.status();
        out.latency = network_->rpc_timeout();
        return out;
      }
    } else if (config_.partition_mode == PartitionMode::kPreferAvailability) {
      WriteDivergedNearest(client_site, std::move(ops), &out);
      return out;
    } else {
      ++writes_rejected_;
      out.status = Status::Unavailable("master copy down, failover pending");
      out.latency = network_->rpc_timeout();
      return out;
    }
  }

  // Partition between the client and the master copy.
  if (!network_->Reachable(client_site, master_site())) {
    if (config_.partition_mode == PartitionMode::kPreferAvailability) {
      WriteDivergedNearest(client_site, std::move(ops), &out);
      return out;
    }
    ++writes_rejected_;
    out.status = Status::Unavailable(
        "client partitioned from master copy (favoring Consistency)");
    out.latency = network_->rpc_timeout();
    return out;
  }

  return WriteOnMaster(client_site, std::move(ops));
}

bool ReplicaSet::WriteDivergedNearest(sim::SiteId client_site,
                                      std::vector<WriteOp> ops,
                                      WriteResult* out) {
  // Pick the nearest reachable, up replica to act as a temporary master.
  int best = -1;
  MicroDuration best_rtt = 0;
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    const Replica& r = replicas_[id];
    if (!r.up) continue;
    if (!network_->Reachable(client_site, r.se->site())) continue;
    MicroDuration rtt = network_->topology().Rtt(client_site, r.se->site());
    if (best < 0 || rtt < best_rtt) {
      best = static_cast<int>(id);
      best_rtt = rtt;
    }
  }
  if (best < 0) {
    ++writes_rejected_;
    out->status = Status::Unavailable("no replica reachable for AP write");
    out->latency = network_->rpc_timeout();
    return false;
  }
  *out = WriteDiverged(client_site, static_cast<uint32_t>(best), std::move(ops));
  return out->status.ok();
}

WriteResult ReplicaSet::WriteOnMaster(sim::SiteId client_site,
                                      std::vector<WriteOp> ops) {
  WriteResult out = CommitOnMaster(std::move(ops));
  if (out.status.ok()) {
    out.latency += network_->topology().Rtt(client_site, master_site()) +
                   network_->topology().HopOverhead();
  }
  return out;
}

WriteResult ReplicaSet::CommitOnMaster(std::vector<WriteOp> ops) {
  WriteResult out;
  Replica& master = replicas_[master_];
  const MicroTime now = Now();

  // QUORUM feasibility is checked before committing anything: a write that
  // cannot gather a majority is rejected outright (consistent behaviour).
  if (config_.sync_mode == SyncMode::kQuorum) {
    size_t majority = replicas_.size() / 2 + 1;
    size_t reachable = 1;  // The master itself.
    for (uint32_t id = 0; id < replicas_.size(); ++id) {
      if (id == master_) continue;
      if (replicas_[id].up &&
          network_->Reachable(master_site(), replicas_[id].se->site())) {
        ++reachable;
      }
    }
    if (reachable < majority) {
      ++writes_rejected_;
      out.status = Status::Unavailable("quorum not reachable");
      out.latency = network_->rpc_timeout();
      return out;
    }
  }

  // Stamp write metadata with the commit time and master replica id.
  for (WriteOp& op : ops) {
    if (op.kind == WriteKind::kUpsertAttr) {
      op.attribute.modified_at = now;
      op.attribute.writer = master_;
    }
  }
  // Append to the stream and apply atomically to the master copy.
  int op_count = static_cast<int>(ops.size());
  CommitSeq seq = log_.Append(now, master_, std::move(ops));
  storage::ApplyWriteOps(&master.se->store(), log_.At(seq).ops,
                         log_.BirthTag(seq));
  master.applied = seq;

  // A foreground commit queues behind any in-flight background streaming
  // work (migration chunks) on the master's engine.
  MicroDuration latency = master.se->BackgroundQueueDelay(now) +
                          master.se->WriteServiceTime(std::max(op_count, 1));

  MicroDuration sync_extra = 0;
  bool degraded = false;
  Status sync_status = SyncReplicate(seq, &sync_extra, &degraded);
  latency += sync_extra;
  if (degraded) {
    ++degraded_commits_;
    out.degraded = true;
  }
  (void)sync_status;  // Degradation policy: commit stands (paper §5).

  ++writes_accepted_;
  out.status = Status::Ok();
  out.latency = latency;
  out.seq = seq;
  out.served_by = master_;
  return out;
}

GroupWriteResult ReplicaSet::WriteBatch(
    sim::SiteId client_site, std::vector<std::vector<WriteOp>> txns) {
  GroupWriteResult out;
  WriteBatch(client_site, &txns, &out);
  return out;
}

void ReplicaSet::WriteBatch(sim::SiteId client_site,
                            std::vector<std::vector<WriteOp>>* txns,
                            GroupWriteResult* result) {
  ResetKeepingCapacity(result, &GroupWriteResult::per_op)
      .reserve(txns->size());
  GroupWriteResult& out = *result;
  if (txns->empty()) {
    out.status = Status::Ok();
    return;
  }

  // Group admission: the fast path needs a cleanly writable master. Anything
  // else (failover pending, client partitioned, AP divergence) falls back to
  // the per-transaction Write path, which owns those semantics.
  bool master_path = replicas_[master_].up;
  if (!replicas_[master_].up &&
      Now() >= replicas_[master_].down_since + config_.failover_detection) {
    master_path = FailOver().ok();
  }
  if (master_path && !network_->Reachable(client_site, master_site())) {
    master_path = false;
  }
  if (!master_path) {
    for (auto& ops : *txns) {
      WriteResult r = Write(client_site, std::move(ops));
      out.latency += r.latency;
      if (out.status.ok() && !r.status.ok()) out.status = r.status;
      out.per_op.push_back(std::move(r));
    }
    return;
  }

  // One log-append window: every transaction commits back-to-back on the
  // master copy; the group pays a single client<->master transit.
  out.transit = network_->topology().Rtt(client_site, master_site()) +
                network_->topology().HopOverhead();
  out.latency = out.transit;
  out.status = Status::Ok();
  for (auto& ops : *txns) {
    WriteResult r = CommitOnMaster(std::move(ops));
    out.latency += r.latency;
    if (out.status.ok() && !r.status.ok()) out.status = r.status;
    out.per_op.push_back(std::move(r));
  }
}

Status ReplicaSet::SyncReplicate(CommitSeq seq, MicroDuration* extra_latency,
                                 bool* degraded) {
  *extra_latency = 0;
  *degraded = false;
  switch (config_.sync_mode) {
    case SyncMode::kAsync:
      return Status::Ok();
    case SyncMode::kDualSequence: {
      // Apply to the first reachable slave, in sequence, before acking (§5:
      // "apply provisioning transactions in sequence to two replicas").
      for (uint32_t id = 0; id < replicas_.size(); ++id) {
        if (id == master_) continue;
        Replica& r = replicas_[id];
        if (!r.up) continue;
        if (!network_->Reachable(master_site(), r.se->site())) continue;
        // Push every entry up to seq synchronously.
        while (r.applied < seq) ApplyEntry(&r, r.applied + 1);
        *extra_latency = network_->topology().Rtt(master_site(), r.se->site()) +
                         r.se->WriteServiceTime();
        return Status::Ok();
      }
      // No slave reachable: leave one replica updated (accepted by §5).
      *degraded = true;
      return Status::Unavailable("no slave reachable for dual-sequence commit");
    }
    case SyncMode::kQuorum: {
      // Gather acks from the fastest slaves until a majority (incl. master).
      size_t majority = replicas_.size() / 2 + 1;
      std::vector<std::pair<MicroDuration, uint32_t>> candidates;
      for (uint32_t id = 0; id < replicas_.size(); ++id) {
        if (id == master_) continue;
        Replica& r = replicas_[id];
        if (!r.up) continue;
        if (!network_->Reachable(master_site(), r.se->site())) continue;
        candidates.emplace_back(
            network_->topology().Rtt(master_site(), r.se->site()), id);
      }
      std::sort(candidates.begin(), candidates.end());
      size_t needed = majority > 0 ? majority - 1 : 0;
      if (candidates.size() < needed) {
        *degraded = true;  // Feasibility was pre-checked; defensive only.
        return Status::Unavailable("quorum lost mid-commit");
      }
      for (size_t i = 0; i < needed; ++i) {
        Replica& r = replicas_[candidates[i].second];
        while (r.applied < seq) ApplyEntry(&r, r.applied + 1);
        *extra_latency = std::max(
            *extra_latency,
            candidates[i].first + r.se->WriteServiceTime());
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown sync mode");
}

WriteResult ReplicaSet::WriteDiverged(sim::SiteId client_site, uint32_t id,
                                      std::vector<WriteOp> ops) {
  WriteResult out;
  Replica& r = replicas_[id];
  const MicroTime now = Now();
  for (WriteOp& op : ops) {
    if (op.kind == WriteKind::kUpsertAttr) {
      op.attribute.modified_at = now;
      op.attribute.writer = id;
    }
  }
  int op_count = static_cast<int>(ops.size());
  storage::ApplyWriteOps(&r.se->store(), ops);
  r.divergence.Append(now, id, std::move(ops));
  ++diverged_writes_;
  ++writes_accepted_;
  out.status = Status::Ok();
  out.diverged = true;
  out.served_by = id;
  out.latency = network_->topology().Rtt(client_site, r.se->site()) +
                network_->topology().HopOverhead() +
                r.se->WriteServiceTime(std::max(op_count, 1));
  return out;
}

StatusOr<uint32_t> ReplicaSet::PickReadReplica(sim::SiteId client_site,
                                               ReadPreference pref) {
  if (pref == ReadPreference::kMasterOnly) {
    const Replica& m = replicas_[master_];
    if (!m.up) {
      if (Now() >= m.down_since + config_.failover_detection) {
        auto fo = FailOver();
        if (!fo.ok()) return fo.status();
        if (network_->Reachable(client_site, master_site())) return master_;
        return Status::Unavailable("client partitioned from new master");
      }
      return Status::Unavailable("master copy down");
    }
    if (!network_->Reachable(client_site, master_site())) {
      return Status::Unavailable("client partitioned from master copy");
    }
    return master_;
  }
  // Nearest reachable, up replica.
  int best = -1;
  MicroDuration best_rtt = 0;
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    const Replica& r = replicas_[id];
    if (!r.up) continue;
    if (!network_->Reachable(client_site, r.se->site())) continue;
    MicroDuration rtt = network_->topology().Rtt(client_site, r.se->site());
    if (best < 0 || rtt < best_rtt) {
      best = static_cast<int>(id);
      best_rtt = rtt;
    }
  }
  if (best < 0) return Status::Unavailable("no replica reachable");
  return static_cast<uint32_t>(best);
}

void ReplicaSet::ReadAttrOn(uint32_t id, RecordKey key, const std::string& attr,
                            ReadResult* out) {
  Replica& r = replicas_[id];
  out->served_by = id;
  out->latency += r.se->BackgroundQueueDelay(Now()) + r.se->ReadServiceTime();
  ++reads_served_;

  const Record* rec = r.se->store().Find(key);
  const storage::Attribute* a = rec ? rec->Find(attr) : nullptr;

  // Staleness check against the authoritative (master) copy, §3.3.2: slave
  // reads may observe values the master has already superseded.
  if (id != master_ && replicas_[master_].up) {
    const Record* mrec = replicas_[master_].se->store().Find(key);
    const storage::Attribute* ma = mrec ? mrec->Find(attr) : nullptr;
    bool differs = (a == nullptr) != (ma == nullptr) ||
                   (a != nullptr && ma != nullptr &&
                    !storage::ValueEquals(a->value, ma->value));
    if (differs) {
      out->stale = true;
      ++stale_reads_;
    }
  }

  if (a == nullptr) {
    out->status = Status::NotFound("attribute " + attr);
    return;
  }
  out->status = Status::Ok();
  out->value = a->value;
}

const Record* ReplicaSet::ReadRecordOn(uint32_t id, RecordKey key,
                                       ReadResult* meta) {
  Replica& r = replicas_[id];
  ++reads_served_;
  const Record* mine = r.se->store().Find(key);
  if (meta != nullptr) {
    meta->served_by = id;
    meta->latency += r.se->BackgroundQueueDelay(Now()) + r.se->ReadServiceTime();
    meta->status = Status::Ok();
    if (id != master_ && replicas_[master_].up) {
      // Full content comparison, not versions: a diverged slave can hold
      // other content at the master's version count.
      const Record* mrec = replicas_[master_].se->store().Find(key);
      bool differs = (mine == nullptr) != (mrec == nullptr) ||
                     (mine != nullptr && mrec != nullptr && !(*mine == *mrec));
      if (differs) {
        meta->stale = true;
        ++stale_reads_;
      }
    }
  }
  return mine;
}

ReadResult ReplicaSet::ReadAttribute(sim::SiteId client_site, RecordKey key,
                                     const std::string& attr,
                                     ReadPreference pref) {
  GroupReadResult gr = ReadBatch(client_site, {BatchReadOp{key, attr, pref}});
  ReadResult out = std::move(gr.per_op.front());
  out.latency = gr.latency;
  return out;
}

StatusOr<Record> ReplicaSet::ReadRecord(sim::SiteId client_site, RecordKey key,
                                        ReadPreference pref, ReadResult* meta) {
  GroupReadResult gr = ReadBatch(client_site, {BatchReadOp{key, "", pref}});
  ReadResult& one = gr.per_op.front();
  one.latency = gr.latency;
  if (meta != nullptr) *meta = one;
  if (!one.status.ok()) return one.status;
  return *std::move(one.record);
}

GroupReadResult ReplicaSet::ReadBatch(sim::SiteId client_site,
                                      const std::vector<BatchReadOp>& ops) {
  GroupReadResult out;
  ReadBatch(client_site, ops, &out);
  return out;
}

void ReplicaSet::ReadBatch(sim::SiteId client_site,
                           const std::vector<BatchReadOp>& ops,
                           GroupReadResult* result) {
  ResetKeepingCapacity(result, &GroupReadResult::per_op).resize(ops.size());
  GroupReadResult& out = *result;
  MicroDuration slowest_transit = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    ReadResult& meta = out.per_op[i];
    auto picked = PickReadReplica(client_site, ops[i].pref);
    if (!picked.ok()) {
      // Per-op isolation: this op fails, the group goes on. Its (timed-out)
      // probe overlaps the group fan-out.
      meta.status = picked.status();
      slowest_transit = std::max(slowest_transit, network_->rpc_timeout());
      continue;
    }
    uint32_t id = *picked;
    CatchUp(id);
    slowest_transit = std::max(
        slowest_transit,
        network_->topology().Rtt(client_site, replica_site(id)) +
            network_->topology().HopOverhead());
    if (ops[i].attr.empty()) {
      const Record* rec = ReadRecordOn(id, ops[i].key, &meta);
      if (rec == nullptr) {
        meta.status =
            Status::NotFound("record " + std::to_string(ops[i].key));
      } else if (ops[i].projection != nullptr) {
        meta.record = rec->Projected(*ops[i].projection);
      } else {
        meta.record = *rec;
      }
    } else {
      ReadAttrOn(id, ops[i].key, ops[i].attr, &meta);
    }
    out.latency += meta.latency;
  }
  out.transit = slowest_transit;
  out.latency += slowest_transit;
}

void ReplicaSet::CrashReplica(uint32_t id) {
  Replica& r = replicas_[id];
  r.up = false;
  r.down_since = Now();
}

void ReplicaSet::DropPartitionKeys(Replica* r) const {
  // One storage element hosts several partitions (primary of one, secondary
  // copies of others — Figure 2), so a resync must only touch the keys this
  // partition's log ever wrote, never the whole store.
  std::unordered_set<storage::RecordKey> keys;
  for (const LogEntry& entry : log_.entries()) {
    for (const WriteOp& op : entry.ops) keys.insert(op.key);
  }
  for (const LogEntry& entry : r->divergence.entries()) {
    for (const WriteOp& op : entry.ops) keys.insert(op.key);
  }
  for (storage::RecordKey key : keys) {
    r->se->store().DeleteRecord(key);
  }
}

void ReplicaSet::RecoverReplica(uint32_t id) {
  Replica& r = replicas_[id];
  r.up = true;
  r.outages.Add(r.down_since, Now());
  // RAM contents were lost; resync this partition's slice from the
  // replication stream (peers hold the authoritative state). Entries
  // re-deliver subject to current links.
  DropPartitionKeys(&r);
  r.applied = 0;
  r.divergence.Reset();
  CatchUp(id);
}

StatusOr<FailoverReport> ReplicaSet::FailOver() {
  // Let every surviving replica apply whatever was delivered before now.
  CatchUpAll();
  int best = -1;
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    if (id == master_) continue;
    const Replica& r = replicas_[id];
    if (!r.up) continue;
    if (best < 0 || r.applied > replicas_[best].applied) {
      best = static_cast<int>(id);
    }
  }
  if (best < 0) {
    return Status::Unavailable("no surviving replica to promote");
  }
  FailoverReport report;
  report.old_master = master_;
  report.new_master = static_cast<uint32_t>(best);
  report.acknowledged_seq = log_.LastSeq();
  report.promoted_seq = replicas_[best].applied;
  report.lost_transactions =
      static_cast<int64_t>(report.acknowledged_seq - report.promoted_seq);
  // Acknowledged-but-unreplicated suffix is gone: this is the durability gap
  // of asynchronous replication (§3.3.1 decision 2).
  log_.TruncateAfter(report.promoted_seq);
  master_ = report.new_master;
  last_failover_ = Now();
  return report;
}

namespace {

/// Approximate wire footprint of one log entry's write set (interned-id
/// framing — see storage::WriteOpWireBytes).
int64_t EntryBytes(const LogEntry& e) {
  int64_t bytes = 0;
  for (const WriteOp& op : e.ops) bytes += storage::WriteOpWireBytes(op);
  return bytes;
}

/// Approximate bytes this partition's slice (every key the log touched)
/// occupies in `store`.
int64_t SliceBytes(const storage::CommitLog& log,
                   const storage::RecordStore& store) {
  std::unordered_set<RecordKey> keys;
  for (const LogEntry& entry : log.entries()) {
    for (const WriteOp& op : entry.ops) keys.insert(op.key);
  }
  int64_t bytes = 0;
  for (RecordKey key : keys) {
    const Record* rec = store.Find(key);
    if (rec != nullptr) bytes += rec->ApproxBytes();
  }
  return bytes;
}

}  // namespace

int64_t ReplicaSet::ApproxStreamBytes(CommitSeq after) const {
  int64_t bytes = 0;
  for (CommitSeq s = after + 1; s <= log_.LastSeq(); ++s) {
    bytes += EntryBytes(log_.At(s));
  }
  return bytes;
}

Status ReplicaSet::CheckMigrationStream(const MigrationStream& stream) const {
  if (master_ != stream.expected_master) {
    return Status::FailedPrecondition(
        "primary copy moved while the migration stream was open");
  }
  const Replica& master = replicas_[master_];
  if (!master.up) {
    return Status::Unavailable("master copy crashed during migration");
  }
  if (!network_->Reachable(master.se->site(), stream.target->site())) {
    return Status::Unavailable("migration target unreachable from master copy");
  }
  if (stream.promote_existing && !replicas_[stream.target_replica].up) {
    return Status::Unavailable("migration target replica crashed");
  }
  return Status::Ok();
}

StatusOr<MigrationStream> ReplicaSet::BeginPrimaryMigration(
    storage::StorageElement* target) {
  Replica& master = replicas_[master_];
  if (!master.up) {
    return Status::FailedPrecondition(
        "master copy down; fail over before migrating the primary");
  }
  if (target == master.se) {
    return Status::InvalidArgument(
        "migration target already holds the primary copy");
  }
  if (!network_->Reachable(master_site(), target->site())) {
    return Status::Unavailable("migration target unreachable from master copy");
  }

  MigrationStream stream;
  stream.target = target;
  stream.expected_master = master_;
  stream.snapshot_seq = log_.LastSeq();

  int existing = -1;
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    if (replicas_[id].se == target) existing = static_cast<int>(id);
  }
  if (existing >= 0) {
    // The target already hosts a secondary copy: the stream ships only the
    // delta and the cutover promotes in place (the old primary SE keeps a
    // secondary copy). Admission: the delta must fit the target's RAM budget
    // — the pending entry volume for an up replica, or (for a crashed one
    // that is dropped and rebuilt) the slice growth over what it now holds.
    uint32_t t = static_cast<uint32_t>(existing);
    stream.promote_existing = true;
    stream.target_replica = t;
    int64_t delta_bytes;
    if (replicas_[t].up) {
      delta_bytes = ApproxStreamBytes(replicas_[t].applied);
    } else {
      delta_bytes = SliceBytes(log_, master.se->store()) -
                    SliceBytes(log_, target->store());
    }
    if (delta_bytes > 0) {
      UDR_RETURN_IF_ERROR(target->CheckCapacity(delta_bytes));
    }
    // Cost accounting baseline: a down replica is dropped and rebuilt from
    // scratch, so the handoff ships the whole log — including whatever
    // RecoverReplica's own catch-up replays — not just the tail left over
    // after recovery.
    if (!replicas_[t].up) {
      RecoverReplica(t);
      stream.shipped_seq = replicas_[t].applied;
      stream.entries_shipped = static_cast<int64_t>(stream.shipped_seq);
      for (CommitSeq s = 1; s <= stream.shipped_seq; ++s) {
        stream.bytes_moved += EntryBytes(log_.At(s));
      }
    } else {
      stream.shipped_seq = replicas_[t].applied;
    }
  } else {
    // Fresh target: the stream replays the whole authoritative log onto it,
    // admission-checked against the slice footprint it will end up holding.
    int64_t slice_bytes = SliceBytes(log_, master.se->store());
    UDR_RETURN_IF_ERROR(target->CheckCapacity(slice_bytes));
    stream.shipped_seq = 0;
  }
  stream.estimated_bytes =
      stream.bytes_moved + ApproxStreamBytes(stream.shipped_seq);
  return stream;
}

StatusOr<int64_t> ReplicaSet::ShipMigrationChunk(MigrationStream* stream,
                                                 int64_t max_bytes) {
  if (stream->finished) {
    return Status::FailedPrecondition("migration stream already finished");
  }
  UDR_RETURN_IF_ERROR(CheckMigrationStream(*stream));
  if (stream->promote_existing) {
    // Normal replication may have delivered entries meanwhile; they arrived
    // over the replication stream, not the migration link, so skip them.
    stream->shipped_seq =
        std::max(stream->shipped_seq, replicas_[stream->target_replica].applied);
  }
  const CommitSeq head = log_.LastSeq();
  int64_t shipped = 0;
  int64_t entries = 0;
  while (stream->shipped_seq < head) {
    if (shipped > 0 && shipped >= max_bytes) break;
    CommitSeq next = stream->shipped_seq + 1;
    const LogEntry& e = log_.At(next);
    if (stream->promote_existing) {
      ApplyEntry(&replicas_[stream->target_replica], next);
    } else {
      storage::ApplyWriteOps(&stream->target->store(), e.ops,
                             log_.BirthTag(next));
    }
    stream->shipped_seq = next;
    shipped += EntryBytes(e);
    ++entries;
  }
  stream->bytes_moved += shipped;
  stream->entries_shipped += entries;
  if (entries > 0) {
    // Engine contention: the source spends read service streaming the chunk
    // out, the target spends write service applying it. Foreground ops on
    // either SE queue behind these busy horizons — the stall the bandwidth
    // model exists to bound.
    const MicroTime now = Now();
    storage::StorageElement* source = replicas_[master_].se;
    source->AddBackgroundLoad(now, entries * source->ReadServiceTime());
    stream->target->AddBackgroundLoad(
        now, entries * stream->target->WriteServiceTime());
  }
  return shipped;
}

StatusOr<MigrationReport> ReplicaSet::CompleteMigration(
    MigrationStream* stream) {
  if (stream->finished) {
    return Status::FailedPrecondition("migration stream already finished");
  }
  // Final delta replay: anything committed since the last chunk ships now,
  // so the flip below hands over a target holding every acknowledged write.
  auto rest = ShipMigrationChunk(stream, std::numeric_limits<int64_t>::max());
  if (!rest.ok()) return rest.status();

  const sim::SiteId old_site = master_site();
  MigrationReport report;
  report.entries_replayed = stream->entries_shipped;
  report.bytes_moved = stream->bytes_moved;
  if (stream->promote_existing) {
    report.promoted_existing = true;
    master_ = stream->target_replica;
  } else {
    Replica& master = replicas_[master_];
    DropPartitionKeys(&master);
    master.se = stream->target;
    master.applied = log_.LastSeq();
    master.up = true;
    master.down_since = 0;
    master.outages = sim::IntervalSet();  // Fresh hardware, full log on board.
  }
  report.new_master = master_;
  report.duration =
      network_->topology().Rtt(old_site, stream->target->site()) +
      report.entries_replayed * stream->target->WriteServiceTime();
  stream->finished = true;
  return report;
}

void ReplicaSet::AbortMigration(MigrationStream* stream) {
  if (stream->finished) return;
  stream->finished = true;
  if (stream->promote_existing) {
    // The secondary holds entries from the authoritative log it would have
    // received anyway — valid state, just early. Nothing to undo.
    return;
  }
  // Fresh target: delete the partial slice. Every key it could hold came
  // from the shipped log prefix (keys are owned by exactly one partition,
  // so this cannot touch co-hosted partitions' records).
  std::unordered_set<RecordKey> keys;
  for (CommitSeq s = 1; s <= stream->shipped_seq; ++s) {
    for (const WriteOp& op : log_.At(s).ops) keys.insert(op.key);
  }
  for (RecordKey key : keys) {
    stream->target->store().DeleteRecord(key);
  }
}

StatusOr<MigrationReport> ReplicaSet::MigratePrimaryTo(
    storage::StorageElement* target) {
  if (!replicas_[master_].up) {
    return Status::FailedPrecondition(
        "master copy down; fail over before migrating the primary");
  }
  if (target == replicas_[master_].se) {
    MigrationReport report;
    report.new_master = master_;
    return report;  // Already there; nothing to move.
  }
  // The bulk handoff is the chunked stream with an unbounded budget: one
  // Begin, one all-at-once ship inside Complete, one flip.
  UDR_ASSIGN_OR_RETURN(MigrationStream stream, BeginPrimaryMigration(target));
  auto report = CompleteMigration(&stream);
  if (!report.ok()) AbortMigration(&stream);
  return report;
}

bool ReplicaSet::HasDivergence() const {
  for (const Replica& r : replicas_) {
    if (!r.divergence.empty()) return true;
  }
  return false;
}

RestorationReport ReplicaSet::RestoreConsistency() {
  RestorationReport report;
  storage::RecordStore& master_store = replicas_[master_].se->store();
  std::vector<WriteOp> merged;

  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    Replica& r = replicas_[id];
    if (r.divergence.empty()) continue;
    // Writes the divergent side never saw: anything the master committed
    // after this replica's last applied stream entry.
    MicroTime base_time =
        r.applied == 0 ? 0 : log_.At(r.applied).commit_time;

    for (const LogEntry& entry : r.divergence.entries()) {
      ++report.divergent_entries;
      bool record_applied_any = false;
      for (const WriteOp& op : entry.ops) {
        if (op.kind != WriteKind::kUpsertAttr) {
          // Deletes from the minority side are applied only if the master
          // did not touch the record concurrently.
          const Record* mrec = master_store.Find(op.key);
          if (mrec == nullptr || mrec->LastModified() <= base_time) {
            merged.push_back(op);
            ++report.applied_ops;
          } else {
            ++report.conflicting_ops;
            ++report.dropped_ops;
          }
          continue;
        }
        const Record* mrec = master_store.Find(op.key);
        const storage::Attribute* ma =
            mrec ? mrec->FindById(op.attr_id) : nullptr;
        bool master_wrote_concurrently =
            ma != nullptr && ma->modified_at > base_time;
        bool values_differ =
            ma == nullptr || !storage::ValueEquals(ma->value, op.attribute.value);
        if (!master_wrote_concurrently) {
          merged.push_back(op);
          ++report.applied_ops;
          record_applied_any = true;
          continue;
        }
        if (!values_differ) {
          // Both sides wrote the same value: no conflict.
          ++report.applied_ops;
          record_applied_any = true;
          continue;
        }
        ++report.conflicting_ops;
        switch (config_.merge_policy) {
          case MergePolicy::kFieldMergeLww: {
            bool divergent_wins =
                op.attribute.modified_at > ma->modified_at ||
                (op.attribute.modified_at == ma->modified_at &&
                 op.attribute.writer > ma->writer);
            if (divergent_wins) {
              merged.push_back(op);
              ++report.applied_ops;
              record_applied_any = true;
            } else {
              ++report.dropped_ops;
            }
            break;
          }
          case MergePolicy::kLastWriterWinsRecord: {
            bool divergent_wins =
                entry.commit_time > mrec->LastModified();
            if (divergent_wins) {
              merged.push_back(op);
              ++report.applied_ops;
              record_applied_any = true;
            } else {
              ++report.dropped_ops;
            }
            break;
          }
          case MergePolicy::kPreferMaster:
            ++report.dropped_ops;
            ++report.manual_ops;
            break;
        }
      }
      (void)record_applied_any;
    }
    r.divergence.Reset();
  }

  if (!merged.empty()) {
    const CommitSeq seq = log_.Append(Now(), master_, std::move(merged));
    storage::ApplyWriteOps(&master_store, log_.At(seq).ops,
                           log_.BirthTag(seq));
    replicas_[master_].applied = seq;
  }

  // Every up replica resyncs to the merged view (the paper's "consistency
  // restoration process must run across the whole UDR NF"). Only this
  // partition's keys are rebuilt: the SE store is shared with co-hosted
  // partitions.
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    if (id == master_) continue;
    Replica& r = replicas_[id];
    if (!r.up) continue;
    DropPartitionKeys(&r);
    r.applied = 0;
    ApplyThrough(id, log_.LastSeq());
  }
  return report;
}

void ReplicaSet::ForceSyncAll() {
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    Replica& r = replicas_[id];
    if (!r.up || id == master_) continue;
    ApplyThrough(id, log_.LastSeq());
  }
  replicas_[master_].applied = log_.LastSeq();
}

}  // namespace udr::replication
