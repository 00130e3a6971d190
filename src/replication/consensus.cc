#include "replication/consensus.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace udr::replication {

using storage::CommitSeq;
using storage::WriteKind;
using storage::WriteOp;

ConsensusReplicaSet::ConsensusReplicaSet(
    ConsensusConfig config, std::vector<storage::StorageElement*> elements,
    sim::Network* network)
    : config_(std::move(config)), network_(network) {
  assert(elements.size() >= 3 && "consensus needs at least 3 replicas");
  replicas_.reserve(elements.size());
  for (auto* se : elements) {
    Replica r;
    r.se = se;
    replicas_.push_back(r);
  }
}

std::vector<uint32_t> ConsensusReplicaSet::ReachableFrom(uint32_t id) const {
  std::vector<uint32_t> out;
  if (!replicas_[id].up) return out;
  sim::SiteId from = replicas_[id].se->site();
  for (uint32_t other = 0; other < replicas_.size(); ++other) {
    if (!replicas_[other].up) continue;
    if (other == id ||
        network_->Reachable(from, replicas_[other].se->site())) {
      out.push_back(other);
    }
  }
  return out;
}

void ConsensusReplicaSet::ApplyUpTo(Replica* r, CommitSeq seq) {
  while (r->applied < seq) {
    CommitSeq next = r->applied + 1;
    storage::ApplyWriteOps(&r->se->store(), log_.At(next).ops);
    r->applied = next;
  }
}

StatusOr<uint32_t> ConsensusReplicaSet::ElectFrom(uint32_t seed) {
  std::vector<uint32_t> component = ReachableFrom(seed);
  if (component.size() < Majority()) {
    return Status::Unavailable("no majority reachable for election");
  }
  // Vote for the most up-to-date member (highest applied, lowest id ties).
  uint32_t best = component.front();
  for (uint32_t id : component) {
    if (replicas_[id].applied > replicas_[best].applied ||
        (replicas_[id].applied == replicas_[best].applied && id < best)) {
      best = id;
    }
  }
  leader_ = best;
  ++term_;
  ++elections_;
  return best;
}

ConsensusWriteResult ConsensusReplicaSet::Write(sim::SiteId client_site,
                                                std::vector<WriteOp> ops) {
  ConsensusWriteResult out;
  out.term = term_;
  const MicroTime now = Now();

  // Is the current leader alive, reachable from the client, and able to
  // assemble a majority?
  bool leader_serves = replicas_[leader_].up &&
                       network_->Reachable(client_site, leader_site()) &&
                       HasMajority(leader_);
  if (!leader_serves) {
    // The client turns to its nearest reachable replica; if that replica's
    // component holds a majority, it elects a leader and serves.
    int seed = -1;
    MicroDuration best_rtt = 0;
    for (uint32_t id = 0; id < replicas_.size(); ++id) {
      if (!replicas_[id].up) continue;
      if (!network_->Reachable(client_site, replicas_[id].se->site())) continue;
      MicroDuration rtt =
          network_->topology().Rtt(client_site, replicas_[id].se->site());
      if (seed < 0 || rtt < best_rtt) {
        seed = static_cast<int>(id);
        best_rtt = rtt;
      }
    }
    if (seed < 0) {
      ++writes_rejected_;
      out.status = Status::Unavailable("no replica reachable");
      out.latency = network_->rpc_timeout();
      return out;
    }
    auto elected = ElectFrom(static_cast<uint32_t>(seed));
    if (!elected.ok()) {
      ++writes_rejected_;
      out.status = elected.status();
      out.latency = network_->rpc_timeout();
      return out;
    }
    out.triggered_election = true;
    out.latency += config_.election_timeout + config_.election_cost;
    out.term = term_;
  }

  Replica& leader = replicas_[leader_];

  // Stamp and append; replicate to the fastest majority synchronously.
  for (WriteOp& op : ops) {
    if (op.kind == WriteKind::kUpsertAttr) {
      op.attribute.modified_at = now;
      op.attribute.writer = leader_;
    }
  }
  int op_count = static_cast<int>(ops.size());
  CommitSeq seq = log_.Append(now, leader_, std::move(ops));

  std::vector<std::pair<MicroDuration, uint32_t>> followers;
  for (uint32_t id = 0; id < replicas_.size(); ++id) {
    if (id == leader_) continue;
    if (!replicas_[id].up) continue;
    if (!network_->Reachable(leader_site(), replicas_[id].se->site())) continue;
    followers.emplace_back(
        network_->topology().Rtt(leader_site(), replicas_[id].se->site()), id);
  }
  std::sort(followers.begin(), followers.end());
  size_t needed = Majority() - 1;
  if (followers.size() < needed) {
    // Majority evaporated mid-write (election raced a partition change):
    // roll the entry back and reject.
    log_.TruncateAfter(seq - 1);
    ++writes_rejected_;
    out.status = Status::Unavailable("majority lost during commit");
    out.latency += network_->rpc_timeout();
    return out;
  }
  ApplyUpTo(&leader, seq);
  MicroDuration ack_rtt = 0;
  for (size_t i = 0; i < needed; ++i) {
    Replica& f = replicas_[followers[i].second];
    ApplyUpTo(&f, seq);
    ack_rtt = std::max(ack_rtt, followers[i].first);
  }

  out.latency += network_->topology().Rtt(client_site, leader_site()) +
                 network_->topology().HopOverhead() + ack_rtt +
                 leader.se->WriteServiceTime(std::max(op_count, 1));
  out.status = Status::Ok();
  out.seq = seq;
  out.leader = leader_;
  ++writes_accepted_;
  return out;
}

ReadResult ConsensusReplicaSet::ReadAttribute(sim::SiteId client_site,
                                              storage::RecordKey key,
                                              const std::string& attr) {
  ReadResult out;
  if (!replicas_[leader_].up || !HasMajority(leader_)) {
    StatusOr<uint32_t> elected =
        Status::Unavailable("no majority component anywhere");
    for (uint32_t id = 0; id < replicas_.size(); ++id) {
      if (replicas_[id].up && HasMajority(id)) {
        elected = ElectFrom(id);
        break;
      }
    }
    if (!elected.ok()) {
      out.status = elected.status();
      out.latency = network_->rpc_timeout();
      return out;
    }
    out.latency += config_.election_timeout + config_.election_cost;
  }
  if (!network_->Reachable(client_site, leader_site())) {
    out.status = Status::Unavailable("client partitioned from leader");
    out.latency = network_->rpc_timeout();
    return out;
  }
  Replica& leader = replicas_[leader_];
  ApplyUpTo(&leader, log_.LastSeq());
  out.latency += network_->topology().Rtt(client_site, leader_site()) +
                 network_->topology().HopOverhead() +
                 leader.se->ReadServiceTime();
  const storage::Record* rec = leader.se->store().Find(key);
  const storage::Attribute* a = rec ? rec->Find(attr) : nullptr;
  if (a == nullptr) {
    out.status = Status::NotFound("attribute " + attr);
    return out;
  }
  out.status = Status::Ok();
  out.value = a->value;
  out.served_by = leader_;
  return out;
}

void ConsensusReplicaSet::CrashReplica(uint32_t id) {
  replicas_[id].up = false;
  // Committed state lives on a majority; nothing else to do. The log keeps
  // only majority-acknowledged entries, so no truncation ever happens.
}

void ConsensusReplicaSet::RecoverReplica(uint32_t id) {
  Replica& r = replicas_[id];
  r.up = true;
  // Re-fetch the committed log from the leader (its own RAM is gone).
  std::unordered_set<storage::RecordKey> keys;
  for (const auto& entry : log_.entries()) {
    for (const auto& op : entry.ops) keys.insert(op.key);
  }
  for (auto key : keys) r.se->store().DeleteRecord(key);
  r.applied = 0;
  ApplyUpTo(&r, log_.LastSeq());
}

void ConsensusReplicaSet::CatchUpAll() {
  for (auto& r : replicas_) {
    if (r.up) ApplyUpTo(&r, log_.LastSeq());
  }
}

}  // namespace udr::replication
