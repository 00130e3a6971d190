#include "scenario/verifier.h"

#include <cstdio>
#include <variant>

#include "storage/attr_pool.h"
#include "storage/commit_log.h"
#include "telecom/subscriber.h"

namespace udr::scenario {

namespace {

/// Per-key running stamp maximum for one channel's order scan.
using StampMap = std::unordered_map<storage::RecordKey, int64_t>;

/// Interned ids of the two stamped channels' attributes, resolved once per
/// audit. LookupAttr does not intern: a name no op carries reads
/// kInvalidAttrId, which matches no op.
struct ChannelIds {
  storage::AttrId location;
  storage::AttrId cfu;
};

void ScanOp(const storage::WriteOp& op, const ChannelIds& ids, StampMap* loc,
            StampMap* cfu, int64_t* violations) {
  if (op.kind != storage::WriteKind::kUpsertAttr) return;
  int64_t stamp = 0;
  StampMap* map = nullptr;
  if (op.attr_id == ids.location) {
    if (!std::holds_alternative<int64_t>(op.attribute.value)) return;
    stamp = std::get<int64_t>(op.attribute.value);
    map = loc;
  } else if (op.attr_id == ids.cfu) {
    const auto* cfu_number =
        std::get_if<storage::CompactString>(&op.attribute.value);
    if (cfu_number == nullptr) return;
    stamp = CfuStampOf(*cfu_number);
    map = cfu;
  }
  if (map == nullptr || stamp == 0) return;
  int64_t& seen = (*map)[op.key];
  if (stamp < seen) {
    ++*violations;
  } else {
    seen = stamp;
  }
}

}  // namespace

int64_t CfuStampOf(std::string_view number) {
  // Scenario stamps travel as "+00<digits>"; provisioning seeds and real
  // numbers use other prefixes and parse to 0 (not a stamp).
  if (number.size() < 4 || number.compare(0, 3, "+00") != 0) return 0;
  int64_t stamp = 0;
  for (size_t i = 3; i < number.size(); ++i) {
    char c = number[i];
    if (c < '0' || c > '9') return 0;
    stamp = stamp * 10 + (c - '0');
  }
  return stamp;
}

std::string CfuNumberOf(int64_t stamp) {
  return "+00" + std::to_string(stamp);
}

void Verifier::FoldFe(const telecom::ProcedureResult& r, bool is_write,
                      bool storm) {
  (is_write ? stats_.fe_write : stats_.fe_read).Fold(r);
  if (storm) stats_.fe_storm.Fold(r);
}

void Verifier::FoldPs(const telecom::ProcedureResult& r) {
  stats_.ps.Fold(r);
}

void Verifier::RecordAck(uint64_t subscriber, Channel channel, int64_t stamp) {
  Ledger& l = ledger_[subscriber];
  int64_t& slot = channel == Channel::kLocationArea ? l.location : l.cfu;
  if (stamp > slot) slot = stamp;
  ++audit_.acked_writes;
}

int64_t Verifier::MasterStamp(uint64_t subscriber, Channel channel) {
  location::Identity id{location::IdentityType::kImsi,
                        bed_->factory().ImsiOf(subscriber)};
  auto entry = bed_->udr().AuthoritativeLookup(id);
  if (!entry.ok()) return -1;
  replication::ReplicaSet* rs =
      bed_->udr().partition_map().partition(entry->partition);
  const char* attr = channel == Channel::kLocationArea
                         ? telecom::attr::kLocationArea
                         : telecom::attr::kCallForwardingUncond;
  replication::ReadResult read = rs->ReadAttribute(
      rs->master_site(), entry->key, attr,
      replication::ReadPreference::kMasterOnly);
  if (!read.status.ok() || !read.value.has_value()) return -1;
  if (channel == Channel::kLocationArea) {
    return std::holds_alternative<int64_t>(*read.value)
               ? std::get<int64_t>(*read.value)
               : -1;
  }
  const auto* cfu_number = std::get_if<storage::CompactString>(&*read.value);
  return cfu_number != nullptr ? CfuStampOf(*cfu_number) : -1;
}

AuditReport Verifier::Audit() {
  if (audited_) return audit_;
  audited_ = true;

  for (const auto& [subscriber, ledger] : ledger_) {
    ++audit_.subscribers_audited;
    const struct {
      Channel channel;
      int64_t acked;
    } channels[] = {{Channel::kLocationArea, ledger.location},
                    {Channel::kCallForwarding, ledger.cfu}};
    for (const auto& [channel, acked] : channels) {
      if (acked == 0) continue;  // Channel never acknowledged a stamp.
      int64_t durable = MasterStamp(subscriber, channel);
      if (durable < 0) {
        ++audit_.unreadable;
      } else if (durable < acked) {
        ++audit_.lost_writes;
      }
    }
  }

  // Per-key order: stamps for one channel must never regress along the
  // authoritative serialization order of the owning partition's log.
  const ChannelIds ids{
      storage::LookupAttr(telecom::attr::kLocationArea),
      storage::LookupAttr(telecom::attr::kCallForwardingUncond)};
  routing::PartitionMap& map = bed_->udr().partition_map();
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    StampMap loc, cfu;
    for (const storage::LogEntry& entry : map.partition(p)->log().entries()) {
      for (const storage::WriteOp& op : entry.ops) {
        ScanOp(op, ids, &loc, &cfu, &audit_.order_violations);
      }
    }
  }
  if (audit_.lost_writes > 0 || audit_.unreadable > 0 ||
      audit_.order_violations > 0) {
    // A hard-invariant breach is exactly what the flight recorder exists
    // for: dump the control-plane events that preceded it.
    std::fprintf(stderr,
                 "[audit] invariant breach (lost=%lld unreadable=%lld "
                 "order=%lld); flight recorder:\n%s",
                 static_cast<long long>(audit_.lost_writes),
                 static_cast<long long>(audit_.unreadable),
                 static_cast<long long>(audit_.order_violations),
                 bed_->udr().flight_recorder().Dump().c_str());
  }
  return audit_;
}

SloResult Verifier::Evaluate(const SloCheck& check) {
  SloResult row;
  row.check = check;
  routing::PartitionMap& map = bed_->udr().partition_map();
  switch (check.kind) {
    case SloKind::kZeroAckedWriteLoss: {
      const AuditReport& audit = Audit();
      row.actual = static_cast<double>(audit.lost_writes + audit.unreadable);
      row.pass = row.actual == 0;
      break;
    }
    case SloKind::kPerKeyOrder: {
      row.actual = static_cast<double>(Audit().order_violations);
      row.pass = row.actual == 0;
      break;
    }
    case SloKind::kPsStaleZero:
      row.actual = static_cast<double>(stats_.ps.stale_procedures);
      row.pass = row.actual == 0;
      break;
    case SloKind::kFeStaleFractionMax: {
      workload::ClassStats fe = stats_.FeAll();
      row.actual = fe.attempted == 0 ? 0.0
                                     : static_cast<double>(fe.stale_procedures) /
                                           static_cast<double>(fe.attempted);
      row.pass = row.actual <= check.bound;
      break;
    }
    case SloKind::kFeAvailabilityMin:
      row.actual = stats_.FeAll().availability();
      row.pass = row.actual >= check.bound;
      break;
    case SloKind::kPsAvailabilityMin:
      row.actual = stats_.ps.availability();
      row.pass = row.actual >= check.bound;
      break;
    case SloKind::kFeP99Max:
      row.actual = static_cast<double>(stats_.FeAll().latency.P99());
      row.pass = row.actual <= check.bound;
      break;
    case SloKind::kStormP99Max:
      row.actual = static_cast<double>(stats_.fe_storm.latency.P99());
      row.pass = row.actual <= check.bound;
      break;
    case SloKind::kFailoversMin: {
      // The master slot starts as replica 0 everywhere; a moved slot in a
      // migration-free scenario means a failover promoted a secondary.
      int64_t moved = 0;
      for (uint32_t p = 0; p < map.partition_count(); ++p) {
        if (!map.partition_retired(p) && map.partition(p)->master_id() != 0) {
          ++moved;
        }
      }
      row.actual = static_cast<double>(moved);
      row.pass = row.actual >= check.bound;
      break;
    }
    case SloKind::kDivergenceObserved: {
      int64_t diverged = 0;
      for (uint32_t p = 0; p < map.partition_count(); ++p) {
        diverged += map.partition(p)->diverged_writes();
      }
      row.actual = static_cast<double>(diverged);
      row.pass = row.actual >= check.bound;
      break;
    }
    case SloKind::kConverged: {
      int64_t divergent = 0;
      for (uint32_t p = 0; p < map.partition_count(); ++p) {
        if (map.partition(p)->HasDivergence()) ++divergent;
      }
      row.actual = static_cast<double>(divergent);
      row.pass = row.actual == 0;
      break;
    }
    case SloKind::kMigrationComplete:
      row.actual = bed_->udr().MigrationActive() ? 1.0 : 0.0;
      row.pass = row.actual == 0;
      break;
    case SloKind::kPopulationSpreadMax:
      row.actual = static_cast<double>(map.PopulationSpread());
      row.pass = row.actual <= check.bound;
      break;
    case SloKind::kSeDrained: {
      std::vector<int> primaries = map.PrimariesPerSe();
      row.actual = check.arg >= 0 &&
                           check.arg < static_cast<int64_t>(primaries.size())
                       ? static_cast<double>(primaries[check.arg])
                       : -1.0;
      row.pass = row.actual == 0;
      break;
    }
  }
  results_.push_back(row);
  return row;
}

}  // namespace udr::scenario
