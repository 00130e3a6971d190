// E11 — the §5 evolution: multi-master writes on a partition plus the
// consistency-restoration process that must run once the partition heals.
//
// Measures, for a partition of growing length with provisioning writes
// arriving on both sides:
//   * write availability in PC vs PA mode (PA keeps ~100%);
//   * how much divergence accumulates (entries to merge);
//   * restoration outcome per merge policy: auto-merged, LWW-dropped, and
//     conflicts left for manual resolution;
//   * the convergence guarantee: all replicas identical after restoration.

#include "common/rng.h"
#include "common/table.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

using namespace udr;
using replication::MergePolicy;
using replication::PartitionMode;
using replication::ReplicaSetConfig;
using replication::RestorationReport;
using replication::WriteBuilder;

namespace {

struct PartitionEpisode {
  int64_t attempted = 0;
  int64_t accepted = 0;
  int64_t diverged = 0;
  RestorationReport restoration;
  bool converged = true;

  double availability() const {
    return attempted == 0
               ? 1.0
               : static_cast<double>(accepted) / static_cast<double>(attempted);
  }
};

PartitionEpisode RunEpisode(PartitionMode mode, MergePolicy policy,
                            MicroDuration partition_len, uint64_t seed) {
  ReplicaSetConfig cfg;
  cfg.partition_mode = mode;
  cfg.merge_policy = policy;
  workload::ReplicaRig rig(cfg);
  Rng rng(seed);
  const int kKeys = 50;

  rig.clock().AdvanceTo(Seconds(1));
  for (int k = 0; k < kKeys; ++k) {
    WriteBuilder wb;
    wb.Set(static_cast<storage::RecordKey>(k), "cfu", std::string("+0"));
    rig.set().Write(0, std::move(wb).Build());
  }
  rig.clock().Advance(Seconds(1));
  rig.set().CatchUpAll();

  // Partition site 2 away; clients on both sides write for the duration.
  MicroTime cut = rig.clock().Now();
  rig.network().partitions().IsolateSite(2, 3, cut, cut + partition_len);
  PartitionEpisode ep;
  MicroDuration gap = Millis(100);
  while (rig.clock().Now() < cut + partition_len) {
    rig.clock().Advance(gap);
    sim::SiteId side = rng.Bernoulli(0.5) ? 0 : 2;  // Both sides write.
    WriteBuilder wb;
    wb.Set(static_cast<storage::RecordKey>(rng.Uniform(kKeys)), "cfu",
           std::string("+") + std::to_string(rng.Uniform(1000000)));
    auto w = rig.set().Write(side, std::move(wb).Build());
    ++ep.attempted;
    if (w.status.ok()) ++ep.accepted;
    if (w.diverged) ++ep.diverged;
  }
  // Heal + restore.
  rig.clock().AdvanceTo(cut + partition_len + Seconds(1));
  ep.restoration = rig.set().RestoreConsistency();
  rig.set().ForceSyncAll();
  // Convergence check.
  for (int k = 0; k < kKeys; ++k) {
    const storage::Record* r0 = rig.set().replica_store(0).Find(k);
    for (uint32_t rep = 1; rep < 3; ++rep) {
      const storage::Record* rr = rig.set().replica_store(rep).Find(k);
      if ((r0 == nullptr) != (rr == nullptr) ||
          (r0 != nullptr && !(*r0 == *rr))) {
        ep.converged = false;
      }
    }
  }
  return ep;
}

void PrintMultiMasterTables() {
  Table t("E11a: write availability during a partition, PC vs PA "
          "(writes from both sides, site 2 isolated)",
          {"partition", "PC availability", "PA availability",
           "PA divergent writes"});
  for (MicroDuration len : {Seconds(10), Seconds(30), Minutes(2)}) {
    auto pc = RunEpisode(PartitionMode::kPreferConsistency,
                         MergePolicy::kFieldMergeLww, len, 5);
    auto pa = RunEpisode(PartitionMode::kPreferAvailability,
                         MergePolicy::kFieldMergeLww, len, 5);
    t.AddRow({FormatDuration(len), Table::Pct(pc.availability(), 1),
              Table::Pct(pa.availability(), 1), Table::Num(pa.diverged)});
  }
  t.Print();

  Table t2("E11b: consistency restoration after a 2-min split, by merge "
           "policy (50 hot records, writes on both sides)",
           {"policy", "divergent entries", "auto-applied", "conflicts",
            "dropped (LWW loser)", "manual", "converged"});
  for (auto policy : {MergePolicy::kFieldMergeLww,
                      MergePolicy::kLastWriterWinsRecord,
                      MergePolicy::kPreferMaster}) {
    auto ep = RunEpisode(PartitionMode::kPreferAvailability, policy,
                         Minutes(2), 7);
    const char* name =
        policy == MergePolicy::kFieldMergeLww
            ? "field-level LWW"
            : (policy == MergePolicy::kLastWriterWinsRecord
                   ? "record-level LWW"
                   : "prefer master (manual queue)");
    t2.AddRow({name, Table::Num(ep.restoration.divergent_entries),
               Table::Num(ep.restoration.applied_ops),
               Table::Num(ep.restoration.conflicting_ops),
               Table::Num(ep.restoration.dropped_ops),
               Table::Num(ep.restoration.manual_ops),
               ep.converged ? "YES" : "NO"});
  }
  t2.Print();

  Table t3("E11c: expected shape", {"check", "result"});
  auto pc = RunEpisode(PartitionMode::kPreferConsistency,
                       MergePolicy::kFieldMergeLww, Minutes(2), 9);
  auto pa = RunEpisode(PartitionMode::kPreferAvailability,
                       MergePolicy::kFieldMergeLww, Minutes(2), 9);
  t3.AddRow({"PA keeps write availability ~100% during the split",
             pa.availability() > 0.99 ? "PASS" : "FAIL"});
  t3.AddRow({"PC loses roughly the minority side's writes",
             pc.availability() < 0.75 ? "PASS" : "FAIL"});
  t3.AddRow({"PA pays with divergence to merge",
             pa.restoration.divergent_entries > 0 ? "PASS" : "FAIL"});
  t3.AddRow({"restoration converges all replicas",
             pa.converged ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintMultiMasterTables();
  return 0;
}
