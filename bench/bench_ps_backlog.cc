// E7 — provisioning backlogs and batch fragility (§3.3, §3.3.3, §4.1).
//
// Three paper claims, measured:
//   * a provisioning back-log grows as soon as per-operation latency exceeds
//     the inter-arrival gap; if it overflows, operations drop ("fatal");
//   * "a network glitch as short as 30 seconds may cause a batch that's been
//     running for hours to fail" — under CP mode with abort-on-failure;
//   * the §5 multi-master evolution (PA mode) lets the same batch complete
//     through the glitch.

#include "common/table.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

workload::TestbedOptions BedOptions(replication::PartitionMode mode,
                                    bool slow_commits = false) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.udr.partition_mode = mode;
  if (slow_commits) {
    o.udr.se_template.wal_sync_commit = true;
    o.udr.se_template.wal_sync_penalty = Millis(50);
  }
  return o;
}

void PrintBatchTables() {
  // --- E7a: the 30-second glitch vs a long batch ---------------------------
  Table t("E7a: batch provisioning through a 30s backbone glitch "
          "(20 ops/s, abort-on-first-failure; PS at site 0)",
          {"mode", "attempted", "succeeded", "aborted", "manual interventions"});
  for (auto mode : {replication::PartitionMode::kPreferConsistency,
                    replication::PartitionMode::kPreferAvailability}) {
    workload::Testbed bed(BedOptions(mode));
    telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
    MicroTime glitch = bed.clock().Now() + Minutes(2);
    bed.network().partitions().CutBetween({0}, {1, 2}, glitch,
                                          glitch + Seconds(30));
    // 6000 ops at 20/s = a 5-minute batch (hours-long in spirit; scaled).
    auto report = ps.RunBatch(0, 6000, 20.0, /*stop_on_failure=*/true);
    t.AddRow({mode == replication::PartitionMode::kPreferConsistency
                  ? "PC (paper default)"
                  : "PA (§5 multi-master)",
              Table::Num(report.attempted), Table::Num(report.succeeded),
              report.aborted ? "YES" : "no",
              Table::Num(report.manual_interventions())});
  }
  t.Print();

  // --- E7b: retry instead of abort ----------------------------------------
  Table t2("E7b: same glitch, continue-and-retry batch policy (PC mode)",
           {"policy", "succeeded", "failed", "manual interventions"});
  {
    workload::Testbed bed(BedOptions(
        replication::PartitionMode::kPreferConsistency));
    telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
    MicroTime glitch = bed.clock().Now() + Minutes(2);
    bed.network().partitions().CutBetween({0}, {1, 2}, glitch,
                                          glitch + Seconds(30));
    auto report = ps.RunBatch(0, 6000, 20.0, /*stop_on_failure=*/false);
    t2.AddRow({"continue past failures", Table::Num(report.succeeded),
               Table::Num(report.failed),
               Table::Num(report.manual_interventions())});
  }
  t2.Print();

  // --- E7c: backlog growth --------------------------------------------------
  Table t3("E7c: provisioning backlog (queue cap 200, 60s of arrivals)",
           {"arrival rate", "service", "max depth", "dropped", "served"});
  struct Case {
    double rate;
    bool slow;
    const char* label;
  } cases[] = {
      {20, false, "fast commits (~1ms)"},
      {200, false, "fast commits (~1ms)"},
      {20, true, "wal-sync commits (~54ms)"},
      {60, true, "wal-sync commits (~54ms)"},
  };
  for (const Case& c : cases) {
    workload::Testbed bed(BedOptions(
        replication::PartitionMode::kPreferConsistency, c.slow));
    telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
    auto report = ps.RunBacklog(Seconds(60), c.rate, /*capacity=*/200);
    t3.AddRow({Table::Dbl(c.rate, 0) + "/s", c.label,
               Table::Num(report.max_depth), Table::Num(report.dropped),
               Table::Num(report.served)});
  }
  t3.Print();

  Table t4("E7d: expected shape", {"check", "result"});
  {
    workload::Testbed bed_pc(BedOptions(
        replication::PartitionMode::kPreferConsistency));
    telecom::ProvisioningSystem ps_pc({0, 0}, &bed_pc.udr(),
                                      &bed_pc.factory());
    MicroTime g1 = bed_pc.clock().Now() + Seconds(30);
    bed_pc.network().partitions().CutBetween({0}, {1, 2}, g1, g1 + Seconds(30));
    auto pc = ps_pc.RunBatch(0, 3000, 20.0, true);

    workload::Testbed bed_pa(BedOptions(
        replication::PartitionMode::kPreferAvailability));
    telecom::ProvisioningSystem ps_pa({0, 0}, &bed_pa.udr(),
                                      &bed_pa.factory());
    MicroTime g2 = bed_pa.clock().Now() + Seconds(30);
    bed_pa.network().partitions().CutBetween({0}, {1, 2}, g2, g2 + Seconds(30));
    auto pa = ps_pa.RunBatch(0, 3000, 20.0, true);

    t4.AddRow({"CP batch aborts on the glitch", pc.aborted ? "PASS" : "FAIL"});
    t4.AddRow({"AP batch completes through it",
               !pa.aborted && pa.succeeded == 3000 ? "PASS" : "FAIL"});
  }
  t4.Print();
}

}  // namespace

int main() {
  PrintBatchTables();
  return 0;
}
