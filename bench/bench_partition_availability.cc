// E4 — C vs A&P on a network partition (Figure 6 / §3.2 / §4.1).
//
// The paper's complaint, measured: with the UDR favoring Consistency on a
// partition (master/slave, writes only at the master copy),
//   * FE traffic — mostly reads, served by co-located slave copies — keeps
//     high availability through the outage;
//   * PS traffic — almost all writes — fails whenever the master copy is on
//     the far side, so provisioning availability collapses with partition
//     duration.
// Sweep the partition duration inside a fixed observation window and print
// availability per traffic class.

#include "common/table.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

using namespace udr;

namespace {

workload::TestbedOptions BedOptions(
    replication::PartitionMode mode =
        replication::PartitionMode::kPreferConsistency) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 300;
  o.pin_home_sites = true;
  o.udr.partition_mode = mode;
  return o;
}

workload::TrafficReport RunWindow(replication::PartitionMode mode,
                                  MicroDuration partition_len) {
  workload::Testbed bed(BedOptions(mode));
  MicroTime t0 = bed.clock().Now();
  const MicroDuration window = Minutes(5);
  if (partition_len > 0) {
    MicroTime cut = t0 + (window - partition_len) / 2;
    bed.network().partitions().CutBetween({0}, {1, 2}, cut,
                                          cut + partition_len);
  }
  workload::TrafficOptions t;
  t.duration = window;
  t.fe_rate_per_sec = 60;
  t.ps_rate_per_sec = 10;
  t.subscriber_count = 300;
  t.ps_site = 0;  // PS co-located with the site-0 PoA (§3.3.3).
  return workload::RunTraffic(bed, t);
}

void PrintAvailabilityTables() {
  Table t("E4a: availability vs partition duration (site 0 cut from sites "
          "1-2; 5-min window; CP mode = paper default)",
          {"partition", "FE read avail", "FE write avail", "PS avail",
           "PS failed ops"});
  const MicroDuration durations[] = {0,          Seconds(5),  Seconds(30),
                                     Minutes(1), Minutes(2)};
  for (MicroDuration d : durations) {
    auto rep = RunWindow(replication::PartitionMode::kPreferConsistency, d);
    t.AddRow({d == 0 ? "none" : FormatDuration(d),
              Table::Pct(rep.fe_read.availability()),
              Table::Pct(rep.fe_write.availability()),
              Table::Pct(rep.ps.availability()), Table::Num(rep.ps.failed)});
  }
  t.Print();

  Table t2("E4b: same 30s glitch, CP vs AP (the §5 evolution)",
           {"mode", "FE read avail", "FE write avail", "PS avail",
            "divergent writes to merge"});
  for (auto mode : {replication::PartitionMode::kPreferConsistency,
                    replication::PartitionMode::kPreferAvailability}) {
    workload::Testbed bed(BedOptions(mode));
    MicroTime t0 = bed.clock().Now();
    bed.network().partitions().CutBetween({0}, {1, 2}, t0 + Minutes(2),
                                          t0 + Minutes(2) + Seconds(30));
    workload::TrafficOptions opt;
    opt.duration = Minutes(5);
    opt.fe_rate_per_sec = 60;
    opt.ps_rate_per_sec = 10;
    opt.subscriber_count = 300;
    auto rep = workload::RunTraffic(bed, opt);
    int64_t diverged = 0;
    for (size_t p = 0; p < bed.udr().partition_count(); ++p) {
      diverged += bed.udr().partition(static_cast<uint32_t>(p))
                      ->diverged_writes();
    }
    t2.AddRow({mode == replication::PartitionMode::kPreferConsistency
                   ? "PC (favor consistency, paper default)"
                   : "PA (multi-master on partition)",
               Table::Pct(rep.fe_read.availability()),
               Table::Pct(rep.fe_write.availability()),
               Table::Pct(rep.ps.availability()), Table::Num(diverged)});
  }
  t2.Print();

  Table t3("E4c: expected shape", {"check", "result"});
  auto none = RunWindow(replication::PartitionMode::kPreferConsistency, 0);
  auto cut = RunWindow(replication::PartitionMode::kPreferConsistency,
                       Minutes(2));
  t3.AddRow({"no partition => all classes 100%",
             none.ps.availability() >= 0.999 &&
                     none.fe_read.availability() >= 0.999
                 ? "PASS"
                 : "FAIL"});
  t3.AddRow({"FE reads ride out a 2-min partition (>99%)",
             cut.fe_read.availability() > 0.99 ? "PASS" : "FAIL"});
  t3.AddRow({"PS availability collapses below FE reads",
             cut.ps.availability() < cut.fe_read.availability() - 0.05
                 ? "PASS"
                 : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintAvailabilityTables();
  return 0;
}
