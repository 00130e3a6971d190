// E13 — Figures 5 and 6: the FRASH trade-off graph, quantified, and the
// paper's PACELC classification of the realized UDR NF.
//
// Figure 5 draws restriction arrows between the FRASH characteristics; this
// bench measures one concrete number for each arrow on this build. Figure 6
// places the design decisions on those arrows: FE transactions end up PA/EL,
// PS transactions PC/EC — reproduced here from live measurements.

#include "common/table.h"
#include "replication/write_builder.h"
#include "telecom/front_end.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

using namespace udr;

namespace {

/// F-R: wal-sync (full durability) vs periodic checkpoint write cost.
std::pair<MicroDuration, MicroDuration> MeasureFR() {
  sim::SimClock clock;
  storage::StorageElementConfig fast;
  storage::StorageElementConfig durable = fast;
  durable.wal_sync_commit = true;
  storage::StorageElement a(fast, &clock), b(durable, &clock);
  return {a.WriteServiceTime(), b.WriteServiceTime()};
}

/// F-A: async vs quorum commit latency over the backbone.
std::pair<MicroDuration, MicroDuration> MeasureFA() {
  MicroDuration lat[2];
  int idx = 0;
  for (auto mode : {replication::SyncMode::kAsync,
                    replication::SyncMode::kQuorum}) {
    replication::ReplicaSetConfig cfg;
    cfg.sync_mode = mode;
    workload::ReplicaRig rig(cfg);
    rig.clock().AdvanceTo(Seconds(1));
    replication::WriteBuilder wb;
    wb.Set(1, "a", int64_t{1});
    lat[idx++] = rig.set().Write(0, std::move(wb).Build()).latency;
  }
  return {lat[0], lat[1]};
}

/// R-A on partition: FE read vs PS write availability through a 1-min cut.
std::pair<double, double> MeasureRA() {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 200;
  o.pin_home_sites = true;
  workload::Testbed bed(o);
  MicroTime t0 = bed.clock().Now();
  bed.network().partitions().CutBetween({0}, {1, 2}, t0 + Minutes(1),
                                        t0 + Minutes(2));
  workload::TrafficOptions t;
  t.duration = Minutes(3);
  t.fe_rate_per_sec = 50;
  t.ps_rate_per_sec = 10;
  t.subscriber_count = 200;
  auto rep = workload::RunTraffic(bed, t);
  return {rep.fe_read.availability(), rep.ps.availability()};
}

/// H-F: provisioned map lookup cost at 10^4 vs 10^6 subscribers.
std::pair<MicroDuration, MicroDuration> MeasureHF() {
  location::LocationCostModel model;
  location::BindingSet small_set, large_set;
  location::ProvisionedLocationStage small(&small_set, model),
      large(&large_set, model);
  for (int i = 0; i < 10000; ++i) {
    small_set.Put({location::IdentityType::kImsi, "s" + std::to_string(i)},
                  {1, 0});
  }
  for (int i = 0; i < 1000000; ++i) {
    large_set.Put({location::IdentityType::kImsi, "l" + std::to_string(i)},
                  {1, 0});
  }
  return {small.Resolve({location::IdentityType::kImsi, "s1"}, 0).cost,
          large.Resolve({location::IdentityType::kImsi, "l1"}, 0).cost};
}

/// S-R: scale-out sync window at 1k vs 10k subscribers.
std::pair<MicroDuration, MicroDuration> MeasureSR() {
  MicroDuration w[2];
  int idx = 0;
  for (int64_t subs : {1000LL, 10000LL}) {
    workload::TestbedOptions o;
    o.sites = 4;
    workload::Testbed bed(o);
    bed.ProvisionDirect(0, subs);
    (void)bed.udr().AddCluster(3);
    w[idx++] = static_cast<MicroDuration>(
        bed.udr().metrics().HistOrEmpty("scaleout.sync_window_us").max());
  }
  return {w[0], w[1]};
}

/// H-R: backbone crossing fraction, pinned vs unpinned placement (roam 5%).
std::pair<double, double> MeasureHR() {
  double fractions[2];
  int idx = 0;
  for (bool pinned : {true, false}) {
    workload::TestbedOptions o;
    o.sites = 3;
    o.subscribers = 150;
    o.pin_home_sites = pinned;
    workload::Testbed bed(o);
    int64_t crossings = 0, total = 0;
    for (uint64_t i = 0; i < 150; ++i) {
      auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(i).ImsiId());
      if (!loc.ok()) continue;
      ++total;
      if (bed.udr().partition(loc->partition)->master_site() !=
          bed.HomeSiteOf(i)) {
        ++crossings;
      }
    }
    fractions[idx++] =
        total > 0 ? static_cast<double>(crossings) / total : 0.0;
  }
  return {fractions[0], fractions[1]};
}

void PrintSummary() {
  auto [fr_fast, fr_durable] = MeasureFR();
  auto [fa_async, fa_quorum] = MeasureFA();
  auto [ra_fe, ra_ps] = MeasureRA();
  auto [hf_small, hf_large] = MeasureHF();
  auto [sr_small, sr_large] = MeasureSR();
  auto [hr_pinned, hr_unpinned] = MeasureHR();

  Table t("E13a: Figure 5 — FRASH restriction arrows, quantified on this build",
          {"link", "moving toward", "costs", "measured"});
  t.AddRow({"F-R", "R (full durability: wal-sync commit)",
            "write service time",
            Table::Dur(fr_fast) + " -> " + Table::Dur(fr_durable)});
  t.AddRow({"F-A", "A (quorum instead of async replication)",
            "commit latency",
            Table::Dur(fa_async) + " -> " + Table::Dur(fa_quorum)});
  t.AddRow({"R-A", "C on partition (paper default)",
            "PS availability during a 1-min cut",
            Table::Pct(ra_fe, 1) + " (FE reads) vs " + Table::Pct(ra_ps, 1) +
                " (PS writes)"});
  t.AddRow({"H-F (dotted: weak)", "H (10^4 -> 10^6 subscribers)",
            "location lookup cost",
            Table::Dur(hf_small) + " -> " + Table::Dur(hf_large)});
  t.AddRow({"S-R", "S (scale-out, 1k -> 10k provisioned)",
            "new-PoA sync window",
            Table::Dur(sr_small) + " -> " + Table::Dur(sr_large)});
  t.AddRow({"H-R", "R via selective placement (5% roaming)",
            "backbone crossings",
            Table::Pct(hr_pinned, 1) + " pinned vs " +
                Table::Pct(hr_unpinned, 1) + " unpinned"});
  t.Print();

  // Figure 6 / §3.6: PACELC classification from live behaviour.
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 200;
  o.pin_home_sites = true;
  workload::Testbed bed(o);
  MicroTime t0 = bed.clock().Now();
  bed.network().partitions().CutBetween({0}, {1, 2}, t0 + Minutes(1),
                                        t0 + Minutes(2));
  workload::TrafficOptions opt;
  opt.duration = Minutes(3);
  opt.fe_rate_per_sec = 50;
  opt.ps_rate_per_sec = 10;
  opt.roaming_fraction = 0.3;
  opt.subscriber_count = 200;
  auto rep = workload::RunTraffic(bed, opt);

  Table t2("E13b: Figure 6 / §3.6 — PACELC classification of the UDR NF",
           {"traffic class", "on Partition", "Else (no partition)",
            "classification", "evidence"});
  bool fe_available = rep.fe_read.availability() > 0.99;
  bool fe_stale = rep.FeAll().stale_procedures > 0;
  bool ps_consistent = rep.ps.stale_procedures == 0;
  bool ps_unavailable = rep.ps.availability() < rep.fe_read.availability();
  t2.AddRow({"application FE (reads on slaves)",
             fe_available ? "Available (local slave copies)" : "?",
             fe_stale ? "Latency favored (stale reads accepted)" : "?",
             "PA/EL",
             Table::Pct(rep.fe_read.availability(), 1) + " avail, " +
                 Table::Num(rep.FeAll().stale_procedures) + " stale procs"});
  t2.AddRow({"Provisioning System (master-only)",
             ps_unavailable ? "Consistent (writes fail on far side)" : "?",
             ps_consistent ? "Consistency favored (0 stale)" : "?",
             "PC/EC",
             Table::Pct(rep.ps.availability(), 1) + " avail, 0 stale"});
  t2.Print();

  Table t3("E13c: expected shape", {"check", "result"});
  t3.AddRow({"every arrow has the paper's direction",
             fr_durable > fr_fast && fa_quorum > fa_async &&
                     ra_ps < ra_fe && hf_large >= hf_small &&
                     sr_large > sr_small && hr_pinned < hr_unpinned
                 ? "PASS"
                 : "FAIL"});
  t3.AddRow({"FE classifies PA/EL", fe_available && fe_stale ? "PASS" : "FAIL"});
  t3.AddRow({"PS classifies PC/EC",
             ps_consistent && ps_unavailable ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintSummary();
  return 0;
}
