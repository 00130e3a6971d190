// E9 — scale-out and the S-R link (§3.4.2), plus live rebalancing.
//
// Deploying an additional blade cluster auto-creates a data location stage
// instance that must copy all provisioned identity-location maps from a
// peer; during that sync window the new PoA cannot serve (availability
// hit). The window grows linearly with the provisioned subscriber base. The
// cached-map alternative (§3.5) has no window but pays the E8 broadcast
// cost per miss — the F-R-S triangle the paper calls "likely to change".
//
// E9d measures the routing layer's Rebalance(): primary-copy spread across
// storage elements before/after a scale-out migration, and the migration
// cost (entries replayed, bytes moved, modelled bulk-resync time).

#include <algorithm>

#include "common/table.h"
#include "workload/testbed.h"

using namespace udr;
using location::IdentityType;

namespace {

void PrintScaleoutTables() {
  Table t("E9a: scale-out identity-map sync window vs provisioned base "
          "(provisioned location stage; ~5 identities per subscriber)",
          {"subscribers", "map entries", "sync window",
           "new-PoA ops lost @1000 ops/s"});
  for (int64_t subs : {1'000LL, 5'000LL, 20'000LL}) {
    workload::TestbedOptions o;
    o.sites = 4;
    o.subscribers = 0;
    workload::Testbed bed(o);
    // Deploy 3 clusters' worth of population, then scale out to site 3.
    bed.ProvisionDirect(0, subs);
    int64_t entries =
        bed.udr().cluster(0)->location_stage()->EntryCount();
    auto cluster = bed.udr().AddCluster(3);
    if (!cluster.ok()) continue;
    MicroDuration window = static_cast<MicroDuration>(
        bed.udr().metrics().HistOrEmpty("scaleout.sync_window_us").max());
    int64_t lost_ops = window * 1000 / Seconds(1);
    t.AddRow({Table::Num(subs), Table::Num(entries), Table::Dur(window),
              Table::Num(lost_ops)});
  }
  t.Print();

  Table t2("E9b: provisioned vs cached stage at scale-out (5,000 subscribers)",
           {"stage kind", "sync window", "first lookup at new PoA",
            "lookup cost"});
  for (auto kind : {udrnf::LocationKind::kProvisioned,
                    udrnf::LocationKind::kCached}) {
    workload::TestbedOptions o;
    o.sites = 4;
    o.udr.location_kind = kind;
    workload::Testbed bed(o);
    bed.ProvisionDirect(0, 5000);
    auto cluster = bed.udr().AddCluster(3);
    if (!cluster.ok()) continue;
    auto r = (*cluster)->location_stage()->Resolve(
        {IdentityType::kImsi, bed.factory().ImsiOf(42)}, bed.clock().Now());
    MicroDuration window = static_cast<MicroDuration>(
        bed.udr().metrics().HistOrEmpty("scaleout.sync_window_us").max());
    t2.AddRow({kind == udrnf::LocationKind::kProvisioned ? "provisioned maps"
                                                         : "cached maps",
               kind == udrnf::LocationKind::kProvisioned ? Table::Dur(window)
                                                         : "none",
               r.status.ok() ? "serves immediately"
                             : "unavailable (syncing)",
               r.status.ok() ? Table::Dur(r.cost) : "-"});
  }
  t2.Print();

  Table t3("E9c: expected shape", {"check", "result"});
  {
    workload::TestbedOptions o;
    o.sites = 4;
    workload::Testbed bed(o);
    bed.ProvisionDirect(0, 1000);
    bed.udr().AddCluster(3).ok();
    MicroDuration w1 = static_cast<MicroDuration>(
        bed.udr().metrics().HistOrEmpty("scaleout.sync_window_us").max());

    workload::TestbedOptions o2 = o;
    workload::Testbed bed2(o2);
    bed2.ProvisionDirect(0, 10000);
    (void)bed2.udr().AddCluster(3);
    MicroDuration w2 = static_cast<MicroDuration>(
        bed2.udr().metrics().HistOrEmpty("scaleout.sync_window_us").max());
    t3.AddRow({"window scales ~10x for 10x subscribers",
               w2 > 8 * w1 && w2 < 12 * w1 ? "PASS" : "FAIL"});
  }
  t3.Print();

  Table t4("E9d: live rebalancing on scale-out (4 clusters -> 5, "
           "2 partitions per SE)",
           {"subscribers", "spread before", "spread after", "moves",
            "entries replayed", "bytes moved", "migration time"});
  for (int64_t subs : {1'000LL, 5'000LL, 20'000LL}) {
    workload::TestbedOptions o;
    o.sites = 4;
    o.udr.partitions_per_se = 2;
    workload::Testbed bed(o);
    bed.ProvisionDirect(0, subs);
    auto report = bed.ScaleOut(0);  // Fifth cluster; fresh SEs, 0 primaries.
    if (!report.ok()) continue;
    t4.AddRow({Table::Num(subs), Table::Num(report->spread_before),
               Table::Num(report->spread_after),
               Table::Num(static_cast<int64_t>(report->moves.size())),
               Table::Num(report->entries_replayed),
               Table::Num(report->bytes_moved), Table::Dur(report->duration)});
  }
  t4.Print();

  Table t5("E9e: post-rebalance primary-copy distribution sanity",
           {"check", "result"});
  {
    workload::TestbedOptions o;
    o.sites = 4;
    o.udr.partitions_per_se = 2;
    o.subscribers = 2'000;
    workload::Testbed bed(o);
    auto report = bed.ScaleOut(1);
    bool balanced = report.ok() &&
                    bed.udr().partition_map().PrimarySpread() <= 1;
    std::vector<int> primaries = bed.udr().partition_map().PrimariesPerSe();
    int on_new = 0;
    for (size_t i = primaries.size() - 2; i < primaries.size(); ++i) {
      on_new += primaries[i];
    }
    t5.AddRow({"per-SE primary spread <= 1 after Rebalance()",
               balanced ? "PASS" : "FAIL"});
    t5.AddRow({"new SEs received primary copies",
               on_new >= 2 ? "PASS" : "FAIL"});
    t5.AddRow({"no subscriber lost",
               bed.udr().SubscriberCount() == 2'000 ? "PASS" : "FAIL"});
  }
  t5.Print();

  Table t6("E9f: population-weighted rebalancing (all subscribers pinned to "
           "site 0; primary counts start balanced, population does not)",
           {"weight mode", "pop spread before", "pop spread after", "moves",
            "bytes moved", "migration time"});
  for (auto weight : {routing::RebalanceWeight::kPrimaryCount,
                      routing::RebalanceWeight::kPopulation}) {
    workload::TestbedOptions o;
    o.sites = 3;
    o.udr.partitions_per_se = 2;
    o.udr.rebalance_weight = weight;
    workload::Testbed bed(o);
    for (uint64_t i = 0; i < 3'000; ++i) {
      auto spec = bed.factory().MakeSpec(i, sim::SiteId{0});
      (void)bed.udr().CreateSubscriber(spec, 0);
    }
    auto report = bed.udr().Rebalance();
    if (!report.ok()) continue;
    t6.AddRow({weight == routing::RebalanceWeight::kPopulation
                   ? "population"
                   : "primary count",
               Table::Num(report->population_spread_before),
               Table::Num(report->population_spread_after),
               Table::Num(static_cast<int64_t>(report->moves.size())),
               Table::Bytes(report->bytes_moved),
               Table::Dur(report->duration)});
  }
  t6.Print();
}

}  // namespace

int main() {
  PrintScaleoutTables();
  return 0;
}
