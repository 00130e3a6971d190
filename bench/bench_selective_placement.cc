// E10 — the H-R link and selective placement (§3.5).
//
// "The more subscriber data are held in the UDR the lower the availability
// of those data is" — because wider distribution means more operations must
// cross the (less reliable) IP backbone. Selective placement pins a
// subscriber's master copy to the home region, so only roamers pay the
// backbone. Sweep the roaming fraction under pinned vs unpinned placement
// and measure backbone crossings, latency and availability under a one-site
// isolation.

#include "common/rng.h"
#include "common/table.h"
#include "telecom/front_end.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

using namespace udr;

namespace {

struct PlacementTrial {
  double backbone_fraction = 0;  ///< FE writes that crossed the backbone.
  MicroDuration mean_write_latency = 0;
  double availability = 1.0;     ///< Under a one-site isolation.
};

PlacementTrial RunTrial(bool pinned, double roaming_fraction,
                        bool isolate_site) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 300;
  o.pin_home_sites = pinned;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(1));
  bed.udr().CatchUpAllPartitions();
  if (isolate_site) {
    bed.network().partitions().IsolateSite(2, 3, bed.clock().Now(),
                                           bed.clock().Now() + Hours(1));
  }

  std::vector<std::unique_ptr<telecom::HlrFe>> fes;
  for (uint32_t s = 0; s < 3; ++s) {
    fes.push_back(std::make_unique<telecom::HlrFe>(s, &bed.udr()));
  }

  Rng rng(123);
  PlacementTrial trial;
  int64_t writes = 0, backbone = 0, ok = 0, attempted = 0;
  MicroDuration total_latency = 0;
  for (int i = 0; i < 600; ++i) {
    uint64_t idx = rng.Uniform(300);
    telecom::Subscriber s = bed.factory().Make(idx);
    sim::SiteId home = bed.HomeSiteOf(idx);
    sim::SiteId serving = home;
    if (rng.Bernoulli(roaming_fraction)) {
      serving = static_cast<sim::SiteId>((home + 1 + rng.Uniform(2)) % 3);
    }
    auto loc = bed.udr().AuthoritativeLookup(s.ImsiId());
    if (!loc.ok()) continue;
    sim::SiteId master_site = bed.udr().partition(loc->partition)->master_site();
    auto w = fes[serving]->UpdateLocation(s.ImsiId(),
                                          "vlr-" + std::to_string(serving),
                                          serving);
    ++attempted;
    ++writes;
    if (master_site != serving) ++backbone;
    if (w.ok()) {
      ++ok;
      total_latency += w.latency;
    }
    bed.clock().Advance(Millis(20));
  }
  trial.backbone_fraction =
      writes > 0 ? static_cast<double>(backbone) / writes : 0;
  trial.mean_write_latency = ok > 0 ? total_latency / ok : 0;
  trial.availability =
      attempted > 0 ? static_cast<double>(ok) / attempted : 1.0;
  return trial;
}

void PrintPlacementTables() {
  Table t("E10a: selective placement vs roaming fraction (location-update "
          "writes; 3 sites)",
          {"roaming", "placement", "backbone crossings", "mean write latency"});
  for (double roam : {0.0, 0.05, 0.2, 0.5}) {
    for (bool pinned : {true, false}) {
      auto trial = RunTrial(pinned, roam, false);
      t.AddRow({Table::Pct(roam, 0),
                pinned ? "pinned to home region (§3.5)" : "round-robin",
                Table::Pct(trial.backbone_fraction, 1),
                Table::Dur(trial.mean_write_latency)});
    }
  }
  t.Print();

  Table t2("E10b: availability with site 2 isolated (H-R link: distribution "
           "costs availability; pinning recovers it for home traffic)",
           {"placement", "roaming", "write availability"});
  for (bool pinned : {true, false}) {
    for (double roam : {0.05, 0.5}) {
      auto trial = RunTrial(pinned, roam, true);
      t2.AddRow({pinned ? "pinned" : "round-robin", Table::Pct(roam, 0),
                 Table::Pct(trial.availability, 1)});
    }
  }
  t2.Print();

  Table t3("E10c: expected shape", {"check", "result"});
  auto pinned_low = RunTrial(true, 0.05, false);
  auto unpinned_low = RunTrial(false, 0.05, false);
  t3.AddRow({"pinned: backbone crossings ~= roaming fraction",
             pinned_low.backbone_fraction < 0.10 ? "PASS" : "FAIL"});
  t3.AddRow({"unpinned: most writes cross the backbone",
             unpinned_low.backbone_fraction > 0.5 ? "PASS" : "FAIL"});
  t3.AddRow({"pinned writes are faster",
             pinned_low.mean_write_latency < unpinned_low.mean_write_latency
                 ? "PASS"
                 : "FAIL"});
  auto pinned_iso = RunTrial(true, 0.05, true);
  auto unpinned_iso = RunTrial(false, 0.05, true);
  t3.AddRow({"pinning improves availability under isolation",
             pinned_iso.availability > unpinned_iso.availability ? "PASS"
                                                                 : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintPlacementTables();
  return 0;
}
