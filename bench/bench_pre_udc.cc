// E12 — UDC vs pre-UDC provisioning (Figures 3 and 4, §2.4).
//
// Pre-UDC: every provisioning procedure writes the owning HLR silo plus
// every SLF instance, with no cross-node transactionality — node failures
// leave partial states that demand manual repair. UDC: one transaction
// against the UDR; it lands atomically or fails cleanly. Sweep the node
// failure probability and count writes, partial states and manual repairs.

#include <memory>

#include "common/rng.h"
#include "common/table.h"
#include "telecom/pre_udc.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

struct BaselineTrial {
  int64_t provisionings = 0;
  int64_t writes = 0;
  int64_t complete = 0;
  int64_t partial = 0;
  int64_t failed_clean = 0;
  int64_t manual_repairs = 0;
  bool consistent = true;
};

BaselineTrial RunPreUdc(double node_down_probability, uint64_t seed) {
  sim::SimClock clock;
  auto network = std::make_unique<sim::Network>(sim::Topology(3), &clock);
  telecom::PreUdcConfig cfg;
  telecom::PreUdcNetwork net(cfg, network.get());
  telecom::SubscriberFactory factory(42);
  Rng rng(seed);

  BaselineTrial trial;
  for (uint64_t i = 0; i < 300; ++i) {
    // Random node outages for the duration of this provisioning.
    for (size_t h = 0; h < net.hlr_count(); ++h) {
      net.SetHlrUp(h, !rng.Bernoulli(node_down_probability));
    }
    for (size_t s = 0; s < net.slf_count(); ++s) {
      net.SetSlfUp(s, !rng.Bernoulli(node_down_probability));
    }
    auto out = net.Provision(factory.Make(i), /*ps_site=*/0);
    ++trial.provisionings;
    trial.writes += out.writes_attempted;
    if (out.status.ok()) ++trial.complete;
    else if (out.partial) ++trial.partial;
    else ++trial.failed_clean;
    clock.Advance(Millis(100));
  }
  trial.manual_repairs = net.manual_repairs();
  trial.consistent = net.GloballyConsistent();
  return trial;
}

struct UdcTrial {
  int64_t provisionings = 0;
  int64_t writes = 0;  ///< LDAP operations issued (1 per provisioning).
  int64_t complete = 0;
  int64_t failed_clean = 0;
  int64_t partial = 0;  ///< Always 0: the transaction is atomic.
};

UdcTrial RunUdc(double se_down_probability, uint64_t seed) {
  workload::TestbedOptions o;
  o.sites = 3;
  workload::Testbed bed(o);
  telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
  Rng rng(seed);
  UdcTrial trial;
  for (uint64_t i = 0; i < 300; ++i) {
    // Random partition of some remote site for this operation, with the
    // same per-op failure probability as the baseline's nodes.
    if (rng.Bernoulli(se_down_probability)) {
      sim::SiteId victim = 1 + static_cast<sim::SiteId>(rng.Uniform(2));
      bed.network().partitions().IsolateSite(victim, 3, bed.clock().Now(),
                                             bed.clock().Now() + Millis(90));
    }
    auto r = ps.Provision(i);
    ++trial.provisionings;
    trial.writes += r.ldap_ops;
    if (r.ok()) {
      ++trial.complete;
    } else {
      ++trial.failed_clean;
      // Verify atomicity: nothing half-provisioned.
      if (bed.udr()
              .AuthoritativeLookup(bed.factory().Make(i).ImsiId())
              .ok()) {
        ++trial.partial;
      }
    }
    bed.clock().Advance(Millis(100));
  }
  return trial;
}

void PrintPreUdcTables() {
  Table t("E12a: provisioning in the pre-UDC node network (1 HLR + 3 SLF "
          "writes per subscription; 300 subscriptions)",
          {"node down prob", "writes issued", "complete", "partial",
           "manual repairs", "network consistent"});
  for (double p : {0.0, 0.01, 0.05, 0.2}) {
    auto trial = RunPreUdc(p, 31);
    t.AddRow({Table::Pct(p, 0), Table::Num(trial.writes),
              Table::Num(trial.complete), Table::Num(trial.partial),
              Table::Num(trial.manual_repairs),
              trial.consistent ? "yes" : "NO (needs repair)"});
  }
  t.Print();

  Table t2("E12b: provisioning through the UDC UDR (one LDAP Add = one "
           "ACID transaction; comparable failure injection)",
           {"failure prob", "ops issued", "complete", "failed CLEAN",
            "partial states"});
  for (double p : {0.0, 0.01, 0.05, 0.2}) {
    auto trial = RunUdc(p, 31);
    t2.AddRow({Table::Pct(p, 0), Table::Num(trial.writes),
               Table::Num(trial.complete), Table::Num(trial.failed_clean),
               Table::Num(trial.partial)});
  }
  t2.Print();

  Table t3("E12c: expected shape", {"check", "result"});
  auto pre = RunPreUdc(0.05, 77);
  auto udc = RunUdc(0.05, 77);
  t3.AddRow({"pre-UDC needs 4x the writes per provisioning",
             pre.writes == 4 * pre.provisionings ? "PASS" : "FAIL"});
  t3.AddRow({"UDC needs exactly 1 op per provisioning",
             udc.writes >= udc.provisionings ? "PASS" : "FAIL"});
  t3.AddRow({"pre-UDC leaves partial states under failures",
             pre.partial > 0 ? "PASS" : "FAIL"});
  t3.AddRow({"UDC never leaves a partial state",
             udc.partial == 0 ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintPreUdcTables();
  return 0;
}
