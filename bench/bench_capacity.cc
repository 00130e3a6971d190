// E1 — §3.5 capacity figures ("Huge").
//
// Reproduces every number the paper prints:
//   * 2-blade SE holds 2e6 average-profile subscribers (200 GB RAM);
//   * 16 SE/cluster  => 32e6 subscribers per blade cluster;
//   * 256 SE/NF      => 512e6 subscribers per UDR NF;
//   * 1e6 LDAP ops/s per server; paper's per-cluster figure 36e6 and
//     per-NF figure 9,216e6; ~18 ops per subscriber per second.
//
// The host cost of the indexed single-record ops and of the LDAP path behind
// these figures is measured by udrbench (storage.find_ns, storage.apply_ns,
// udr.process_ns_per_op; see bench/udrbench/README.md), not here.

#include "common/table.h"
#include "telecom/subscriber.h"
#include "udr/capacity_model.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

void PrintCapacityTables() {
  udrnf::CapacityModel m;

  Table t1("E1a: subscriber capacity (paper §3.5 vs model arithmetic)",
           {"quantity", "paper", "model", "note"});
  t1.AddRow({"subscribers per SE", "2,000,000",
             Table::Num(m.subscribers_per_se),
             "tested figure, 2-blade SE, 200 GB RAM"});
  t1.AddRow({"RAM per subscriber", "~100 KB",
             Table::Bytes(m.BytesPerSubscriber()), "200 GB / 2e6"});
  t1.AddRow({"subscribers per cluster (16 SE)", "32,000,000",
             Table::Num(m.SubscribersPerCluster()), "16 x 2e6"});
  t1.AddRow({"subscribers per UDR NF (256 SE)", "512,000,000",
             Table::Num(m.SubscribersPerNf()),
             "more than the population of the USA"});
  t1.Print();

  Table t2("E1b: LDAP throughput (paper §3.5 vs model arithmetic)",
           {"quantity", "paper", "strict 32x1e6", "note"});
  t2.AddRow({"ops/s per LDAP server", "1,000,000",
             Table::Num(m.ldap_ops_per_server), "tested figure"});
  t2.AddRow({"ops/s per cluster", Table::Num(m.LdapOpsPerClusterPaper()),
             Table::Num(m.LdapOpsPerClusterStrict()),
             "paper prints 36e6 (1.125e6/server budget)"});
  t2.AddRow({"ops/s per UDR NF (256 clusters)",
             Table::Num(m.LdapOpsPerNfPaper()),
             Table::Num(m.LdapOpsPerNfStrict()), "paper: 9,216e6"});
  t2.AddRow({"ops per subscriber per second",
             Table::Dbl(m.OpsPerSubscriberPaper(), 0) /*=18*/,
             Table::Dbl(static_cast<double>(m.LdapOpsPerNfStrict()) /
                            static_cast<double>(m.SubscribersPerNf()),
                        1),
             "typical procedure costs 1-3 ops, IMS 5-6"});
  t2.Print();

  // A deployed mini-NF reports the same arithmetic through the real objects.
  workload::TestbedOptions opts;
  opts.sites = 3;
  opts.udr.se_per_cluster = 2;
  opts.udr.ldap_per_cluster = 2;
  workload::Testbed bed(opts);
  Table t3("E1c: deployed mini-NF aggregates (3 clusters x 2 SE x 2 LDAP)",
           {"quantity", "value"});
  t3.AddRow({"storage elements", Table::Num(bed.udr().TotalStorageElements())});
  t3.AddRow({"partitions (1 primary/SE)",
             Table::Num(static_cast<int64_t>(bed.udr().partition_count()))});
  t3.AddRow({"aggregate LDAP ops/s",
             Table::Num(bed.udr().TotalLdapOpsPerSecond())});
  t3.AddRow({"subscriber capacity @100KB/profile",
             Table::Num(bed.udr().TotalSubscriberCapacity(100 * 1000))});
  t3.Print();

  // Average profile footprint of OUR synthetic subscriber (documented in
  // DESIGN.md: the simulator profile is leaner than a production one).
  telecom::SubscriberFactory factory(42);
  int64_t bytes = 0;
  for (int i = 0; i < 100; ++i) bytes += factory.Make(i).profile.ApproxBytes();
  Table t4("E1d: synthetic profile footprint", {"quantity", "value"});
  t4.AddRow({"avg synthetic profile bytes", Table::Bytes(bytes / 100)});
  t4.AddRow({"note", "paper's 100KB average includes full IMS service data"});
  t4.Print();
}

}  // namespace

int main() {
  PrintCapacityTables();
  return 0;
}
