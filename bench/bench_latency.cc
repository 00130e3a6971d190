// E2 — responsiveness ("Fast", requirement 4 + §3.3).
//
// Paper claims reproduced:
//   * index-based single-subscriber queries complete within the 10 ms
//     average target when the PoA is local;
//   * reads served by a co-located slave copy avoid the IP backbone
//     (§3.3.2 decision 2): local-read latency ≪ remote-master latency;
//   * writes always travel to the master copy: a roaming write pays the
//     backbone RTT.

#include "common/histogram.h"
#include "common/table.h"
#include "telecom/front_end.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

void PrintLatencyTables() {
  workload::TestbedOptions opts;
  opts.sites = 3;
  opts.subscribers = 300;
  opts.pin_home_sites = true;
  workload::Testbed bed(opts);
  bed.clock().Advance(Seconds(1));
  bed.udr().CatchUpAllPartitions();

  telecom::HlrFe fe_home(0, &bed.udr());
  telecom::HlrFe fe_roam(2, &bed.udr());

  Histogram h_read_local, h_read_roam, h_write_local, h_write_roam, h_sri;
  for (uint64_t i = 0; i < 300; i += 3) {  // Home site 0 subscribers.
    telecom::Subscriber s = bed.factory().Make(i);
    auto r1 = fe_home.Authenticate(s.ImsiId());
    if (r1.ok()) h_read_local.Record(r1.latency);
    auto r2 = fe_roam.Authenticate(s.ImsiId());
    if (r2.ok()) h_read_roam.Record(r2.latency);
    auto w1 = fe_home.UpdateLocation(s.ImsiId(), "vlr-h", 1);
    if (w1.ok()) h_write_local.Record(w1.latency);
    auto w2 = fe_roam.UpdateLocation(s.ImsiId(), "vlr-r", 2);
    if (w2.ok()) h_write_roam.Record(w2.latency);
    auto c = fe_home.SendRoutingInfo(s.MsisdnId());
    if (c.ok()) h_sri.Record(c.latency);
    bed.clock().Advance(Millis(50));
    bed.udr().CatchUpAllPartitions();
  }

  auto row = [](const char* name, const Histogram& h, const char* note) {
    return std::vector<std::string>{name, Table::Dur(h.P50()),
                                    Table::Dur(static_cast<int64_t>(h.Mean())),
                                    Table::Dur(h.P99()), note};
  };
  Table t("E2a: FE procedure latency (backbone one-way 15ms; target: 10ms avg "
          "for local indexed queries)",
          {"procedure", "p50", "mean", "p99", "note"});
  t.AddRow(row("authenticate @home (1 read)", h_read_local, "local PoA + SE"));
  t.AddRow(row("authenticate @roaming (1 read)", h_read_roam,
               "served by co-located slave copy"));
  t.AddRow(row("call setup SRI @home (2 reads)", h_sri, "still < 10ms"));
  t.AddRow(row("location update @home (read+write)", h_write_local,
               "master is local"));
  t.AddRow(row("location update @roaming (read+write)", h_write_roam,
               "write crosses the backbone to the master"));
  t.Print();

  // Remote reads WITHOUT slave reads: what §3.3.2 decision 2 saves.
  workload::TestbedOptions no_slave = opts;
  no_slave.udr.fe_slave_reads = false;
  workload::Testbed bed2(no_slave);
  bed2.clock().Advance(Seconds(1));
  telecom::HlrFe fe2(2, &bed2.udr());
  Histogram h_master_read;
  for (uint64_t i = 0; i < 300; i += 3) {
    auto r = fe2.Authenticate(bed2.factory().Make(i).ImsiId());
    if (r.ok()) h_master_read.Record(r.latency);
  }
  Table t2("E2b: slave reads on/off for a roaming FE (the F gain of §3.3.2)",
           {"configuration", "read p50", "read mean"});
  t2.AddRow({"slave reads allowed (paper decision)", Table::Dur(h_read_roam.P50()),
             Table::Dur(static_cast<int64_t>(h_read_roam.Mean()))});
  t2.AddRow({"master-only reads", Table::Dur(h_master_read.P50()),
             Table::Dur(static_cast<int64_t>(h_master_read.Mean()))});
  t2.Print();

  Table t3("E2c: 10ms requirement check", {"check", "result"});
  bool meets = h_read_local.Mean() < Millis(10) && h_sri.Mean() < Millis(10);
  t3.AddRow({"local indexed query mean < 10ms", meets ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintLatencyTables();
  return 0;
}
