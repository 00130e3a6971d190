// E6 — stale slave reads (§3.3.2 decision 2: the EL price of PA/EL).
//
// Asynchronous replication means a slave copy lags the master by roughly
// one backbone one-way latency. A read served by a co-located slave within
// that window after a write observes the old value. Sweep the write rate
// and the replication distance: stale-read probability grows with
// write_rate x lag, and is exactly zero for master-only (PS-style) reads.

#include "common/rng.h"
#include "common/table.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

struct StaleTrial {
  int64_t reads = 0;
  int64_t stale = 0;
  double StaleFraction() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(stale) / static_cast<double>(reads);
  }
};

StaleTrial RunTrial(double writes_per_sec, MicroDuration backbone_one_way,
                    replication::ReadPreference pref, uint64_t seed) {
  sim::LatencyConfig lc;
  lc.backbone_one_way = backbone_one_way;
  workload::ReplicaRig rig(replication::ReplicaSetConfig(), 3, lc);
  sim::SimClock& clock = rig.clock();
  replication::ReplicaSet& rs = rig.set();
  Rng rng(seed);
  const int kKeys = 20;

  clock.AdvanceTo(Seconds(1));
  // Seed all keys.
  for (int k = 0; k < kKeys; ++k) {
    replication::WriteBuilder wb;
    wb.Set(static_cast<storage::RecordKey>(k), "v", int64_t{0});
    rs.Write(0, std::move(wb).Build());
  }
  clock.Advance(Seconds(1));
  rs.CatchUpAll();

  // Interleave writes (at the master site) and reads (from site 2, served by
  // its local slave copy under kNearest).
  StaleTrial trial;
  const double reads_per_sec = 500.0;
  MicroDuration read_gap = static_cast<MicroDuration>(1e6 / reads_per_sec);
  MicroDuration write_gap =
      writes_per_sec > 0 ? static_cast<MicroDuration>(1e6 / writes_per_sec)
                         : kTimeInfinity;
  MicroTime next_write = clock.Now() + write_gap;
  MicroTime horizon = clock.Now() + Seconds(30);
  int64_t version = 1;
  while (clock.Now() < horizon) {
    clock.Advance(read_gap);
    while (next_write <= clock.Now()) {
      replication::WriteBuilder wb;
      wb.Set(static_cast<storage::RecordKey>(rng.Uniform(kKeys)), "v",
             version++);
      rs.Write(0, std::move(wb).Build());
      next_write += write_gap;
    }
    auto r = rs.ReadAttribute(/*client_site=*/2,
                              static_cast<storage::RecordKey>(rng.Uniform(kKeys)),
                              "v", pref);
    if (r.status.ok()) {
      ++trial.reads;
      if (r.stale) ++trial.stale;
    }
  }
  return trial;
}

void PrintStaleTables() {
  Table t("E6a: stale-read probability at a slave copy vs write rate "
          "(20 hot records, 500 reads/s from the remote site, 30s)",
          {"writes/s", "lag 5ms", "lag 15ms", "lag 50ms"});
  for (double wps : {1.0, 10.0, 50.0, 200.0}) {
    std::vector<std::string> row = {Table::Dbl(wps, 0)};
    for (MicroDuration ow : {Millis(5), Millis(15), Millis(50)}) {
      row.push_back(Table::Pct(
          RunTrial(wps, ow, replication::ReadPreference::kNearest, 11)
              .StaleFraction(),
          2));
    }
    t.AddRow(row);
  }
  t.Print();

  Table t2("E6b: read preference (write rate 50/s, lag 15ms)",
           {"read preference", "stale fraction", "who uses it"});
  auto nearest =
      RunTrial(50, Millis(15), replication::ReadPreference::kNearest, 13);
  auto master =
      RunTrial(50, Millis(15), replication::ReadPreference::kMasterOnly, 13);
  t2.AddRow({"nearest replica (slave reads)",
             Table::Pct(nearest.StaleFraction(), 2),
             "application FEs (§3.3.2)"});
  t2.AddRow({"master only", Table::Pct(master.StaleFraction(), 2),
             "Provisioning System (§3.3.3)"});
  t2.Print();

  Table t3("E6c: expected shape", {"check", "result"});
  auto lo = RunTrial(10, Millis(15), replication::ReadPreference::kNearest, 17);
  auto hi = RunTrial(200, Millis(15), replication::ReadPreference::kNearest, 17);
  auto far = RunTrial(50, Millis(50), replication::ReadPreference::kNearest, 19);
  auto near = RunTrial(50, Millis(5), replication::ReadPreference::kNearest, 19);
  t3.AddRow({"staleness grows with write rate",
             hi.StaleFraction() > lo.StaleFraction() ? "PASS" : "FAIL"});
  t3.AddRow({"staleness grows with replication lag",
             far.StaleFraction() > near.StaleFraction() ? "PASS" : "FAIL"});
  t3.AddRow({"master-only reads never stale",
             master.stale == 0 ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintStaleTables();
  return 0;
}
