// Ablations over the paper's design decisions (DESIGN.md calls these out):
//   A1. replication factor: 2 vs 3 vs 5 copies — write latency (quorum),
//       read availability under one-site loss, RAM amplification;
//   A2. failover detection timeout: write-unavailability window after a
//       master crash;
//   A3. isolation level: READ_COMMITTED vs READ_UNCOMMITTED — dirty-read
//       anomaly counts under concurrent PS/FE activity on one SE;
//   A4. §6 future work head-to-head: master/slave (CP and AP) vs QUORUM vs
//       Paxos-style consensus — write availability through a partition
//       where the master/leader sits on the minority side, plus loss on
//       crash. Every row is one ReplicaSet configuration; consensus is
//       QUORUM acks with the ELECT_MAJORITY partition mode (a majority
//       component elects its most caught-up replica, a minority refuses).

#include "common/table.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

// ---------------------------------------------------------------------------
// A1: replication factor
// ---------------------------------------------------------------------------

void PrintReplicationFactorTable() {
  Table t("ABL-1: replication factor (quorum commits, 5 sites)",
          {"copies", "quorum write latency", "survives one-site loss",
           "RAM amplification"});
  for (int factor : {2, 3, 5}) {
    replication::ReplicaSetConfig cfg;
    cfg.sync_mode = replication::SyncMode::kQuorum;
    workload::ReplicaRig rig(cfg, 5, sim::LatencyConfig(),
                             static_cast<uint32_t>(factor));
    rig.clock().AdvanceTo(Seconds(1));
    replication::WriteBuilder wb;
    wb.Set(1, "v", int64_t{1});
    auto w = rig.set().Write(0, std::move(wb).Build());
    bool survives = factor >= 3;  // Majority still exists with 1 site gone.
    t.AddRow({Table::Num(factor), Table::Dur(w.latency),
              survives ? "yes" : "NO (majority = all)",
              Table::Dbl(static_cast<double>(factor), 0) + "x"});
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// A2: failover detection timeout
// ---------------------------------------------------------------------------

void PrintFailoverTimeoutTable() {
  Table t("ABL-2: failover detection timeout vs write-unavailability window "
          "after a master SE crash (writes every 100ms)",
          {"detection timeout", "writes rejected", "unavailability window"});
  for (MicroDuration detect : {Seconds(1), Seconds(5), Seconds(30)}) {
    replication::ReplicaSetConfig cfg;
    cfg.failover_detection = detect;
    workload::ReplicaRig rig(cfg);
    sim::SimClock& clock = rig.clock();
    replication::ReplicaSet& rs = rig.set();
    clock.AdvanceTo(Seconds(1));
    replication::WriteBuilder seed;
    seed.Set(1, "v", int64_t{0});
    rs.Write(0, std::move(seed).Build());
    clock.Advance(Seconds(1));
    rs.CatchUpAll();
    rs.CrashReplica(rs.master_id());
    MicroTime crash = clock.Now();
    int64_t rejected = 0;
    MicroTime first_ok = 0;
    for (int i = 0; i < 1000; ++i) {
      clock.Advance(Millis(100));
      replication::WriteBuilder wb;
      wb.Set(1, "v", static_cast<int64_t>(i));
      auto w = rs.Write(1, std::move(wb).Build());
      if (w.status.ok()) {
        first_ok = clock.Now();
        break;
      }
      ++rejected;
    }
    t.AddRow({FormatDuration(detect), Table::Num(rejected),
              Table::Dur(first_ok - crash)});
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// A3: isolation level anomaly counts
// ---------------------------------------------------------------------------

void PrintIsolationTable() {
  Table t("ABL-3: dirty reads observed by a concurrent reader during 1,000 "
          "writer transactions (one SE)",
          {"reader isolation", "dirty reads", "note"});
  for (auto iso : {storage::IsolationLevel::kReadCommitted,
                   storage::IsolationLevel::kReadUncommitted}) {
    sim::SimClock clock;
    storage::StorageElementConfig cfg;
    storage::StorageElement se(cfg, &clock);
    {
      auto txn = se.Begin();
      (void)txn.SetAttribute(1, "balance", int64_t{0});
      (void)txn.Commit(0);
    }
    int64_t dirty = 0;
    for (int i = 1; i <= 1000; ++i) {
      clock.Advance(Millis(1));
      auto writer = se.Begin();
      (void)writer.SetAttribute(1, "balance", static_cast<int64_t>(i));
      // Concurrent read while the writer is uncommitted.
      auto reader = se.Begin(iso);
      auto v = reader.GetAttribute(1, "balance");
      if (v.ok() &&
          storage::ValueToString(*v) == std::to_string(i)) {
        ++dirty;  // Saw the uncommitted value.
      }
      reader.Abort();
      if (i % 2 == 0) {
        (void)writer.Commit(clock.Now());
      } else {
        writer.Abort();  // Half the writes never happen.
      }
    }
    t.AddRow({iso == storage::IsolationLevel::kReadCommitted
                  ? "READ_COMMITTED (intra-SE, §3.2)"
                  : "READ_UNCOMMITTED (multi-SE, §3.2)",
              Table::Num(dirty),
              iso == storage::IsolationLevel::kReadCommitted
                  ? "reads never blocked, never dirty"
                  : "half of these observed writes that aborted"});
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// A4: replication strategy head-to-head (incl. §6 consensus)
// ---------------------------------------------------------------------------

struct StrategyResult {
  double write_availability = 0;
  int64_t lost_on_crash = 0;
  MicroDuration steady_latency = 0;
};

StrategyResult RunMasterSlave(replication::PartitionMode pmode,
                              replication::SyncMode smode) {
  replication::ReplicaSetConfig cfg;
  cfg.partition_mode = pmode;
  cfg.sync_mode = smode;
  cfg.async_ship_delay = Millis(10);
  workload::ReplicaRig rig(cfg);
  sim::SimClock& clock = rig.clock();
  replication::ReplicaSet& rs = rig.set();
  StrategyResult out;
  clock.AdvanceTo(Seconds(1));
  {
    replication::WriteBuilder wb;
    wb.Set(1, "v", int64_t{0});
    out.steady_latency = rs.Write(0, std::move(wb).Build()).latency;
  }
  // Master's site isolated for 60s; writes arrive at site 1 every 100ms.
  rig.network().partitions().IsolateSite(0, 3, clock.Now(),
                                         clock.Now() + Seconds(60));
  int64_t ok = 0, total = 0;
  for (int i = 0; i < 600; ++i) {
    clock.Advance(Millis(100));
    replication::WriteBuilder wb;
    wb.Set(1 + i % 10, "v", static_cast<int64_t>(i));
    if (rs.Write(1, std::move(wb).Build()).status.ok()) ++ok;
    ++total;
  }
  out.write_availability = static_cast<double>(ok) / total;
  // Crash-loss probe: fresh commits then master crash.
  clock.Advance(Seconds(60));
  for (int i = 0; i < 10; ++i) {
    replication::WriteBuilder wb;
    wb.Set(50, "v", static_cast<int64_t>(i));
    rs.Write(rs.master_site(), std::move(wb).Build());
  }
  rs.CrashReplica(rs.master_id());
  clock.Advance(Seconds(10));
  auto fo = rs.FailOver();
  if (fo.ok()) out.lost_on_crash = fo->lost_transactions;
  return out;
}

void PrintStrategyTable() {
  Table t("ABL-4: replication strategy head-to-head (master/leader site "
          "isolated 60s, writes from the surviving side; §6 future work)",
          {"strategy", "steady write latency", "write avail during cut",
           "acked txns lost on crash"});
  auto cp = RunMasterSlave(replication::PartitionMode::kPreferConsistency,
                           replication::SyncMode::kAsync);
  t.AddRow({"master/slave async, CP (paper)", Table::Dur(cp.steady_latency),
            Table::Pct(cp.write_availability, 1), Table::Num(cp.lost_on_crash)});
  auto ap = RunMasterSlave(replication::PartitionMode::kPreferAvailability,
                           replication::SyncMode::kAsync);
  t.AddRow({"master/slave async, AP (§5)", Table::Dur(ap.steady_latency),
            Table::Pct(ap.write_availability, 1),
            Table::Num(ap.lost_on_crash) + " (+divergence)"});
  auto qr = RunMasterSlave(replication::PartitionMode::kPreferConsistency,
                           replication::SyncMode::kQuorum);
  t.AddRow({"master/slave quorum", Table::Dur(qr.steady_latency),
            Table::Pct(qr.write_availability, 1), Table::Num(qr.lost_on_crash)});
  auto cs = RunMasterSlave(replication::PartitionMode::kElectMajority,
                           replication::SyncMode::kQuorum);
  t.AddRow({"consensus (Paxos-style, §6)", Table::Dur(cs.steady_latency),
            Table::Pct(cs.write_availability, 1), Table::Num(cs.lost_on_crash)});
  t.Print();

  Table t2("ABL-4 expected shape", {"check", "result"});
  t2.AddRow({"CP loses write availability during the cut",
             cp.write_availability < 0.5 ? "PASS" : "FAIL"});
  t2.AddRow({"consensus keeps writing (majority side) AND loses nothing",
             cs.write_availability > 0.9 && cs.lost_on_crash == 0 ? "PASS"
                                                                  : "FAIL"});
  t2.AddRow({"consensus pays latency even in steady state",
             cs.steady_latency > cp.steady_latency ? "PASS" : "FAIL"});
  t2.Print();
}

}  // namespace

int main() {
  PrintReplicationFactorTable();
  PrintFailoverTimeoutTable();
  PrintIsolationTable();
  PrintStrategyTable();
  return 0;
}
