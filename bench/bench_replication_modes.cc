// E5 — durability tuning (§3.3.1 decision 2 + §5).
//
// Compare the three replication acknowledgement modes across backbone RTTs:
//   * ASYNC (paper default): fastest commits, loses the unshipped suffix on
//     a master crash;
//   * DUAL_SEQUENCE (§5 evolution): master + one slave in sequence before
//     acking; survives the crash, pays ~1 backbone RTT;
//   * QUORUM (Cassandra-style comparator): majority ack; survives, pays the
//     RTT of the slower majority member and refuses writes without quorum.
// Expected shape: latency ASYNC < DUAL_SEQ <= QUORUM; loss ASYNC > 0,
// DUAL_SEQ = QUORUM = 0.

#include "common/table.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

struct ModeTrial {
  MicroDuration mean_commit_latency = 0;
  int64_t committed = 0;
  int64_t lost_on_crash = 0;
  int64_t degraded = 0;
};

ModeTrial RunTrial(replication::SyncMode mode, MicroDuration backbone_one_way,
                   bool crash_master) {
  sim::LatencyConfig lc;
  lc.backbone_one_way = backbone_one_way;
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = mode;
  // The async shipper batches entries for 10ms before sending: the window a
  // master crash can eat acknowledged transactions from (§3.3.1).
  cfg.async_ship_delay = Millis(10);
  workload::ReplicaRig rig(cfg, 3, lc);
  sim::SimClock& clock = rig.clock();
  replication::ReplicaSet& rs = rig.set();

  ModeTrial trial;
  MicroDuration total_latency = 0;
  clock.AdvanceTo(Seconds(1));
  const int kWrites = 200;
  for (int i = 0; i < kWrites; ++i) {
    replication::WriteBuilder wb;
    wb.Set(static_cast<storage::RecordKey>(i % 50), "serving-vlr",
           std::string("vlr-") + std::to_string(i));
    auto w = rs.Write(/*client_site=*/0, std::move(wb).Build());
    if (w.status.ok()) {
      ++trial.committed;
      total_latency += w.latency;
      if (w.degraded) ++trial.degraded;
    }
    clock.Advance(Millis(2));
  }
  trial.mean_commit_latency =
      trial.committed > 0 ? total_latency / trial.committed : 0;

  if (crash_master) {
    // Crash immediately after the last commit: the async window is hot.
    rs.CrashReplica(rs.master_id());
    clock.Advance(Seconds(10));
    auto report = rs.FailOver();
    if (report.ok()) trial.lost_on_crash = report->lost_transactions;
  }
  return trial;
}

const char* ModeName(replication::SyncMode m) {
  switch (m) {
    case replication::SyncMode::kAsync:
      return "ASYNC (paper default)";
    case replication::SyncMode::kDualSequence:
      return "DUAL-IN-SEQUENCE (§5)";
    case replication::SyncMode::kQuorum:
      return "QUORUM (Cassandra-like)";
  }
  return "?";
}

void PrintModeTables() {
  const replication::SyncMode modes[] = {
      replication::SyncMode::kAsync, replication::SyncMode::kDualSequence,
      replication::SyncMode::kQuorum};

  Table t("E5a: commit latency vs backbone RTT (writes from the master's "
          "site; 200 writes)",
          {"mode", "RTT 10ms", "RTT 30ms", "RTT 100ms"});
  for (auto mode : modes) {
    std::vector<std::string> row = {ModeName(mode)};
    for (MicroDuration ow : {Millis(5), Millis(15), Millis(50)}) {
      row.push_back(Table::Dur(RunTrial(mode, ow, false).mean_commit_latency));
    }
    t.AddRow(row);
  }
  t.Print();

  Table t2("E5b: master SE crash right after the last commit (RTT 30ms)",
           {"mode", "committed", "lost on crash", "durable fraction",
            "degraded commits"});
  for (auto mode : modes) {
    ModeTrial trial = RunTrial(mode, Millis(15), true);
    double durable = trial.committed > 0
                         ? 1.0 - static_cast<double>(trial.lost_on_crash) /
                                     static_cast<double>(trial.committed)
                         : 1.0;
    t2.AddRow({ModeName(mode), Table::Num(trial.committed),
               Table::Num(trial.lost_on_crash), Table::Pct(durable, 2),
               Table::Num(trial.degraded)});
  }
  t2.Print();

  Table t3("E5c: expected shape", {"check", "result"});
  auto a = RunTrial(replication::SyncMode::kAsync, Millis(15), true);
  auto d = RunTrial(replication::SyncMode::kDualSequence, Millis(15), true);
  auto q = RunTrial(replication::SyncMode::kQuorum, Millis(15), true);
  t3.AddRow({"latency ASYNC < DUAL_SEQ <= QUORUM",
             a.mean_commit_latency < d.mean_commit_latency &&
                     d.mean_commit_latency <= q.mean_commit_latency
                 ? "PASS"
                 : "FAIL"});
  t3.AddRow({"ASYNC loses acked transactions",
             a.lost_on_crash > 0 ? "PASS" : "FAIL"});
  t3.AddRow({"DUAL_SEQ and QUORUM lose nothing",
             d.lost_on_crash == 0 && q.lost_on_crash == 0 ? "PASS" : "FAIL"});
  t3.Print();
}

}  // namespace

int main() {
  PrintModeTables();
  return 0;
}
