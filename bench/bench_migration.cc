// M — the throttled background migration subsystem: foreground impact,
// bandwidth scaling and the zero-loss cutover invariant.
//
// M1 compares foreground probe latency (p99) against subscribers living on
// the partitions a scale-out rebalance moves: with no migration (baseline),
// during a bandwidth-throttled background move (chunks interleave with the
// probes), and right after an unthrottled bulk move (the whole handoff's
// engine load lands at one instant and foreground ops queue behind it). M2
// sweeps the bandwidth cap and checks total move time scales inversely with
// it, and that the bytes actually moved match the planner's estimate. M3
// interleaves acknowledged writes with every pacing step of a throttled
// move and verifies every one of them reads back after the cutover (zero
// acknowledged-write loss), including subscribers created mid-migration.
// M4 is the self-checking expected-shape table the CI smoke gates on.
//
// The run also emits a machine-readable BENCH_migration.json (to
// $UDR_BENCH_JSON_PATH, or ./BENCH_migration.json) so the bench trajectory
// can be tracked across commits.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "ldap/dn.h"
#include "migration/planner.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

constexpr int kSubscribers = 1200;
constexpr int kModifyRounds = 3;  // Fattens the logs the move must ship.
constexpr MicroDuration kProbeGap = Micros(250);
constexpr int64_t kThrottleBps = 256 * 1024;  // 256 KiB/s.
constexpr int64_t kChunkBytes = 2 * 1024;

/// 3-site testbed with a populated UDR (plus modifies to fatten the logs).
workload::Testbed MakeBed(int64_t bandwidth_bps, int64_t chunk_bytes) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = kSubscribers;
  o.udr.partitions_per_se = 2;
  o.udr.migration_bandwidth_bps = bandwidth_bps;
  o.udr.migration_chunk_bytes = chunk_bytes;
  workload::Testbed bed(o);
  auto& udr = bed.udr();
  for (int round = 0; round < kModifyRounds; ++round) {
    for (uint64_t i = 0; i < kSubscribers; ++i) {
      ldap::LdapRequest mod;
      mod.op = ldap::LdapOp::kModify;
      mod.dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(i));
      mod.mods.push_back({ldap::ModType::kReplace, "serving-vlr",
                          std::string("vlr") + std::to_string(i % 7 + round)});
      udr.Submit(mod, 0);
    }
  }
  bed.clock().Advance(Seconds(2));
  bed.udr().CatchUpAllPartitions();
  return bed;
}

/// Subscribers whose partition the pending rebalance plan will move (the
/// foreground population that actually feels the migration).
std::vector<uint64_t> AffectedSubscribers(workload::Testbed& bed, int want) {
  auto plan = migration::MigrationPlanner::PlanRebalance(
      bed.udr().partition_map());
  std::unordered_set<uint32_t> moved;
  for (const auto& task : plan.tasks) moved.insert(task.partition);
  std::vector<uint64_t> picks;
  for (uint64_t i = 0; i < kSubscribers && static_cast<int>(picks.size()) < want;
       ++i) {
    auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(i).ImsiId());
    if (loc.ok() && moved.count(loc->partition) > 0) picks.push_back(i);
  }
  return picks;
}

/// One foreground probe: alternating master read / location-update write
/// against a subscriber on a moved partition. Returns the probe latency.
MicroDuration Probe(workload::Testbed& bed, uint64_t subscriber, bool write) {
  ldap::LdapRequest req;
  req.dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(subscriber));
  if (write) {
    req.op = ldap::LdapOp::kModify;
    req.mods.push_back(
        {ldap::ModType::kReplace, "serving-vlr", std::string("vlr-probe")});
  } else {
    req.op = ldap::LdapOp::kSearch;
    req.master_only = true;
  }
  return bed.udr().Submit(req, 0).latency;
}

/// Probes every kProbeGap for `ticks` ticks, pumping migration when asked.
Histogram RunProbes(workload::Testbed& bed, const std::vector<uint64_t>& subs,
                    int ticks, bool pump) {
  Histogram h;
  for (int t = 0; t < ticks; ++t) {
    bed.clock().Advance(kProbeGap);
    if (pump) bed.udr().PumpMigration();
    h.Record(Probe(bed, subs[t % subs.size()], (t & 1) != 0));
  }
  return h;
}

struct M1Result {
  int64_t baseline_p99 = 0;
  int64_t throttled_p99 = 0;
  int64_t unthrottled_p99 = 0;
  int throttled_ticks = 0;
  MicroDuration throttled_duration = 0;
};

M1Result RunM1() {
  M1Result r;

  // Throttled run: probe while the background scheduler drains the move.
  {
    workload::Testbed bed = MakeBed(kThrottleBps, kChunkBytes);
    if (!bed.udr().AddCluster(0).ok()) return r;
    std::vector<uint64_t> subs = AffectedSubscribers(bed, 8);
    if (subs.empty()) return r;

    // Baseline: the same probes before any migration starts.
    r.baseline_p99 = RunProbes(bed, subs, 1000, false).P99();

    bed.udr().StartMigration();
    const MicroTime start = bed.clock().Now();
    Histogram during;
    int ticks = 0;
    while (bed.udr().MigrationActive() && ticks < 100000) {
      bed.clock().Advance(kProbeGap);
      bed.udr().PumpMigration();
      during.Record(Probe(bed, subs[ticks % subs.size()], (ticks & 1) != 0));
      ++ticks;
    }
    r.throttled_p99 = during.P99();
    r.throttled_ticks = ticks;
    r.throttled_duration = bed.clock().Now() - start;
  }

  // Unthrottled run: the bulk move lands at one instant; probe the same
  // number of ticks right after it — the stall the paper wants gone.
  {
    workload::Testbed bed = MakeBed(0, kChunkBytes);
    if (!bed.udr().AddCluster(0).ok()) return r;
    std::vector<uint64_t> subs = AffectedSubscribers(bed, 8);
    if (subs.empty()) return r;
    auto report = bed.udr().Rebalance();
    if (!report.ok()) return r;
    r.unthrottled_p99 = RunProbes(bed, subs, 1000, false).P99();
  }
  return r;
}

struct M2Row {
  int64_t bps = 0;
  MicroDuration move_time = 0;
  int64_t bytes_moved = 0;
  int64_t bytes_estimated = 0;
  int64_t tasks_failed = 0;
};

M2Row RunM2(int64_t bps) {
  M2Row row;
  row.bps = bps;
  workload::Testbed bed = MakeBed(bps, kChunkBytes);
  if (!bed.udr().AddCluster(0).ok()) return row;
  auto progress = bed.udr().StartMigration();
  row.bytes_estimated = progress.bytes_estimated;
  const MicroTime start = bed.clock().Now();
  bed.DrainMigration();
  auto done = bed.udr().MigrationStatus();
  row.move_time = bed.clock().Now() - start;
  row.bytes_moved = done.bytes_moved;
  row.tasks_failed = done.tasks_failed;
  return row;
}

struct M3Result {
  int64_t acked = 0;
  int64_t verified = 0;
  int64_t lost = 0;
  int64_t created = 0;
  int64_t tasks_failed = 0;
};

M3Result RunM3() {
  M3Result r;
  workload::Testbed bed = MakeBed(kThrottleBps, kChunkBytes);
  auto& udr = bed.udr();
  if (!udr.AddCluster(0).ok()) return r;
  udr.StartMigration();

  std::unordered_map<uint64_t, std::string> acked_value;
  std::vector<location::Identity> created;
  telecom::SubscriberFactory extra(997);
  int step = 0;
  while (udr.MigrationActive() && step < 100000) {
    MicroTime at = udr.NextMigrationDeadline();
    if (at == kTimeInfinity) break;
    bed.clock().AdvanceTo(std::max(at, bed.clock().Now()));
    udr.PumpMigration();

    // One acknowledged write per pacing step, cycling the population so
    // plenty land on partitions that are mid-copy or mid-catch-up.
    uint64_t index = static_cast<uint64_t>(step) % kSubscribers;
    std::string value = "+49" + std::to_string(step);
    ldap::LdapRequest mod;
    mod.op = ldap::LdapOp::kModify;
    mod.dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(index));
    mod.mods.push_back({ldap::ModType::kReplace, "cfu-number", value});
    if (udr.Submit(mod, 0).code == ldap::LdapResultCode::kSuccess) {
      acked_value[index] = value;
    }
    if (step % 11 == 0) {
      auto spec =
          extra.MakeSpec(500000 + static_cast<uint64_t>(step), std::nullopt);
      if (udr.CreateSubscriber(spec, 0).ok()) {
        created.push_back(spec.identities.front());
      }
    }
    ++step;
  }
  r.tasks_failed = udr.MigrationStatus().tasks_failed;

  for (const auto& [index, value] : acked_value) {
    ++r.acked;
    auto loc = udr.AuthoritativeLookup(bed.factory().Make(index).ImsiId());
    if (!loc.ok()) {
      ++r.lost;
      continue;
    }
    auto record = udr.partition(loc->partition)
                      ->ReadRecord(0, loc->key,
                                   replication::ReadPreference::kMasterOnly);
    if (record.ok() && record->Has("cfu-number") &&
        storage::ValueToString(*record->Get("cfu-number")) == value) {
      ++r.verified;
    } else {
      ++r.lost;
    }
  }
  for (const location::Identity& id : created) {
    ++r.acked;
    ++r.created;
    auto loc = udr.AuthoritativeLookup(id);
    bool ok = false;
    if (loc.ok()) {
      ok = udr.partition(loc->partition)
               ->ReadRecord(0, loc->key,
                            replication::ReadPreference::kMasterOnly)
               .ok();
    }
    if (ok) {
      ++r.verified;
    } else {
      ++r.lost;
    }
  }
  return r;
}

void WriteJson(const M1Result& m1, const std::vector<M2Row>& m2,
               const M3Result& m3, bool pass) {
  std::string path =
      bench::JsonPath("UDR_BENCH_JSON_PATH", "BENCH_migration.json");
  bench::RunMeta meta;
  meta.seed = workload::TestbedOptions{}.seed;
  meta.knobs = {{"subscribers", std::to_string(kSubscribers)},
                {"throttle_bps", std::to_string(kThrottleBps)},
                {"chunk_bytes", std::to_string(kChunkBytes)},
                {"probe_gap_us", std::to_string(kProbeGap)}};
  FILE* f = bench::OpenJson(path, "bench_migration", meta);
  if (f == nullptr) return;
  std::fprintf(f,
               "  \"m1\": {\"baseline_p99_us\": %lld, \"throttled_p99_us\": "
               "%lld, \"unthrottled_p99_us\": %lld, \"throttled_move_us\": "
               "%lld},\n",
               static_cast<long long>(m1.baseline_p99),
               static_cast<long long>(m1.throttled_p99),
               static_cast<long long>(m1.unthrottled_p99),
               static_cast<long long>(m1.throttled_duration));
  std::fprintf(f, "  \"m2\": [\n");
  for (size_t i = 0; i < m2.size(); ++i) {
    std::fprintf(f,
                 "    {\"bandwidth_bps\": %lld, \"move_time_us\": %lld, "
                 "\"bytes_moved\": %lld, \"bytes_estimated\": %lld}%s\n",
                 static_cast<long long>(m2[i].bps),
                 static_cast<long long>(m2[i].move_time),
                 static_cast<long long>(m2[i].bytes_moved),
                 static_cast<long long>(m2[i].bytes_estimated),
                 i + 1 < m2.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"m3\": {\"acked_writes\": %lld, \"verified\": %lld, "
               "\"lost\": %lld, \"created_during\": %lld},\n",
               static_cast<long long>(m3.acked),
               static_cast<long long>(m3.verified),
               static_cast<long long>(m3.lost),
               static_cast<long long>(m3.created));
  bench::CloseJson(f, path, "bench_migration", pass);
}

void PrintMigrationTables() {
  M1Result m1 = RunM1();
  Table t1("M1: foreground probe p99 against moved partitions "
           "(250us probes, 256KiB/s throttle, 2KiB chunks)",
           {"mode", "p99", "vs baseline"});
  auto ratio = [&](int64_t v) {
    return m1.baseline_p99 > 0
               ? static_cast<double>(v) / static_cast<double>(m1.baseline_p99)
               : 0.0;
  };
  t1.AddRow({"no migration (baseline)", Table::Dur(m1.baseline_p99), "1.00x"});
  t1.AddRow({"throttled background move", Table::Dur(m1.throttled_p99),
             Table::Dbl(ratio(m1.throttled_p99), 2) + "x"});
  t1.AddRow({"unthrottled bulk move", Table::Dur(m1.unthrottled_p99),
             Table::Dbl(ratio(m1.unthrottled_p99), 2) + "x"});
  t1.Print();

  std::vector<M2Row> m2;
  for (int64_t bps : {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024}) {
    m2.push_back(RunM2(bps));
  }
  Table t2("M2: total move time vs bandwidth cap (same delta each run)",
           {"bandwidth", "move time", "bytes moved", "planner estimate",
            "estimate err"});
  for (const M2Row& row : m2) {
    double err = row.bytes_estimated > 0
                     ? std::abs(static_cast<double>(row.bytes_moved -
                                                    row.bytes_estimated)) /
                           static_cast<double>(row.bytes_estimated)
                     : 1.0;
    t2.AddRow({Table::Bytes(row.bps) + "/s", Table::Dur(row.move_time),
               Table::Bytes(row.bytes_moved), Table::Bytes(row.bytes_estimated),
               Table::Pct(err, 2)});
  }
  t2.Print();

  M3Result m3 = RunM3();
  Table t3("M3: acknowledged writes across a throttled migration",
           {"metric", "value"});
  t3.AddRow({"writes acknowledged during move", Table::Num(m3.acked)});
  t3.AddRow({"  of which new activations", Table::Num(m3.created)});
  t3.AddRow({"verified readable after cutover", Table::Num(m3.verified)});
  t3.AddRow({"lost", Table::Num(m3.lost)});
  t3.Print();

  // M4: the self-checking expected shape (CI smoke fails on any FAIL row).
  bool m1_throttled_ok =
      m1.baseline_p99 > 0 && m1.throttled_p99 <= 2 * m1.baseline_p99;
  bool m1_contrast_ok = m1.unthrottled_p99 > m1.throttled_p99;
  bool m2_estimate_ok = !m2.empty();
  bool m2_scaling_ok = true;
  for (const M2Row& row : m2) {
    if (row.tasks_failed != 0 || row.bytes_estimated <= 0 ||
        std::abs(static_cast<double>(row.bytes_moved - row.bytes_estimated)) >
            0.05 * static_cast<double>(row.bytes_estimated)) {
      m2_estimate_ok = false;
    }
  }
  for (size_t i = 1; i < m2.size(); ++i) {
    // Doubling the cap should roughly halve the move time.
    double speedup = m2[i].move_time > 0
                         ? static_cast<double>(m2[i - 1].move_time) /
                               static_cast<double>(m2[i].move_time)
                         : 0.0;
    if (speedup < 1.5 || speedup > 2.5) m2_scaling_ok = false;
  }
  bool m3_ok = m3.acked > 0 && m3.lost == 0 && m3.tasks_failed == 0;

  Table t4("M4: expected shape", {"check", "result"});
  t4.AddRow({"throttled foreground p99 <= 2x no-migration baseline",
             m1_throttled_ok ? "PASS" : "FAIL"});
  t4.AddRow({"unthrottled bulk move stalls foreground harder than throttled",
             m1_contrast_ok ? "PASS" : "FAIL"});
  t4.AddRow({"bytes moved within 5% of planner estimate (all caps)",
             m2_estimate_ok ? "PASS" : "FAIL"});
  t4.AddRow({"move time scales ~inversely with the bandwidth cap",
             m2_scaling_ok ? "PASS" : "FAIL"});
  t4.AddRow({"zero acknowledged-write loss across cutover",
             m3_ok ? "PASS" : "FAIL"});
  t4.Print();

  WriteJson(m1, m2, m3,
            m1_throttled_ok && m1_contrast_ok && m2_estimate_ok &&
                m2_scaling_ok && m3_ok);
}

}  // namespace

int main() {
  PrintMigrationTables();
  return 0;
}
