// Sharded execution-mode scaling benchmark (self-checking, plain main):
// runs the same operation stream over 1/2/4/8 shard threads
// (workload::RunShardedTraffic -> exec::ShardRuntime) and reports throughput
// per shard count.
//
// Two throughput bases: per-shard CPU time (CLOCK_THREAD_CPUTIME_ID around
// Execute, idle polling excluded; the aggregate is the sum of per-shard
// service rates) and wall time. The CPU basis assumes one core per shard,
// so it "scales" even when the workers time-share fewer cores than shards;
// it is reported as information only. The gate reads wall time, which is
// what the host actually sustained.
//
//   S1  throughput per shard count: wall ops/s and speedup, aggregate (CPU
//       basis), ops/s/core. Every number is a host measurement.
//   S2  correctness: zero per-key order violations; zero failed ops; zero
//       end-state sequence mismatches.
//   S3  scaling gate: the median wall speedup at 4 shards over
//       kGatePairs interleaved 1-shard/4-shard runs >= 0.7 x min(4, nproc).
//       One pair is one ratio of two single-shot wall rates, and either
//       rate swings with whatever else the host runs; the median of
//       interleaved pairs reads through a slow run on either side.
//
// Emits BENCH_sharded_scale.json (to $UDR_BENCH_SHARDED_SCALE_JSON, or
// ./BENCH_sharded_scale.json).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "workload/sharded_traffic.h"

using namespace udr;

namespace {

struct ScaleRow {
  int shards = 0;
  double wall_ops_per_sec = 0.0;
  double aggregate_ops_per_sec = 0.0;
  double ops_per_sec_per_core = 0.0;
  int64_t ops_done = 0;
  int64_t failed = 0;
  int64_t order_violations = 0;
  int64_t seq_mismatches = 0;
};

/// Interleaved 1-shard/4-shard pairs behind the S3 gate.
constexpr int kGatePairs = 5;

workload::TrafficOptions RunOptions(int shards) {
  workload::TrafficOptions opts;
  opts.subscriber_count = 4000;
  opts.seed = 42;
  opts.num_shards = shards;
  opts.sharded_total_ops = 60000;
  opts.sharded_write_fraction = 0.3;
  opts.sharded_batch_ops = 8;
  return opts;
}

ScaleRow RunOne(int shards) {
  auto report = workload::RunShardedTraffic(RunOptions(shards));
  ScaleRow row;
  row.shards = shards;
  row.wall_ops_per_sec = report.runtime.wall_ops_per_sec;
  row.aggregate_ops_per_sec = report.runtime.aggregate_ops_per_sec;
  row.ops_per_sec_per_core = report.runtime.ops_per_sec_per_core;
  row.ops_done = report.runtime.ops_done;
  row.failed = report.runtime.ops_failed;
  row.order_violations = report.runtime.order_violations;
  row.seq_mismatches = report.seq_mismatches;
  return row;
}

void WriteJson(const std::vector<ScaleRow>& rows, double speedup4,
               double wall_speedup4, bool pass) {
  std::string path = bench::JsonPath("UDR_BENCH_SHARDED_SCALE_JSON",
                                     "BENCH_sharded_scale.json");
  const workload::TrafficOptions opts = RunOptions(/*shards=*/1);
  bench::RunMeta meta;
  meta.seed = opts.seed;
  meta.knobs = {{"subscribers", std::to_string(opts.subscriber_count)},
                {"total_ops", std::to_string(opts.sharded_total_ops)},
                {"write_fraction", std::to_string(opts.sharded_write_fraction)},
                {"batch_ops", std::to_string(opts.sharded_batch_ops)}};
  FILE* f = bench::OpenJson(path, "bench_sharded_scale", meta);
  if (f == nullptr) return;
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"wall_ops_per_sec\": %.0f, "
                 "\"aggregate_ops_per_sec\": %.0f, \"ops_per_sec_per_core\": "
                 "%.0f, \"ops\": %lld, \"failed\": %lld, "
                 "\"order_violations\": %lld, \"seq_mismatches\": %lld}%s\n",
                 r.shards, r.wall_ops_per_sec, r.aggregate_ops_per_sec,
                 r.ops_per_sec_per_core, static_cast<long long>(r.ops_done),
                 static_cast<long long>(r.failed),
                 static_cast<long long>(r.order_violations),
                 static_cast<long long>(r.seq_mismatches),
                 i + 1 < rows.size() ? "," : "");
  }
  // Basis-tagged throughput rows: the CPU-time basis is machine-portable
  // (per-shard service rate, cores-per-shard assumed), the wall basis is what
  // this host actually sustained while time-sharing. Trajectory comparisons
  // across machines must read the basis, not guess it.
  const ScaleRow& base = rows.front();
  std::fprintf(f, "  ],\n  \"throughput\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"basis\": \"cpu\", \"ops_per_sec\": "
                 "%.0f, \"speedup\": %.2f},\n",
                 r.shards, r.aggregate_ops_per_sec,
                 base.aggregate_ops_per_sec > 0
                     ? r.aggregate_ops_per_sec / base.aggregate_ops_per_sec
                     : 0.0);
    std::fprintf(f,
                 "    {\"shards\": %d, \"basis\": \"wall\", \"ops_per_sec\": "
                 "%.0f, \"speedup\": %.2f}%s\n",
                 r.shards, r.wall_ops_per_sec,
                 base.wall_ops_per_sec > 0
                     ? r.wall_ops_per_sec / base.wall_ops_per_sec
                     : 0.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"aggregate_speedup_at_4_shards\": %.2f,\n",
               speedup4);
  std::fprintf(f, "  \"wall_speedup_at_4_shards\": %.2f,\n", wall_speedup4);
  bench::CloseJson(f, path, "bench_sharded_scale", pass);
}

}  // namespace

int main() {
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  std::vector<ScaleRow> rows;
  for (int shards : shard_counts) {
    std::printf("bench_sharded_scale: running %d shard(s)...\n", shards);
    rows.push_back(RunOne(shards));
  }

  const ScaleRow& base = rows[0];
  Table t1("S1: sharded throughput, 60k ops over 4k subscribers "
           "(aggregate = sum of per-shard CPU-time service rates)",
           {"shards", "wall ops/s", "wall speedup", "aggregate ops/s",
            "ops/s/core", "CPU speedup"});
  for (const ScaleRow& r : rows) {
    t1.AddRow({Table::Num(r.shards), Table::Dbl(r.wall_ops_per_sec, 0),
               Table::Dbl(r.wall_ops_per_sec / base.wall_ops_per_sec, 2) + "x",
               Table::Dbl(r.aggregate_ops_per_sec, 0),
               Table::Dbl(r.ops_per_sec_per_core, 0),
               Table::Dbl(r.aggregate_ops_per_sec / base.aggregate_ops_per_sec,
                          2) +
                   "x"});
  }
  for (size_t c = 1; c < 6; ++c) t1.SetBasis(c, Table::Basis::kHost);
  t1.Print();
  std::printf("\n");

  double speedup4 = 0.0;
  int64_t violations = 0, failed = 0, mismatches = 0;
  auto check = [&](const ScaleRow& r) {
    violations += r.order_violations;
    failed += r.failed;
    mismatches += r.seq_mismatches;
  };
  for (const ScaleRow& r : rows) {
    if (r.shards == 4) {
      speedup4 = r.aggregate_ops_per_sec / base.aggregate_ops_per_sec;
    }
    check(r);
  }
  std::printf("bench_sharded_scale: %d interleaved 1/4-shard pairs...\n",
              kGatePairs);
  std::vector<double> pair_speedups;
  for (int i = 0; i < kGatePairs; ++i) {
    const ScaleRow one = RunOne(1);
    const ScaleRow four = RunOne(4);
    check(one);
    check(four);
    pair_speedups.push_back(four.wall_ops_per_sec / one.wall_ops_per_sec);
  }
  std::sort(pair_speedups.begin(), pair_speedups.end());
  const double wall_speedup4 = pair_speedups[kGatePairs / 2];

  // Four shards cannot run faster than the cores they share.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double wall_target = 0.7 * std::min(4, cores);
  const bool speedup_ok = wall_speedup4 >= wall_target;
  const bool order_ok = violations == 0;
  const bool failed_ok = failed == 0;
  const bool state_ok = mismatches == 0;
  const bool pass = speedup_ok && order_ok && failed_ok && state_ok;

  Table t2("S2: self-check (any failed row breaks the CI smoke)",
           {"check", "value", "target", "verdict"});
  t2.AddRow({"per-key order violations", Table::Num(violations), "0",
             order_ok ? "PASS" : "FAIL"});
  t2.AddRow({"failed ops", Table::Num(failed), "0",
             failed_ok ? "PASS" : "FAIL"});
  t2.AddRow({"end-state seq mismatches", Table::Num(mismatches), "0",
             state_ok ? "PASS" : "FAIL"});
  t2.Print();
  std::printf("\n");

  Table t3("S3: scaling gate (wall basis; any failed row breaks the CI smoke)",
           {"check", "value", "target", "verdict"});
  t3.AddRow({"wall speedup @ 4 shards",
             Table::Dbl(wall_speedup4, 2) + "x (median of " +
                 std::to_string(kGatePairs) + ", " +
                 Table::Dbl(pair_speedups.front(), 2) + "-" +
                 Table::Dbl(pair_speedups.back(), 2) + "x)",
             ">= 0.7 x min(4, " + std::to_string(cores) + ") = " +
                 Table::Dbl(wall_target, 2) + "x",
             speedup_ok ? "PASS" : "FAIL"});
  for (size_t c = 1; c < 4; ++c) t3.SetBasis(c, Table::Basis::kHost);
  t3.Print();

  WriteJson(rows, speedup4, wall_speedup4, pass);
  return pass ? 0 : 1;
}
