// Observability-overhead benchmark (self-checking, plain main): each
// scenario run untraced and traced, with the traced runs' SLOs and
// availability gated and the full-rate trace exported. The tracer closes
// spans at modelled completion times and never touches an Rng stream, so a
// traced run's modelled numbers equal the untraced run's; obs_test's
// TracingDoesNotPerturbTheModelledRun checks that byte for byte, so no p99
// ratio is gated here (it would read 1.00x by construction).
//
// Two compound scenarios — an attach storm over a scale-out rebalance
// (coalescer + migration stages live) and a roaming wave — each run three
// ways:
//
//   row 1  untraced      tracing off, sampler off
//   row 2  traced 1%     trace_sample_rate 0.01 + 100ms sampler (the
//                        production-shaped configuration the gate is on)
//   row 3  traced 100%   full-rate tracing; the merged trace is exported to
//                        $UDR_OBS_TRACE_JSON for ci.sh's Perfetto parse
//
//   O1  modelled FE p99 / availability per row, plus wall-clock run time
//       (the real instrumentation cost, reported for the record — the gate
//       is on the modelled numbers, which are host-independent).
//   O2  gates: availability unchanged and every scenario SLO passing, per
//       scenario; the exported trace is non-empty. Stage coverage is
//       checked by obs_test's TraceCoversEveryMajorStage and by ci.sh's
//       parse of the exported trace.
//
// Emits BENCH_obs_overhead.json (to $UDR_BENCH_OBS_OVERHEAD_JSON, or
// ./BENCH_obs_overhead.json) and the Perfetto trace (to $UDR_OBS_TRACE_JSON,
// or ./obs_trace.json).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "obs/trace.h"
#include "scenario/engine.h"

using namespace udr;
using scenario::ScenarioSpec;
using scenario::SloCheck;
using scenario::SloKind;

namespace {

/// Wall clock (legal in bench/): the reported-only instrumentation cost.
int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

constexpr int kSubscribers = 150;
constexpr double kTracedRate = 0.01;
constexpr MicroDuration kSampleInterval = Millis(100);

/// Shared deployment: small 2-site cluster with coalescing on, sized so the
/// storm variant's rebalance ships real chunks within the 4s run.
ScenarioSpec BaseSpec(const char* name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.testbed.sites = 2;
  spec.testbed.seed = 7;
  spec.testbed.subscribers = kSubscribers;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 2;
  spec.testbed.udr.se_per_cluster = 1;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.testbed.udr.coalesce_window_us = Micros(200);
  spec.testbed.udr.coalesce_max_ops = 64;
  spec.testbed.udr.migration_bandwidth_bps = 4 * 1024 * 1024;
  spec.testbed.udr.migration_chunk_bytes = 32 * 1024;
  spec.duration = Seconds(4);
  spec.fe_rate_per_sec = 200.0;
  spec.ps_rate_per_sec = 10.0;
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kZeroAckedWriteLoss,
                                 "zero-acked-write-loss", 0.0, -1});
  return spec;
}

ScenarioSpec StormRebalance() {
  ScenarioSpec spec = BaseSpec("storm-rebalance");
  spec.script.AttachStorm(Seconds(1), Seconds(1), /*events_per_tick=*/4);
  spec.script.ScaleOut(Seconds(2), /*site=*/1);
  spec.script.StartRebalance(Seconds(2) + Millis(100));
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kMigrationComplete,
                                 "migration-complete", 0.0, -1});
  return spec;
}

ScenarioSpec RoamingWave() {
  ScenarioSpec spec = BaseSpec("roaming-wave");
  spec.script.RoamingWave(Seconds(1), Seconds(2), /*to_site=*/1,
                          /*fraction=*/0.3);
  return spec;
}

struct RunRow {
  int64_t fe_p99 = 0;       ///< Modelled FE p99, µs.
  double fe_avail = 0.0;    ///< Modelled FE availability.
  double wall_ms = 0.0;     ///< Real run time of this variant.
  int64_t spans = 0;        ///< Spans retained by the run's tracer.
  bool scenario_pass = false;
};

/// Runs one variant; at full rate the run's trace is merged into `export_to`
/// (the Perfetto artifact must outlive the engine).
RunRow RunVariant(ScenarioSpec spec, double trace_rate,
                  MicroDuration sample_interval, obs::Tracer* export_to) {
  spec.testbed.udr.trace_sample_rate = trace_rate;
  spec.testbed.udr.obs_sample_interval_us = sample_interval;
  scenario::Engine engine(spec);
  const int64_t t0 = NowNs();
  const scenario::ScenarioReport report = engine.Run();
  const int64_t t1 = NowNs();
  RunRow row;
  workload::ClassStats fe = report.stats.FeAll();
  row.fe_p99 = fe.latency.P99();
  row.fe_avail = fe.availability();
  row.wall_ms = static_cast<double>(t1 - t0) / 1e6;
  row.scenario_pass = report.Passed();
  const obs::Tracer* tracer = engine.testbed().udr().tracer();
  if (tracer != nullptr) {
    row.spans = static_cast<int64_t>(tracer->spans().size());
    if (export_to != nullptr) export_to->MergeFrom(*tracer);
  }
  return row;
}

void WriteTraceJson(const std::string& path, const obs::Tracer& merged) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_obs_overhead: cannot write %s\n",
                 path.c_str());
    return;
  }
  const std::string json = merged.ExportChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("bench_obs_overhead: wrote %s (%lld spans)\n", path.c_str(),
              static_cast<long long>(merged.spans().size()));
}

}  // namespace

int main() {
  const std::vector<ScenarioSpec> specs = {StormRebalance(), RoamingWave()};

  // Merge target for the full-rate traces; only Merge/Export are used, so
  // the clock and sampling options are inert.
  sim::SimClock merge_clock;
  obs::Tracer merged(obs::Tracer::Options{}, &merge_clock);

  struct ScenarioRows {
    std::string name;
    RunRow untraced, traced, full;
  };
  std::vector<ScenarioRows> results;
  for (const ScenarioSpec& spec : specs) {
    std::printf("bench_obs_overhead: running %s...\n", spec.name.c_str());
    ScenarioRows r;
    r.name = spec.name;
    r.untraced = RunVariant(spec, 0.0, 0, nullptr);
    r.traced = RunVariant(spec, kTracedRate, kSampleInterval, nullptr);
    r.full = RunVariant(spec, 1.0, kSampleInterval, &merged);
    results.push_back(r);
  }

  Table t1("O1: modelled FE p99 / availability per tracing mode "
           "(wall = real run time, reported only)",
           {"scenario", "mode", "fe p99", "fe avail", "wall", "spans"});
  for (const ScenarioRows& r : results) {
    auto row = [&](const char* mode, const RunRow& v) {
      t1.AddRow({r.name, mode, Table::Dur(v.fe_p99), Table::Pct(v.fe_avail),
                 Table::Dbl(v.wall_ms, 1) + "ms", Table::Num(v.spans)});
    };
    row("untraced", r.untraced);
    row("traced 1% + sampler", r.traced);
    row("traced 100%", r.full);
  }
  t1.SetBasis(4, Table::Basis::kHost);
  t1.Print();
  std::printf("\n");

  bool pass = true;
  Table t2("O2: gates", {"check", "bound", "actual", "verdict"});
  auto gate = [&](const std::string& check, const std::string& bound,
                  const std::string& actual, bool ok) {
    if (!ok) pass = false;
    t2.AddRow({check, bound, actual, ok ? "PASS" : "FAIL"});
  };
  for (const ScenarioRows& r : results) {
    gate(r.name + ": availability unchanged", "exact",
         Table::Pct(r.traced.fe_avail),
         r.traced.fe_avail == r.untraced.fe_avail);
    gate(r.name + ": scenario SLOs", "all pass",
         r.traced.scenario_pass ? "pass" : "fail",
         r.untraced.scenario_pass && r.traced.scenario_pass &&
             r.full.scenario_pass);
  }
  gate("exported trace spans", "> 0", Table::Num(merged.spans().size()),
       !merged.spans().empty());
  t2.Print();

  WriteTraceJson(bench::JsonPath("UDR_OBS_TRACE_JSON", "obs_trace.json"),
                 merged);

  const std::string path = bench::JsonPath("UDR_BENCH_OBS_OVERHEAD_JSON",
                                           "BENCH_obs_overhead.json");
  bench::RunMeta meta;
  meta.seed = specs.front().testbed.seed;
  for (const ScenarioSpec& spec : specs) meta.sim_duration_us += spec.duration;
  meta.knobs = {{"subscribers", std::to_string(kSubscribers)},
                {"trace_sample_rate", std::to_string(kTracedRate)},
                {"obs_sample_interval_us", std::to_string(kSampleInterval)}};
  FILE* f = bench::OpenJson(path, "bench_obs_overhead", meta);
  if (f != nullptr) {
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const ScenarioRows& r = results[i];
      std::fprintf(
          f,
          "    {\"scenario\": \"%s\", \"untraced_p99_us\": %lld, "
          "\"traced_p99_us\": %lld, "
          "\"untraced_wall_ms\": %.1f, \"traced_wall_ms\": %.1f, "
          "\"full_wall_ms\": %.1f, \"full_spans\": %lld}%s\n",
          r.name.c_str(), static_cast<long long>(r.untraced.fe_p99),
          static_cast<long long>(r.traced.fe_p99),
          r.untraced.wall_ms, r.traced.wall_ms, r.full.wall_ms,
          static_cast<long long>(r.full.spans),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"exported_spans\": %lld,\n",
                 static_cast<long long>(merged.spans().size()));
    bench::CloseJson(f, path, "bench_obs_overhead", pass);
  }
  return pass ? 0 : 1;
}
