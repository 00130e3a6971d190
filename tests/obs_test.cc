// Tests for the observability layer (src/obs/): deterministic trace-span
// sampling and nesting, Chrome/Perfetto export stability, the sim-time
// time-series sampler (ring wrap, rate/quantile window math), the flight
// recorder (per-component ring eviction, SLO-failure dumps), the
// pre-registered Metrics handle API, and the end-to-end contracts — a traced
// scenario replays byte-identically, tracing never perturbs the modelled
// run, a per-op submit records the same span tree as a batch, and per-shard
// tracers merge race-free after the workers join (this
// file runs under TSan in ci.sh alongside exec_test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "exec/shard.h"
#include "exec/shard_runtime.h"
#include "ldap/dn.h"
#include "obs/flight_recorder.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "scenario/engine.h"
#include "scenario/script.h"
#include "sim/clock.h"
#include "workload/testbed.h"

namespace udr {
namespace {

using obs::FlightRecorder;
using obs::SamplePoint;
using obs::SpanRecord;
using obs::TimeSeriesConfig;
using obs::TimeSeriesSampler;
using obs::TraceContext;
using obs::Tracer;
using scenario::RunScenario;
using scenario::ScenarioReport;
using scenario::ScenarioSpec;
using scenario::SloCheck;
using scenario::SloKind;

// ---------------------------------------------------------------------------
// Sampling decision
// ---------------------------------------------------------------------------

TEST(TraceSamplingTest, DecisionIsAPureFunctionOfSeedAndId) {
  for (uint64_t id = 1; id <= 200; ++id) {
    EXPECT_EQ(Tracer::SampleDecision(7, id, 0.3),
              Tracer::SampleDecision(7, id, 0.3));
  }
  // A different seed must flip at least one decision over a few hundred ids
  // (otherwise the seed is dead).
  bool any_differ = false;
  for (uint64_t id = 1; id <= 400 && !any_differ; ++id) {
    any_differ = Tracer::SampleDecision(7, id, 0.3) !=
                 Tracer::SampleDecision(8, id, 0.3);
  }
  EXPECT_TRUE(any_differ);
}

TEST(TraceSamplingTest, RateBoundsAreExact) {
  for (uint64_t id = 1; id <= 100; ++id) {
    EXPECT_FALSE(Tracer::SampleDecision(42, id, 0.0));
    EXPECT_TRUE(Tracer::SampleDecision(42, id, 1.0));
  }
}

TEST(TraceSamplingTest, FractionTracksTheRate) {
  int sampled = 0;
  const int kIds = 10000;
  for (uint64_t id = 1; id <= kIds; ++id) {
    if (Tracer::SampleDecision(42, id, 0.01)) ++sampled;
  }
  // Expected 100 of 10000; the mixer should land well inside [50, 200].
  EXPECT_GT(sampled, 50);
  EXPECT_LT(sampled, 200);
}

// ---------------------------------------------------------------------------
// Tracer spans
// ---------------------------------------------------------------------------

Tracer::Options AlwaysOn() {
  Tracer::Options o;
  o.sample_rate = 1.0;
  return o;
}

TEST(TracerTest, NestedSpansRecordParentageAndModelledTimes) {
  sim::SimClock clock;
  Tracer tracer(AlwaysOn(), &clock);

  const TraceContext root = tracer.StartTrace();
  EXPECT_TRUE(root.active());
  EXPECT_EQ(root.span_id, 0u);  // Root context: children are trace roots.

  clock.Advance(Micros(100));
  obs::Span outer = tracer.StartSpan("route.batch", root);
  const TraceContext outer_ctx = outer.context();
  EXPECT_TRUE(outer_ctx.active());

  // Modelled stage: starts later than Now(), ends at start + modelled cost,
  // all while the clock stays parked at 100.
  obs::Span inner = tracer.StartSpanAt("dispatch", outer_ctx, Micros(130));
  inner.EndAt(Micros(180));
  const uint64_t rec =
      tracer.RecordSpan("replica.write", outer_ctx, Micros(140), Micros(170));
  EXPECT_NE(rec, 0u);
  outer.EndAt(Micros(200));

  const std::vector<SpanRecord>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "route.batch");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].start, Micros(100));
  EXPECT_EQ(spans[0].end, Micros(200));
  EXPECT_STREQ(spans[1].name, "dispatch");
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_EQ(spans[1].start, Micros(130));
  EXPECT_EQ(spans[1].end, Micros(180));
  EXPECT_STREQ(spans[2].name, "replica.write");
  EXPECT_EQ(spans[2].parent_id, spans[0].span_id);
  for (const SpanRecord& s : spans) EXPECT_EQ(s.trace_id, root.trace_id);
}

TEST(TracerTest, UnsampledParentMakesEveryDownstreamSpanFree) {
  sim::SimClock clock;
  Tracer::Options off;
  off.sample_rate = 0.0;
  Tracer tracer(off, &clock);
  const TraceContext root = tracer.StartTrace();
  EXPECT_FALSE(root.active());
  obs::Span s = tracer.StartSpan("route.batch", root);
  EXPECT_FALSE(s.context().active());
  EXPECT_EQ(tracer.RecordSpan("resolve", root, 0, 10), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.traces_sampled(), 0);
  EXPECT_EQ(tracer.traces_started(), 1);
}

TEST(TracerTest, CapDropsExcessSpansButCountsThem) {
  sim::SimClock clock;
  Tracer::Options o = AlwaysOn();
  o.max_spans = 2;
  Tracer tracer(o, &clock);
  const TraceContext root = tracer.StartTrace();
  (void)tracer.RecordSpan("a", root, 0, 1);
  (void)tracer.RecordSpan("b", root, 1, 2);
  EXPECT_EQ(tracer.RecordSpan("c", root, 2, 3), 0u);
  obs::Span dropped = tracer.StartSpan("d", root);
  EXPECT_FALSE(dropped.context().active());
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2);
}

TEST(TracerTest, IdenticalCallSequencesExportIdenticalJson) {
  auto run = [] {
    sim::SimClock clock;
    Tracer tracer(AlwaysOn(), &clock);
    for (int i = 0; i < 5; ++i) {
      const TraceContext root = tracer.StartTrace();
      obs::Span top = tracer.StartSpan("event", root);
      (void)tracer.RecordSpan("resolve", top.context(), clock.Now(),
                              clock.Now() + Micros(30));
      top.EndAt(clock.Now() + Micros(90));
      clock.Advance(Micros(250));
    }
    return tracer.ExportChromeJson();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"event\""), std::string::npos);
  EXPECT_NE(first.find("\"resolve\""), std::string::npos);
}

TEST(TracerTest, MergeFromCombinesLanesDeterministically) {
  sim::SimClock clock;
  Tracer::Options lane0 = AlwaysOn();
  Tracer::Options lane1 = AlwaysOn();
  lane1.lane = 1;
  Tracer a(lane0, &clock);
  Tracer b(lane1, &clock);
  (void)a.RecordSpan("shard.execute", a.StartTrace(), 0, 10);
  (void)b.RecordSpan("shard.execute", b.StartTrace(), 0, 10);

  Tracer merged(Tracer::Options{}, &clock);
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  ASSERT_EQ(merged.spans().size(), 2u);
  // Same start time: export orders by lane next, so the merged JSON is
  // stable regardless of merge order.
  Tracer merged_rev(Tracer::Options{}, &clock);
  merged_rev.MergeFrom(b);
  merged_rev.MergeFrom(a);
  EXPECT_EQ(merged.ExportChromeJson(), merged_rev.ExportChromeJson());
  EXPECT_NE(merged.ExportChromeJson().find("\"tid\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, RingWrapKeepsTheNewestPoints) {
  Metrics metrics;
  sim::SimClock clock;
  TimeSeriesConfig cfg;
  cfg.interval = Millis(10);
  cfg.ring_capacity = 4;
  TimeSeriesSampler sampler(cfg, &metrics, &clock);
  sampler.TrackCounter("ops");
  sampler.TrackQuantile("lat", 99);

  EXPECT_FALSE(sampler.MaybeSample());  // Not due yet.
  for (int i = 1; i <= 10; ++i) {
    metrics.Add("ops", 10);
    metrics.Observe("lat", i);
    clock.Advance(Millis(10));
    EXPECT_TRUE(sampler.MaybeSample());
  }
  EXPECT_EQ(sampler.samples_taken(), 10);

  // Capacity 4: samples at t=70..100ms survive, earlier ones fell off.
  const std::vector<SamplePoint> series = sampler.CounterSeries("ops");
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series.front().t, Millis(70));
  EXPECT_EQ(series.front().value, 70.0);
  EXPECT_EQ(series.back().t, Millis(100));
  EXPECT_EQ(series.back().value, 100.0);
}

TEST(TimeSeriesTest, RateOverAndQuantileAtWindowMath) {
  Metrics metrics;
  sim::SimClock clock;
  TimeSeriesConfig cfg;
  cfg.interval = Millis(10);
  cfg.ring_capacity = 4;
  TimeSeriesSampler sampler(cfg, &metrics, &clock);
  sampler.TrackCounter("ops");
  sampler.TrackQuantile("lat", 99);
  for (int i = 1; i <= 10; ++i) {
    metrics.Add("ops", 10);
    metrics.Observe("lat", i);
    clock.Advance(Millis(10));
    ASSERT_TRUE(sampler.MaybeSample());
  }

  // Newest sample <= now: t=100 (value 100); oldest in the 30ms window:
  // t=70 (value 70). Delta 30 over 30ms = 1000/s.
  EXPECT_DOUBLE_EQ(sampler.RateOver("ops", Millis(30), Millis(100)), 1000.0);
  // A window too narrow to span two samples yields no rate.
  EXPECT_DOUBLE_EQ(sampler.RateOver("ops", Millis(5), Millis(100)), 0.0);
  // Quantile as of the final sample equals the registry's current view
  // (every observation predated the last tick).
  EXPECT_DOUBLE_EQ(sampler.QuantileAt("lat", 99, Millis(100)),
                   static_cast<double>(
                       metrics.HistOrEmpty("lat").Percentile(99)));
  // Before any retained sample: 0.
  EXPECT_DOUBLE_EQ(sampler.QuantileAt("lat", 99, Millis(5)), 0.0);
}

TEST(TimeSeriesTest, LateWakeTakesOneSampleAndCatchesUp) {
  Metrics metrics;
  sim::SimClock clock;
  TimeSeriesConfig cfg;
  cfg.interval = Millis(10);
  TimeSeriesSampler sampler(cfg, &metrics, &clock);
  sampler.TrackCounter("ops");
  // Sleep through three boundaries: one sample is taken (stamped at the
  // first missed boundary) and the schedule realigns past now.
  clock.Advance(Millis(35));
  EXPECT_TRUE(sampler.MaybeSample());
  EXPECT_EQ(sampler.samples_taken(), 1);
  EXPECT_GT(sampler.NextSampleDue(), clock.Now());
  const std::vector<SamplePoint> series = sampler.CounterSeries("ops");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series.front().t, Millis(10));
}

TEST(TimeSeriesTest, SerializeIsDeterministic) {
  auto run = [] {
    Metrics metrics;
    sim::SimClock clock;
    TimeSeriesConfig cfg;
    cfg.interval = Millis(10);
    TimeSeriesSampler sampler(cfg, &metrics, &clock);
    sampler.TrackCounter("ops");
    sampler.TrackQuantile("lat", 50);
    for (int i = 0; i < 6; ++i) {
      metrics.Add("ops", 3);
      metrics.Observe("lat", 7);
      clock.Advance(Millis(10));
      sampler.MaybeSample();
    }
    return sampler.Serialize();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("series counter ops"), std::string::npos);
  EXPECT_NE(first.find("series quantile lat p50"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, PerComponentRingsEvictIndependently) {
  FlightRecorder flight(3);
  for (int i = 1; i <= 5; ++i) {
    flight.Record(Micros(i), "chatty", "tick", "n=" + std::to_string(i));
  }
  flight.Record(Micros(9), "quiet", "once", "only");

  const auto chatty = flight.Events("chatty");
  ASSERT_EQ(chatty.size(), 3u);
  EXPECT_EQ(chatty.front().t, Micros(3));  // 1 and 2 evicted.
  EXPECT_EQ(chatty.back().t, Micros(5));
  // The chatty component could not evict the quiet one's history.
  ASSERT_EQ(flight.Events("quiet").size(), 1u);
  EXPECT_EQ(flight.total_recorded(), 6);
  EXPECT_EQ(flight.total_evicted(), 2);
  EXPECT_EQ(flight.retained(), 4u);
}

TEST(FlightRecorderTest, DumpIsSortedAndStable) {
  FlightRecorder flight(8);
  flight.Record(Micros(2), "zeta", "b", "later");
  flight.Record(Micros(1), "alpha", "a", "first");
  const std::string dump = flight.Dump();
  EXPECT_EQ(dump,
            "[alpha] t=1 a first\n"
            "[zeta] t=2 b later\n");
  EXPECT_EQ(dump, flight.Dump());
}

TEST(FlightRecorderTest, ZeroCapacityDropsEverything) {
  FlightRecorder flight(0);
  flight.Record(Micros(1), "x", "k", "d");
  EXPECT_TRUE(flight.Events("x").empty());
  EXPECT_EQ(flight.retained(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics handles (hot-path API parity with the string API)
// ---------------------------------------------------------------------------

TEST(MetricsHandleTest, HandleAndStringApisShareOneSlot) {
  Metrics metrics;
  Metrics::Counter c = metrics.RegisterCounter("x.y");
  c.Add();
  c.Add(4);
  metrics.Add("x.y", 2);
  EXPECT_EQ(metrics.Get("x.y"), 7);
  EXPECT_EQ(c.value(), 7);

  Metrics::HistHandle h = metrics.RegisterHist("x.h");
  h.Observe(5);
  metrics.Observe("x.h", 9);
  EXPECT_EQ(metrics.HistOrEmpty("x.h").count(), 2);
}

TEST(MetricsHandleTest, HandlesSurviveReset) {
  Metrics metrics;
  Metrics::Counter c = metrics.RegisterCounter("x.y");
  Metrics::HistHandle h = metrics.RegisterHist("x.h");
  c.Add(10);
  h.Observe(3);
  metrics.Reset();
  EXPECT_EQ(metrics.Get("x.y"), 0);
  EXPECT_EQ(metrics.HistOrEmpty("x.h").count(), 0);
  c.Add();  // The slot must still be live after Reset.
  h.Observe(4);
  EXPECT_EQ(metrics.Get("x.y"), 1);
  EXPECT_EQ(metrics.HistOrEmpty("x.h").count(), 1);
}

TEST(MetricsHandleTest, DefaultHandleIsANoOp) {
  Metrics::Counter c;
  c.Add(100);
  EXPECT_EQ(c.value(), 0);
  Metrics::HistHandle h;
  h.Observe(7);  // Must not crash.
}

TEST(MetricsDumpTest, HistogramLinesCarryConsistentFields) {
  Metrics metrics;
  metrics.Add("b.counter", 2);
  metrics.Observe("a.hist", 5);
  (void)metrics.RegisterHist("z.empty");  // Registered but never observed.
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("b.counter = 2\n"), std::string::npos);
  EXPECT_NE(dump.find("a.hist : count=1 p50="), std::string::npos);
  // Empty histograms get the same fields, not a different shape.
  EXPECT_NE(dump.find("z.empty : count=0 p50=0 p99=0\n"), std::string::npos);
  // Deterministic bytes: dumping twice is identical.
  EXPECT_EQ(dump, metrics.Dump());
}

// ---------------------------------------------------------------------------
// Scenario integration: replay determinism, zero perturbation, stage
// coverage and the SLO-failure flight dump
// ---------------------------------------------------------------------------

/// Small smoke deployment exercising every traced stage: coalesced storm
/// writes (park/flush), a scale-out + throttled rebalance (migration
/// chunks/cutovers) and steady FE/PS traffic (resolve/dispatch/replica).
ScenarioSpec ObsSmoke(double trace_rate, MicroDuration sample_interval) {
  ScenarioSpec spec;
  spec.name = "obs-smoke";
  spec.testbed.sites = 2;
  spec.testbed.seed = 7;
  spec.testbed.subscribers = 150;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 2;
  spec.testbed.udr.se_per_cluster = 1;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.testbed.udr.coalesce_window_us = Micros(200);
  spec.testbed.udr.coalesce_max_ops = 64;
  spec.testbed.udr.migration_bandwidth_bps = 4 * 1024 * 1024;
  spec.testbed.udr.migration_chunk_bytes = 32 * 1024;
  spec.testbed.udr.trace_sample_rate = trace_rate;
  spec.testbed.udr.obs_sample_interval_us = sample_interval;
  spec.duration = Seconds(4);
  spec.fe_rate_per_sec = 200.0;
  spec.ps_rate_per_sec = 10.0;
  spec.script.AttachStorm(Seconds(1), Seconds(1), /*events_per_tick=*/4);
  spec.script.ScaleOut(Seconds(2), /*site=*/1);
  spec.script.StartRebalance(Seconds(2) + Millis(100));
  const MicroTime at = spec.duration + Millis(1);
  spec.script.AssertSlo(at, SloCheck{SloKind::kZeroAckedWriteLoss,
                                     "zero-acked-write-loss", 0.0, -1});
  spec.script.AssertSlo(at, SloCheck{SloKind::kMigrationComplete,
                                     "migration-complete", 0.0, -1});
  return spec;
}

TEST(ObsScenarioTest, TracedReplayIsByteIdentical) {
  const ScenarioSpec spec = ObsSmoke(1.0, Millis(100));
  scenario::Engine first(spec);
  const std::string report1 = first.Run().Serialize();
  const std::string trace1 =
      first.testbed().udr().tracer()->ExportChromeJson();
  scenario::Engine second(spec);
  const std::string report2 = second.Run().Serialize();
  const std::string trace2 =
      second.testbed().udr().tracer()->ExportChromeJson();
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(report1, report2);
  EXPECT_EQ(trace1, trace2);
  // The sampler section made it into the serialized report.
  EXPECT_NE(report1.find("obs-series-begin"), std::string::npos);
  EXPECT_NE(report1.find("series counter router.routed"), std::string::npos);
}

TEST(ObsScenarioTest, TracingDoesNotPerturbTheModelledRun) {
  // Same spec, sampler off in both; one traced at 100%, one untraced. The
  // serialized reports (latencies, stats, SLOs) must be byte-identical —
  // the overhead gate of bench_obs_overhead relies on exactly this.
  const std::string traced =
      RunScenario(ObsSmoke(1.0, /*sample_interval=*/0)).Serialize();
  const std::string untraced =
      RunScenario(ObsSmoke(0.0, /*sample_interval=*/0)).Serialize();
  EXPECT_EQ(traced, untraced);
}

TEST(ObsScenarioTest, TraceCoversEveryMajorStage) {
  const ScenarioSpec spec = ObsSmoke(1.0, Millis(100));
  scenario::Engine engine(spec);
  const ScenarioReport report = engine.Run();
  EXPECT_TRUE(report.Passed());
  ASSERT_NE(engine.testbed().udr().tracer(), nullptr);
  const std::string json =
      engine.testbed().udr().tracer()->ExportChromeJson();
  for (const char* stage :
       {"\"event\"", "\"route.batch\"", "\"resolve\"", "\"dispatch\"",
        "\"replica.write\"", "\"replica.read\"", "\"coalesce.park\"",
        "\"coalesce.flush\"", "\"migration.chunk\"", "\"migration.cutover\""}) {
    EXPECT_NE(json.find(stage), std::string::npos) << "missing " << stage;
  }
}

/// The name of `span`'s parent within its trace ("" for a root span).
std::string ParentName(const std::vector<SpanRecord>& spans,
                       const SpanRecord& span) {
  for (const SpanRecord& s : spans) {
    if (s.trace_id == span.trace_id && s.span_id == span.parent_id) {
      return s.name;
    }
  }
  return "";
}

TEST(ObsTraceTest, PerOpSubmitRecordsTheFullSpanTree) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 5;
  o.udr.trace_sample_rate = 1.0;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
  Tracer* tracer = bed.udr().tracer();
  ASSERT_NE(tracer, nullptr);
  const ldap::Dn dn = ldap::SubscriberDn("imsi", bed.factory().Make(2).imsi);

  // One traced per-op event per verb kind: the read and the write leg.
  ldap::LdapRequest search;
  search.op = ldap::LdapOp::kSearch;
  search.dn = dn;
  ldap::LdapRequest modify;
  modify.op = ldap::LdapOp::kModify;
  modify.dn = dn;
  modify.mods.push_back(
      {ldap::ModType::kReplace, "serving-vlr", std::string("vlr7")});
  for (const ldap::LdapRequest& req : {search, modify}) {
    const size_t before = tracer->spans().size();
    ASSERT_TRUE(bed.udr().Submit(req, 0).ok());
    const std::vector<SpanRecord> spans(tracer->spans().begin() + before,
                                        tracer->spans().end());
    std::vector<std::string> edges;  // "parent>child", in record order.
    for (const SpanRecord& s : spans) {
      edges.push_back(ParentName(spans, s) + ">" + s.name);
    }
    const std::string leaf = req.op == ldap::LdapOp::kSearch
                                 ? "dispatch>replica.read"
                                 : "dispatch>replica.write";
    for (const std::string& edge :
         {std::string(">event"), std::string("event>route.batch"),
          std::string("route.batch>resolve"),
          std::string("route.batch>dispatch"), leaf}) {
      EXPECT_NE(std::find(edges.begin(), edges.end(), edge), edges.end())
          << "missing " << edge << " for " << ldap::LdapOpName(req.op);
    }
  }
}

TEST(ObsScenarioTest, FailingSloDumpsTheFlightRecorder) {
  ScenarioSpec spec = ObsSmoke(0.0, /*sample_interval=*/0);
  spec.script.KillSite(Seconds(1), 1);
  spec.script.RestoreSite(Seconds(3), 1);
  // An impossible bound forces the breach that triggers the dump.
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kFeAvailabilityMin,
                                 "fe-availability-min", 1.01, -1});
  const ScenarioReport report = RunScenario(spec);
  EXPECT_FALSE(report.Passed());
  ASSERT_FALSE(report.flight_dump.empty());
  // The dump carries the control-plane history leading to the breach: the
  // injected fault steps, the cluster flips and the failed evaluation.
  EXPECT_NE(report.flight_dump.find("kill-site"), std::string::npos);
  EXPECT_NE(report.flight_dump.find("[cluster]"), std::string::npos);
  EXPECT_NE(report.flight_dump.find("fail fe-availability-min"),
            std::string::npos);
  EXPECT_NE(report.Serialize().find("flight-recorder-begin"),
            std::string::npos);
}

TEST(ObsScenarioTest, PassingRunWithoutObsKeepsLegacySerialization) {
  const ScenarioReport report = RunScenario(ObsSmoke(0.0, 0));
  EXPECT_TRUE(report.Passed());
  const std::string s = report.Serialize();
  EXPECT_EQ(s.find("obs-series-begin"), std::string::npos);
  EXPECT_EQ(s.find("flight-recorder-begin"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sharded: per-shard tracers, driver-stamped sampling, race-free merge
// (TSan target)
// ---------------------------------------------------------------------------

TEST(ObsShardedTest, PerShardTracersMergeRaceFreeAfterJoin) {
  exec::ShardRuntimeOptions ro;
  ro.num_shards = 2;
  ro.shard.total_subscribers = 50;
  ro.shard.trace_sample_rate = 1.0;
  exec::ShardRuntime runtime(ro);
  runtime.Start();
  uint64_t seq = 0;
  int per_shard[2] = {0, 0};
  for (int i = 0; i < 300; ++i) {
    exec::ShardBatch batch;
    exec::ShardOp op;
    op.subscriber = static_cast<uint64_t>(i) % 50;
    op.seq = ++seq;
    op.write = (i % 3 == 0);
    batch.ops.push_back(op);
    const int shard = runtime.ShardOf(op.subscriber);
    ++per_shard[shard];
    runtime.Submit(std::move(batch), shard);
  }
  const auto& report = runtime.Finish();
  EXPECT_EQ(report.ops_done, 300);
  EXPECT_EQ(report.order_violations, 0);

  sim::SimClock scratch;
  Tracer merged(Tracer::Options{}, &scratch);
  runtime.MergeTracersInto(&merged);
  // Every handed-off batch (rate 1.0) opened exactly one shard.execute span
  // on its owning shard's tracer, lane = shard index.
  int execute_spans = 0;
  int lane_spans[2] = {0, 0};
  for (const SpanRecord& s : merged.spans()) {
    if (std::string(s.name) == "shard.execute") {
      ++execute_spans;
      ASSERT_LT(s.lane, 2u);
      ++lane_spans[s.lane];
    }
  }
  EXPECT_EQ(execute_spans, 300);
  EXPECT_EQ(lane_spans[0], per_shard[0]);
  EXPECT_EQ(lane_spans[1], per_shard[1]);
  // The merged export is well-formed and mentions both lanes.
  const std::string json = merged.ExportChromeJson();
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(ObsShardedTest, DriverStampingIsDeterministicAcrossRuns) {
  auto run = [] {
    exec::ShardRuntimeOptions ro;
    ro.num_shards = 2;
    ro.shard.total_subscribers = 40;
    ro.shard.trace_sample_rate = 0.25;
    exec::ShardRuntime runtime(ro);
    runtime.Start();
    uint64_t seq = 0;
    for (int i = 0; i < 200; ++i) {
      exec::ShardBatch batch;
      exec::ShardOp op;
      op.subscriber = static_cast<uint64_t>(i) % 40;
      op.seq = ++seq;
      op.write = (i % 2 == 0);
      batch.ops.push_back(op);
      runtime.Submit(std::move(batch), runtime.ShardOf(op.subscriber));
    }
    runtime.Finish();
    sim::SimClock scratch;
    Tracer merged(Tracer::Options{}, &scratch);
    runtime.MergeTracersInto(&merged);
    return merged.ExportChromeJson();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  // At 25% some batches are sampled and some are not (the decision rode the
  // handoff, it was not re-rolled per shard).
  EXPECT_NE(first.find("shard.execute"), std::string::npos);
}

}  // namespace
}  // namespace udr
