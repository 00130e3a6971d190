// udrbench: measures one workload of the UDR simulator end to end (tracing
// off) or layer by layer (--trace 1), checks its outputs, prints every
// metric by name with its unit and basis, and writes them as JSON.
//
//   udrbench --workload fe_inline --seed 1 --seconds 10 --trace 0
//            [--json out.json] [--spans trace.json] [--scale 1]
//            [--check-stream]
//
// run.py builds this binary and drives it; see README.md for the workloads,
// the metrics and how to compare two commits.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/table.h"
#include "layers.h"
#include "workload/sharded_traffic.h"
#include "workloads.h"

namespace udrbench {
namespace {

using udr::Table;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string json_path;
  std::string spans_path;
  bool check_stream = false;
};

/// One reported number. `basis` says what it measures: host_wall, host_cpu,
/// modelled (deterministic sim output) or count.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string basis;
  int64_t samples = -1;  ///< Sample count behind a percentile (-1: n/a).
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;
  std::map<std::string, double> shares;  ///< Layer self-time share of e2e.
  /// Per measured round: set-up s, traffic s, events (or sharded ops).
  std::vector<std::vector<double>> rounds;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median of the best quarter of per-round values (the faster rounds; for
/// times, the shorter ones), at least one value. Other jobs on a shared
/// host only ever slow a round down, and they do so in bursts of seconds,
/// so the best quarter estimates the undisturbed cost while still being a
/// median rather than a single best case. On ten-seed sets taken while the
/// host was busy, it spread 6-11% where the better half's median spread
/// 9-17%; on quiet sets the two agree.
double BestQuarterMedian(std::vector<double> v, bool higher_is_better) {
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  v.resize(std::max<size_t>(1, v.size() / 4));
  return Median(v);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Add(Outcome* out, std::string name, double value, std::string unit,
         std::string basis, int64_t samples = -1) {
  out->metrics.push_back(
      {std::move(name), value, std::move(unit), std::move(basis), samples});
}

/// Modelled latency percentiles of one traffic class. p99.9 is reported as
/// the highest percentile that leaves at least ten samples beyond it.
void AddModelled(Outcome* out, const std::string& prefix,
                 const udr::workload::ClassStats& c, bool with_p999) {
  const int64_t n = c.latency.count();
  Add(out, prefix + "_p50_us", static_cast<double>(c.latency.P50()), "us",
      "modelled", n);
  Add(out, prefix + "_p99_us", static_cast<double>(c.latency.P99()), "us",
      "modelled", n);
  if (with_p999) {
    Add(out, prefix + "_p999_us", static_cast<double>(c.latency.P999()), "us",
        "modelled", n);
  }
}

void CheckDigests(const std::vector<uint64_t>& digests, Outcome* out) {
  for (uint64_t d : digests) {
    if (d != digests.front()) {
      out->failures.push_back("model digest differs across repeats: " +
                              Hex(digests.front()) + " vs " + Hex(d));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

/// Repeats `run` (one round) until `seconds` of traffic time is measured,
/// at least eight times so the best quarter holds two; checks every round's
/// outcome and model digest and adds the three end-to-end host metrics.
/// Returns the first round.
template <typename Round, typename Run>
Round RunRounds(const Options& o, Run run, Outcome* out) {
  Table rounds("rounds: " + o.workload, {"round", "setup_s", "traffic_s",
                                          "events", "events/s", "digest"});
  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<uint64_t> digests;
  Round first;
  int64_t peak_rss = 0;
  double measured = 0;
  for (int r = 0; r < 8 || (measured < o.seconds && r < 1000); ++r) {
    Round round = run();
    measured += round.traffic_s;
    setup.push_back(round.setup_s);
    rate.push_back(static_cast<double>(round.events) / round.traffic_s);
    digests.push_back(round.digest);
    out->rounds.push_back(
        {round.setup_s, round.traffic_s, static_cast<double>(round.events)});
    rounds.AddRow({std::to_string(r), Fmt(round.setup_s), Fmt(round.traffic_s),
                   Table::Num(round.events), Fmt(rate.back(), 0),
                   Hex(round.digest)});
    out->attempted += round.events;
    out->failed += round.failed;
    for (const std::string& f : round.failures) {
      out->failures.push_back("round " + std::to_string(r) + ": " + f);
    }
    if (r == 0) {
      // One round is one simulator run: its peak is what a user's process
      // needs. Later rounds reuse freed heap and would only add allocator
      // noise.
      peak_rss = PeakRssBytes();
      first = std::move(round);
    }
  }
  rounds.Print();
  CheckDigests(digests, out);
  out->digest = Hex(digests.front());
  Add(out, "events_per_s", BestQuarterMedian(rate, true), "events/s",
      "host_wall");
  Add(out, "setup_s", BestQuarterMedian(setup, false), "s", "host_wall");
  Add(out, "peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB",
      "host_wall");
  return first;
}

void RunEngineUntraced(const Options& o, Outcome* out) {
  const udr::scenario::ScenarioSpec spec = EngineSpec(o.workload, o.seed, o.scale);
  const EngineRound first =
      RunRounds<EngineRound>(o, [&] { return RunEngineRound(spec); }, out);
  const udr::scenario::ScenarioStats& s = first.report.stats;
  const udr::workload::ClassStats fe = s.FeAll();
  AddModelled(out, "fe", fe, /*with_p999=*/true);
  AddModelled(out, "ps", s.ps, /*with_p999=*/false);
  Add(out, "failed_fraction",
      static_cast<double>(first.failed) / static_cast<double>(first.events),
      "ratio", "count");
  Add(out, "stale_read_fraction",
      static_cast<double>(fe.stale_procedures) /
          static_cast<double>(std::max<int64_t>(1, fe.attempted)),
      "ratio", "count");
}

void RunShardedUntraced(const Options& o, Outcome* out) {
  const ShardedShape shape = ShardedSpec(o.seed, o.scale);
  const ShardedRound first = RunRounds<ShardedRound>(
      o, [&] { return RunShardedRound(shape, /*time_submits=*/false); }, out);
  Add(out, "failed_fraction",
      static_cast<double>(first.failed) / static_cast<double>(first.events),
      "ratio", "count");
  // ShardRuntimeReport::wall_ops_per_sec starts its clock at Start(), so it
  // folds per-shard provisioning into the throughput.
  std::printf("\nround 0: %.0f ops/s over the traffic phase; the runtime "
              "report says %.0f ops/s (its clock includes %.4f s of set-up)\n",
              static_cast<double>(first.events) / first.traffic_s,
              first.runtime.wall_ops_per_sec, first.setup_s);
  for (size_t i = 0; i < first.runtime.shards.size(); ++i) {
    const udr::exec::ShardReport& sh = first.runtime.shards[i];
    std::printf("  shard %zu: %lld ops, busy %.1f%% of the traffic phase\n", i,
                static_cast<long long>(sh.ops),
                100.0 * static_cast<double>(sh.busy_ns) /
                    (first.traffic_s * 1e9));
  }
}

/// The copied sharded op stream must agree with workload::RunShardedTraffic.
void CheckShardedStream(const Options& o, Outcome* out) {
  const ShardedShape shape = ShardedSpec(o.seed, o.scale);
  udr::workload::TrafficOptions t;
  t.num_shards = shape.shards;
  t.subscriber_count = shape.subscribers;
  t.seed = shape.seed;
  t.sharded_total_ops = shape.ops;
  t.sharded_write_fraction = shape.write_fraction;
  t.sharded_batch_ops = shape.batch_ops;
  const udr::workload::ShardedTrafficReport ref =
      udr::workload::RunShardedTraffic(t);
  const ShardedRound mine = RunShardedRound(shape, /*time_submits=*/false);
  bool same = ref.runtime.ops_done == mine.runtime.ops_done &&
              ref.seq_mismatches == 0 && mine.seq_mismatches == 0 &&
              ref.verified_subscribers == mine.verified_subscribers &&
              ref.runtime.shards.size() == mine.runtime.shards.size();
  for (size_t i = 0; same && i < ref.runtime.shards.size(); ++i) {
    same = ref.runtime.shards[i].ops == mine.runtime.shards[i].ops &&
           ref.runtime.shards[i].ok == mine.runtime.shards[i].ok;
  }
  std::printf("\nsharded op stream vs workload::RunShardedTraffic: %s "
              "(ops_done %lld vs %lld, seq_mismatches %lld vs %lld)\n",
              same ? "PASS" : "FAIL",
              static_cast<long long>(ref.runtime.ops_done),
              static_cast<long long>(mine.runtime.ops_done),
              static_cast<long long>(ref.seq_mismatches),
              static_cast<long long>(mine.seq_mismatches));
  if (!same) {
    out->failures.push_back("sharded op stream drifted from RunShardedTraffic");
  }
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------------

/// Modelled self time per span name: span duration minus the union of its
/// children's intervals (all on the sim clock).
std::map<std::string, udr::Histogram> SpanSelfTimes(
    const std::vector<udr::obs::SpanRecord>& spans) {
  std::map<std::pair<uint32_t, uint64_t>, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) {
      children[{spans[i].lane, spans[i].parent_id}].push_back(i);
    }
  }
  std::map<std::string, udr::Histogram> self;
  for (const udr::obs::SpanRecord& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find({s.lane, s.span_id});
    if (it != children.end()) {
      for (size_t c : it->second) {
        const int64_t a = std::max(s.start, spans[c].start);
        const int64_t b = std::min(s.end, spans[c].end);
        if (b > a) cover.push_back({a, b});
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start;
    for (const auto& [a, b] : cover) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[s.name].Record(s.end - s.start - covered);
  }
  return self;
}

/// Modelled p99 of FE/PS root spans that started while migration ran.
int64_t ForegroundP99During(const std::vector<udr::obs::SpanRecord>& spans,
                            const LayerCounters& c) {
  udr::Histogram h;
  if (c.migration_end_us <= c.migration_start_us) return 0;
  for (const udr::obs::SpanRecord& s : spans) {
    if (s.parent_id == 0 && std::strcmp(s.name, "event") == 0 &&
        s.start >= c.migration_start_us && s.start < c.migration_end_us) {
      h.Record(s.end - s.start);
    }
  }
  return h.P99();
}

void AddModelSelfTimes(const std::vector<udr::obs::SpanRecord>& spans,
                       const LayerCounters& c, Outcome* out) {
  const std::map<std::string, udr::Histogram> self = SpanSelfTimes(spans);
  Table t("modelled stage self time (program spans, sim us)",
          {"span", "count", "self p50", "self p99", "self total"});
  for (const auto& [name, h] : self) {
    t.AddRow({name, Table::Num(h.count()), Table::Num(h.P50()),
              Table::Num(h.P99()), Table::Num(h.sum())});
  }
  t.Print();
  const std::pair<const char*, const char*> stages[] = {
      {"model.resolve_us.p99", "resolve"},
      {"model.replica_read_us.p99", "replica.read"},
      {"model.replica_write_us.p99", "replica.write"},
      {"model.coalesce_park_us.p99", "coalesce.park"},
      {"model.migration_chunk_us.p99", "migration.chunk"},
  };
  for (const auto& [metric, span] : stages) {
    auto it = self.find(span);
    const bool have = it != self.end();
    Add(out, metric, have ? static_cast<double>(it->second.P99()) : 0.0, "us",
        "modelled", have ? it->second.count() : 0);
  }
  Add(out, "migration.fg_p99_during_us",
      static_cast<double>(ForegroundP99During(spans, c)), "us", "modelled");
}

/// Exec-layer metrics from one sharded round whose Submit calls were timed.
void AddExecMetrics(const ShardedRound& sr, Outcome* out) {
  int64_t busy = 0;
  for (const auto& s : sr.runtime.shards) busy += s.busy_ns;
  const double wall_ns = sr.traffic_s * 1e9;
  const double shards = static_cast<double>(sr.runtime.shards.size());
  Add(out, "exec.submit_ns_per_batch",
      static_cast<double>(sr.submit_total_ns) /
          static_cast<double>(std::max<int64_t>(1, sr.submits)),
      "ns", "host_wall", sr.submits);
  Add(out, "exec.submit.p50_ns", static_cast<double>(sr.submit_ns.P50()), "ns",
      "host_wall", sr.submits);
  Add(out, "exec.submit.p99_ns", static_cast<double>(sr.submit_ns.P99()), "ns",
      "host_wall", sr.submits);
  Add(out, "exec.submit_stall_frac",
      static_cast<double>(sr.submit_total_ns) / wall_ns, "ratio", "host_wall");
  Add(out, "exec.worker_busy_frac", static_cast<double>(busy) / (shards * wall_ns),
      "ratio", "host_cpu");
  Add(out, "exec.ops_per_worker_busy_s",
      static_cast<double>(sr.events) / (static_cast<double>(busy) / 1e9), "ops/s",
      "host_cpu");
}

/// One row of the layer ladder: a boundary and the boundaries directly
/// below it on the workload's path.
struct Rung {
  std::string boundary;
  std::vector<std::string> below;
};

double Total(const ReplayResult& r, const std::string& b) {
  auto it = r.boundaries.find(b);
  return it == r.boundaries.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}
double PerCall(const ReplayResult& r, const std::string& b) {
  auto it = r.boundaries.find(b);
  return it == r.boundaries.end() ? 0.0 : it->second.NsPerCall();
}

/// Prints the replay's boundary table and layer ladder and adds the
/// replay-derived per-layer metrics. `e2e_ns_per_event` is the untraced host
/// ns per event of the same workload. Returns the host self ns per call of
/// the layers the emphasis matrix follows.
std::map<std::string, double> AddReplayMetrics(const ReplayResult& r,
                                               bool batched,
                                               double e2e_ns_per_event,
                                               bool sharded, Outcome* out) {
  Table b("host ns per boundary call (replay: " + Table::Num(r.procedures) +
              " procedures, " + Table::Num(r.ops) + " ops, " +
              std::to_string(r.passes) + " pass(es); timer overhead " +
              std::to_string(r.timer_overhead_ns) + " ns removed)",
          {"boundary", "calls", "mean", "p50", "p99"});
  for (const auto& [name, s] : r.boundaries) {
    b.AddRow({name, Table::Num(s.calls), Fmt(s.NsPerCall(), 1),
              Table::Num(s.ns.P50()), Table::Num(s.ns.P99())});
    Add(out, name + ".p50_ns", static_cast<double>(s.ns.P50()), "ns",
        "host_wall", s.calls);
    Add(out, name + ".p99_ns", static_cast<double>(s.ns.P99()), "ns",
        "host_wall", s.calls);
  }
  b.Print();

  const double procs = static_cast<double>(r.procedures * r.passes);
  const double ops = static_cast<double>(r.ops * r.passes);
  auto per_proc = [&](const std::string& name) { return Total(r, name) / procs; };
  // The batched path hands a procedure to RouteBatch; the per-op path
  // resolves and reads itself. Both project read attributes in udr.
  const std::string udr_boundary = batched ? "udr.process_batch" : "udr.process";
  const std::vector<std::string> data_path = {
      "location.resolve", "replication.read", "replication.write"};
  std::vector<std::string> below_udr = {"storage.find"};
  if (batched) {
    below_udr.push_back("routing.route_batch");
  } else {
    below_udr.insert(below_udr.end(), data_path.begin(), data_path.end());
  }
  std::vector<Rung> ladder = {{"telecom.procedure", {udr_boundary}},
                              {udr_boundary, below_udr}};
  if (batched) ladder.push_back({"routing.route_batch", data_path});
  ladder.push_back({"location.resolve", {}});
  ladder.push_back({"replication.read", {}});
  ladder.push_back({"replication.write", {"storage.apply", "storage.log_append"}});
  ladder.push_back({"storage.find", {}});
  ladder.push_back({"storage.apply", {}});
  ladder.push_back({"storage.log_append", {}});

  Table t("layer ladder (host ns per procedure; self = boundary - boundaries below)",
          {"boundary", "ns/procedure", "below", "self ns/procedure"});
  double self_sum = 0;
  for (const Rung& rung : ladder) {
    double self = per_proc(rung.boundary);
    std::string names;
    for (const std::string& n : rung.below) {
      self -= per_proc(n);
      names += (names.empty() ? "" : " + ") + n;
    }
    self_sum += self;
    t.AddRow({rung.boundary, Fmt(per_proc(rung.boundary), 1), names,
              Fmt(self, 1)});
  }
  // The window path: the coalescer over RouteBatch of its aggregate batches.
  const double coalescer_self =
      Total(r, "coalescer.event") - Total(r, "routing.route_window");
  t.AddRow({"coalescer.event (window path)", Fmt(per_proc("coalescer.event"), 1),
            "routing.route_window", Fmt(coalescer_self / procs, 1)});
  const double residual = sharded ? 0.0 : e2e_ns_per_event - self_sum;
  if (!sharded) {
    t.AddRow({"sum of self", Fmt(self_sum, 1), "", ""});
    t.AddRow({"end-to-end ns/event", Fmt(e2e_ns_per_event, 1), "", ""});
    t.AddRow({"residual (engine loop + verifier)", Fmt(residual, 1), "", ""});
    t.AddRow({"  of which SubscriberFactory::Make",
              Fmt(per_proc("scenario.subscriber_make"), 1), "", ""});
  }
  t.Print();

  const double per_op_self =
      (Total(r, "udr.process") - Total(r, "location.resolve") -
       Total(r, "replication.read") - Total(r, "replication.write") -
       Total(r, "storage.find")) / ops;
  const double batch_self = (Total(r, "udr.process_batch") -
                             Total(r, "routing.route_batch") -
                             Total(r, "storage.find")) / ops;
  const double routing_self =
      (Total(r, "routing.route_batch") - Total(r, "location.resolve") -
       Total(r, "replication.read") - Total(r, "replication.write")) / ops;
  const double catchup_entries =
      static_cast<double>(std::max<int64_t>(1, r.catchup_entries));

  Add(out, "storage.find_ns", PerCall(r, "storage.find"), "ns", "host_wall");
  Add(out, "storage.apply_ns", PerCall(r, "storage.apply"), "ns", "host_wall");
  Add(out, "storage.log_append_ns", PerCall(r, "storage.log_append"), "ns",
      "host_wall");
  Add(out, "replication.write_ns_per_txn", PerCall(r, "replication.write"),
      "ns", "host_wall");
  Add(out, "replication.read_ns_per_op", PerCall(r, "replication.read"), "ns",
      "host_wall");
  Add(out, "replication.catchup_ns_per_entry",
      Total(r, "replication.catchup") / catchup_entries, "ns", "host_wall",
      r.catchup_entries);
  Add(out, "location.resolve_ns", PerCall(r, "location.resolve"), "ns",
      "host_wall");
  Add(out, "routing.route_ns_per_op", Total(r, "routing.route_batch") / ops,
      "ns", "host_wall");
  Add(out, "routing.self_ns_per_op", routing_self, "ns", "host_wall");
  Add(out, "coalescer.ns_per_op", Total(r, "coalescer.event") / ops, "ns",
      "host_wall");
  Add(out, "coalescer.self_ns_per_op", coalescer_self / ops, "ns", "host_wall");
  Add(out, "udr.process_ns_per_op", PerCall(r, "udr.process"), "ns",
      "host_wall");
  Add(out, "udr.process_batch_ns_per_op", Total(r, "udr.process_batch") / ops,
      "ns", "host_wall");
  Add(out, "udr.self_ns_per_op", batched ? batch_self : per_op_self, "ns",
      "host_wall");
  Add(out, "udr.create_ns", PerCall(r, "udr.create"), "ns", "host_wall");
  Add(out, "telecom.procedure_ns", PerCall(r, "telecom.procedure"), "ns",
      "host_wall");
  Add(out, "scenario.subscriber_make_ns",
      PerCall(r, "scenario.subscriber_make"), "ns", "host_wall");
  Add(out, "migration.ship_ns_per_chunk", PerCall(r, "migration.ship_chunk"),
      "ns", "host_wall");
  if (!sharded) {
    Add(out, "scenario.residual_ns_per_event", residual, "ns", "host_wall");
  }
  return {{"udr.per_op", per_op_self},
          {"routing", routing_self},
          {"location", PerCall(r, "location.resolve")},
          {"coalescer", coalescer_self / ops},
          {"replication.write", PerCall(r, "replication.write")},
          {"migration", PerCall(r, "migration.ship_chunk")}};
}

/// Each layer's share of the end-to-end host time: its self ns per call
/// (from the replay) x its calls per event in the real run / e2e ns per
/// event.
std::map<std::string, double> Shares(
    const std::map<std::string, double>& self_per_call, const LayerCounters& c,
    int64_t events, double e2e_ns) {
  const double ev = static_cast<double>(std::max<int64_t>(1, events));
  const std::map<std::string, double> calls_per_event = {
      {"udr.per_op", static_cast<double>(c.per_op_calls) / ev},
      {"routing", static_cast<double>(c.route_batch_ops) / ev},
      {"location", static_cast<double>(c.routed_ops) / ev},
      {"coalescer", static_cast<double>(c.flushes) * c.ops_per_flush / ev},
      {"replication.write", static_cast<double>(c.replica_writes) / ev},
      {"migration", static_cast<double>(c.migration_chunks) / ev},
  };
  std::map<std::string, double> shares;
  for (const auto& [layer, calls] : calls_per_event) {
    shares[layer] = self_per_call.at(layer) * calls / e2e_ns;
  }
  return shares;
}

void AddCounterMetrics(const LayerCounters& c, Outcome* out) {
  Add(out, "storage.model_bytes_per_sub",
      static_cast<double>(c.store_bytes) /
          static_cast<double>(std::max<int64_t>(1, c.subscribers)),
      "B", "modelled");
  Add(out, "replication.stale_reads", static_cast<double>(c.stale_reads),
      "count", "count");
  Add(out, "replication.degraded_commits",
      static_cast<double>(c.degraded_commits), "count", "count");
  Add(out, "routing.groups_per_batch", c.groups_per_batch, "count", "count");
  const int64_t lookups = c.cache_hits + c.cache_misses;
  Add(out, "routing.cache_hit_rate",
      lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0, "ratio",
      "count");
  Add(out, "routing.cache_wasted_inserts",
      c.cache_insertions > 0
          ? static_cast<double>(c.cache_invalidations) / c.cache_insertions
          : 0.0,
      "ratio", "count");
  Add(out, "coalescer.ops_per_flush", c.ops_per_flush, "count", "count");
  Add(out, "coalescer.queue_delay_us.p99",
      static_cast<double>(c.queue_delay_p99_us), "us", "modelled");
  Add(out, "migration.bytes_moved", static_cast<double>(c.migration_bytes),
      "B", "count");
  Add(out, "migration.drain_sim_s", c.migration_drain_s, "s", "modelled");
}

/// Spans retained stay under the tracer's cap: a round of `units` traced
/// units emitting ~`spans_per_unit` spans each keeps half of 2^20.
double TraceRate(int64_t units, double spans_per_unit) {
  const double rate = 0.5 * (1 << 20) / (spans_per_unit * static_cast<double>(units));
  return std::clamp(rate, 0.01, 1.0);
}

/// Untraced / traced round pairs of a traced run.
constexpr int kTracedPairs = 3;

/// Alternates untraced and traced rounds so drift on the host hits both
/// alike, checks that their model digests agree, and adds the metrics of the
/// traced run itself: storage.rss_bytes_per_sub, obs.trace_overhead_frac,
/// the modelled stage self times and the counter metrics. `traced(plain,
/// spans)` runs the traced twin of `plain`, merging its program spans into
/// `spans` when that is non-null. Returns the first untraced round; *e2e_ns
/// gets the untraced host ns per event.
template <typename Round, typename Plain, typename Traced>
Round RunTracedPairs(Plain plain_fn, Traced traced_fn, Outcome* out,
                     double* e2e_ns) {
  const int64_t rss0 = CurrentRssBytes();
  udr::sim::SimClock clock;
  udr::obs::Tracer::Options topt;
  topt.max_spans = 1 << 23;
  udr::obs::Tracer spans(topt, &clock);
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<uint64_t> digests;
  Round base;
  for (int r = 0; r < kTracedPairs; ++r) {
    Round plain = plain_fn();
    if (r == 0) {
      Add(out, "storage.rss_bytes_per_sub",
          static_cast<double>(PeakRssBytes() - rss0) /
              static_cast<double>(std::max<int64_t>(1, plain.counters.subscribers)),
          "B", "host_wall");
    }
    Round traced = traced_fn(plain, r == 0 ? &spans : nullptr);
    plain_s.push_back(plain.traffic_s);
    traced_s.push_back(traced.traffic_s);
    digests.push_back(plain.digest);
    digests.push_back(traced.digest);
    for (const Round* round : {&plain, &traced}) {
      out->attempted += round->events;
      out->failed += round->failed;
      for (const std::string& f : round->failures) out->failures.push_back(f);
    }
    if (r == 0) base = std::move(plain);
  }
  CheckDigests(digests, out);
  out->digest = Hex(digests.front());
  const double plain = BestQuarterMedian(plain_s, false);
  const double overhead = BestQuarterMedian(traced_s, false) / plain - 1.0;
  *e2e_ns = plain * 1e9 / static_cast<double>(base.events);
  std::printf("\ntraffic phase %.4f s untraced, %+.1f%% traced; %zu program "
              "spans kept\n",
              plain, overhead * 100, spans.spans().size());
  Add(out, "obs.trace_overhead_frac", overhead, "ratio", "host_wall");
  AddModelSelfTimes(spans.spans(), base.counters, out);
  AddCounterMetrics(base.counters, out);
  return base;
}

ReplayResult Replay(const ReplayMix& mix, const Options& o) {
  ReplayMix m = mix;
  m.procedures = std::max<int64_t>(1000, static_cast<int64_t>(100000 * o.scale));
  // The replay gets the traced run's measuring budget; one pass at least.
  const ReplayResult r = ReplayLayers(m, o.seed, o.seconds);
  if (!o.spans_path.empty()) {
    std::ofstream f(o.spans_path);
    f << r.host_trace_json;
  }
  return r;
}

void RunEngineTraced(const Options& o, Outcome* out) {
  const udr::scenario::ScenarioSpec spec = EngineSpec(o.workload, o.seed, o.scale);
  double e2e_ns = 0;
  const EngineRound base = RunTracedPairs<EngineRound>(
      [&] { return RunEngineRound(spec); },
      [&](const EngineRound& plain, udr::obs::Tracer* spans) {
        return RunEngineRound(EngineSpec(o.workload, o.seed, o.scale,
                                         TraceRate(plain.events, 8.0)),
                              spans);
      },
      out, &e2e_ns);

  ReplayMix mix;
  mix.spec = spec;
  const udr::scenario::ScenarioStats& s = base.report.stats;
  mix.ps_share = static_cast<double>(s.ps.attempted) / base.events;
  mix.storm_share = static_cast<double>(s.fe_storm.attempted) / base.events;
  const ReplayResult replay = Replay(mix, o);
  if (replay.failed_ops != 0) {
    out->failures.push_back(std::to_string(replay.failed_ops) +
                            " ops failed in the layer replay");
  }
  const std::map<std::string, double> self =
      AddReplayMetrics(replay, spec.batched, e2e_ns, /*sharded=*/false, out);
  out->shares = Shares(self, base.counters, base.events, e2e_ns);

  // The exec layer has no engine path: measure it on a small sharded run of
  // the same seed so every workload reports it.
  const ShardedRound exec =
      RunShardedRound(ShardedSpec(o.seed, 0.1 * o.scale), /*time_submits=*/true);
  for (const std::string& f : exec.failures) out->failures.push_back("exec: " + f);
  AddExecMetrics(exec, out);
  out->shares["exec"] = 0.0;
}

void RunShardedTraced(const Options& o, Outcome* out) {
  const ShardedShape shape = ShardedSpec(o.seed, o.scale);
  double e2e_ns = 0;
  const ShardedRound base = RunTracedPairs<ShardedRound>(
      [&] { return RunShardedRound(shape, /*time_submits=*/true); },
      [&](const ShardedRound&, udr::obs::Tracer* spans) {
        ShardedShape traced = shape;
        traced.trace_rate = TraceRate(
            shape.ops / std::max(1, shape.batch_ops * shape.shards), 6.0);
        return RunShardedRound(traced, /*time_submits=*/false, spans);
      },
      out, &e2e_ns);

  // The engine layers on the op stream of one shard's slice: a one-site
  // deployment shaped like a shard, driven by the FE procedure mix.
  ReplayMix mix;
  mix.spec = ShardSliceSpec(shape);
  const ReplayResult replay = Replay(mix, o);
  if (replay.failed_ops != 0) {
    out->failures.push_back(std::to_string(replay.failed_ops) +
                            " ops failed in the layer replay");
  }
  const std::map<std::string, double> self =
      AddReplayMetrics(replay, /*batched=*/true, e2e_ns, /*sharded=*/true, out);
  AddExecMetrics(base, out);
  // The producer thread's own loop (op generation, slicing) outside Submit.
  const double submit_ns_per_op = static_cast<double>(base.submit_total_ns) /
                                  static_cast<double>(base.events);
  Add(out, "scenario.residual_ns_per_event", e2e_ns - submit_ns_per_op, "ns",
      "host_wall");
  // Shares on a CPU basis: the shards run in parallel, so their work is
  // measured against every thread's time, not the wall.
  int64_t busy_ns = 0;
  for (const auto& s : base.runtime.shards) busy_ns += s.busy_ns;
  const double cpu_ns_per_op =
      (static_cast<double>(busy_ns) + base.traffic_s * 1e9) /
      static_cast<double>(base.events);
  out->shares = Shares(self, base.counters, base.events, cpu_ns_per_op);
  out->shares["exec"] = submit_ns_per_op / cpu_ns_per_op;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const Outcome& out, bool trace) {
  Table t(trace ? "per-layer metrics" : "end-to-end metrics",
          {"metric", "value", "unit", "basis", "samples"});
  for (const Metric& m : out.metrics) {
    t.AddRow({m.name, Fmt(m.value), m.unit, m.basis,
              m.samples >= 0 ? Table::Num(m.samples) : ""});
  }
  t.Print();
  if (!out.shares.empty()) {
    Table s("self-time share of end-to-end host time (emphasis matrix input)",
            {"layer", "share"});
    for (const auto& [layer, v] : out.shares) s.AddRow({layer, Fmt(v, 5)});
    s.Print();
  }
}

bool WriteJson(const Options& o, const Outcome& out, bool correct) {
  if (o.json_path.empty()) return true;
  udr::bench::RunMeta meta;
  meta.seed = o.seed;
  meta.knobs = {{"workload", JsonString(o.workload)},
                {"trace", o.trace ? "1" : "0"},
                {"seconds", JsonNumber(o.seconds)},
                {"scale", JsonNumber(o.scale)}};
  FILE* f = udr::bench::OpenJson(o.json_path, "udrbench", meta);
  if (f == nullptr) return false;
  std::fprintf(f, "  \"workload\": %s,\n", JsonString(o.workload).c_str());
  std::fprintf(f, "  \"correct\": %s,\n", correct ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %lld,\n",
               static_cast<long long>(out.attempted));
  std::fprintf(f, "  \"failed\": %lld,\n", static_cast<long long>(out.failed));
  std::fprintf(f, "  \"model_digest\": %s,\n", JsonString(out.digest).c_str());
  std::fprintf(f, "  \"failures\": [");
  for (size_t i = 0; i < out.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(out.failures[i]).c_str());
  }
  std::fprintf(f, "],\n  \"rounds\": [");
  for (size_t r = 0; r < out.rounds.size(); ++r) {
    std::fprintf(f, "%s[", r ? ", " : "");
    for (size_t k = 0; k < out.rounds[r].size(); ++k) {
      std::fprintf(f, "%s%s", k ? ", " : "", JsonNumber(out.rounds[r][k]).c_str());
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "],\n  \"shares\": {");
  size_t i = 0;
  for (const auto& [layer, v] : out.shares) {
    std::fprintf(f, "%s%s: %s", i++ ? ", " : "", JsonString(layer).c_str(),
                 JsonNumber(v).c_str());
  }
  std::fprintf(f, "},\n  \"metrics\": {\n");
  for (size_t k = 0; k < out.metrics.size(); ++k) {
    const Metric& m = out.metrics[k];
    std::fprintf(f, "    %s: {\"value\": %s, \"unit\": %s, \"basis\": %s",
                 JsonString(m.name).c_str(), JsonNumber(m.value).c_str(),
                 JsonString(m.unit).c_str(), JsonString(m.basis).c_str());
    if (m.samples >= 0) {
      std::fprintf(f, ", \"samples\": %lld", static_cast<long long>(m.samples));
    }
    std::fprintf(f, "}%s\n", k + 1 < out.metrics.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  udr::bench::CloseJson(f, o.json_path, "udrbench", correct);
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--check-stream") {
      o->check_stream = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") o->workload = v;
    else if (a == "--seed") o->seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o->seconds = std::atof(v);
    else if (a == "--trace") o->trace = std::atoi(v) != 0;
    else if (a == "--scale") o->scale = std::atof(v);
    else if (a == "--json") o->json_path = v;
    else if (a == "--spans") o->spans_path = v;
    else return false;
  }
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), o->workload) != names.end() &&
         o->scale > 0 && o->seconds >= 0;
}

}  // namespace
}  // namespace udrbench

int main(int argc, char** argv) {
  using namespace udrbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: udrbench --workload {fe_inline|storm_coalesced|"
                 "provision_rebalance|sharded} [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale F] [--json PATH] [--spans PATH] "
                 "[--check-stream]\n");
    return 2;
  }
  std::printf("udrbench workload=%s seed=%llu seconds=%g scale=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.scale, o.trace ? 1 : 0);
  Outcome out;
  const bool engine = IsEngineWorkload(o.workload);
  if (!o.trace) {
    engine ? RunEngineUntraced(o, &out) : RunShardedUntraced(o, &out);
  } else {
    engine ? RunEngineTraced(o, &out) : RunShardedTraced(o, &out);
  }
  if (o.check_stream && !engine) CheckShardedStream(o, &out);
  PrintMetrics(out, o.trace);
  const bool correct = out.failures.empty() && out.failed == 0;
  std::printf("\ncorrectness: %s (model digest %s)\n", correct ? "PASS" : "FAIL",
              out.digest.c_str());
  for (const std::string& f : out.failures) std::printf("  FAIL %s\n", f.c_str());
  if (!WriteJson(o, out, correct)) return 1;
  return correct ? 0 : 1;
}
