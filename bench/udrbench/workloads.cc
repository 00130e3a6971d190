#include "workloads.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"

namespace udrbench {

using udr::MicroDuration;
using udr::scenario::ScenarioSpec;
using udr::scenario::SloCheck;
using udr::scenario::SloKind;

namespace {

int64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atoll(line.c_str() + prefix.size());
    }
  }
  return 0;
}

/// Pins the threads a ShardRuntime starts to a CPU each from the moment
/// they exist, and the calling thread (the producer) to the last CPU it may
/// use; the destructor restores the caller's CPU set, which the next
/// round's workers inherit. Start() spawns its workers back to back, and
/// left to the scheduler they were at times stacked on one CPU for their
/// whole provisioning: Start() then took 0.15-0.25 s instead of 0.07 s, so
/// set-up time swung 2x with the host's state. A watcher thread polls
/// /proc/self/task until it has pinned `workers` new threads.
class OnePerCpu {
 public:
  explicit OnePerCpu(int workers) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    restore_ = true;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
    caller_ = gettid();
    Pin(0, cpus_.size() - 1);
    watcher_ = std::thread([this, workers] { Watch(workers); });
  }
  ~OnePerCpu() {
    stop_.store(true);
    if (watcher_.joinable()) watcher_.join();
    if (restore_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OnePerCpu(const OnePerCpu&) = delete;
  OnePerCpu& operator=(const OnePerCpu&) = delete;

 private:
  void Pin(pid_t tid, size_t k) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    (void)sched_setaffinity(tid, sizeof(one), &one);
  }

  void Watch(int workers) {
    std::vector<pid_t> seen = {caller_, gettid()};
    size_t pinned = 0;
    while (pinned < static_cast<size_t>(workers) && !stop_.load()) {
      if (DIR* dir = opendir("/proc/self/task")) {
        while (const dirent* e = readdir(dir)) {
          const pid_t tid = static_cast<pid_t>(std::atol(e->d_name));
          if (tid <= 0 ||
              std::find(seen.begin(), seen.end(), tid) != seen.end()) {
            continue;
          }
          seen.push_back(tid);
          Pin(tid, pinned++);
        }
        closedir(dir);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  cpu_set_t saved_{};
  bool restore_ = false;
  std::vector<int> cpus_;  ///< The caller's CPUs; non-empty once restore_.
  pid_t caller_ = 0;
  std::atomic<bool> stop_{false};
  std::thread watcher_;
};

/// The deployment every engine workload shares, mirroring the standard
/// scenarios (scenario/scenarios.cc): three sites, one blade cluster each,
/// two SEs per cluster, two partitions per SE, replication factor 3,
/// subscribers pinned to home sites, slave reads for FE traffic, async.
ScenarioSpec Deployment(const std::string& name, uint64_t seed,
                        int64_t subscribers, MicroDuration horizon) {
  ScenarioSpec spec;
  spec.name = name;
  spec.testbed.sites = 3;
  spec.testbed.seed = seed;
  spec.testbed.subscribers = subscribers;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 3;
  spec.testbed.udr.se_per_cluster = 2;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.duration = horizon;
  spec.ims_fraction = 0.15;
  spec.ps_site = 0;
  return spec;
}

/// The invariant rows every engine workload must pass, just past the
/// traffic horizon (windows flushed, migration drained).
void AddCoreSlos(ScenarioSpec* spec) {
  const udr::MicroTime at = spec->duration + udr::Millis(1);
  spec->script.AssertSlo(
      at, SloCheck{SloKind::kZeroAckedWriteLoss, "zero-acked-write-loss"});
  spec->script.AssertSlo(at, SloCheck{SloKind::kPerKeyOrder, "per-key-order"});
  spec->script.AssertSlo(at, SloCheck{SloKind::kPsStaleZero, "ps-stale-zero"});
}

int64_t Scaled(int64_t base, double scale, int64_t floor) {
  return std::max(floor, static_cast<int64_t>(std::llround(base * scale)));
}

/// Adds one deployment's population, modelled record bytes, replica-set
/// counters and migration tasks into `c`.
void AddDeploymentCounters(udr::udrnf::UdrNf& udr, LayerCounters* c) {
  c->subscribers += udr.SubscriberCount();
  for (uint32_t i = 0; i < udr.cluster_count(); ++i) {
    for (const auto& se : udr.cluster(i)->storage_elements()) {
      c->store_bytes += se->store().ApproxBytes();
    }
  }
  for (uint32_t p = 0; p < udr.partition_count(); ++p) {
    c->stale_reads += udr.partition(p)->stale_reads();
    c->degraded_commits += udr.partition(p)->degraded_commits();
    c->replica_writes += udr.partition(p)->writes_accepted();
  }
  for (const auto& task : udr.migration_scheduler().tasks()) {
    c->migration_bytes += task.bytes_moved;
    if (c->migration_end_us == 0 || task.started < c->migration_start_us) {
      c->migration_start_us = task.started;
    }
    c->migration_end_us = std::max<int64_t>(c->migration_end_us, task.finished);
  }
  c->migration_drain_s =
      static_cast<double>(c->migration_end_us - c->migration_start_us) / 1e6;
}

/// Fills the counters the data path keeps in its metrics registry.
void ReadMetricCounters(const udr::Metrics& m, LayerCounters* c) {
  c->batch_ops = m.Get("udr.batch.ops");
  c->routed_ops = m.Get("router.routed");
  c->route_batch_ops = m.Get("router.batch.ops");
  c->groups_per_batch = m.HistOrEmpty("router.batch.groups").Mean();
  c->cache_hits = m.Get("router.cache.hits");
  c->cache_misses = m.Get("router.cache.misses");
  c->cache_insertions = m.Get("router.cache.insertions");
  c->cache_invalidations = m.Get("router.cache.invalidations");
  const udr::Histogram& flush_ops = m.HistOrEmpty("coalescer.flush.ops");
  c->flushes = flush_ops.count();
  c->ops_per_flush = flush_ops.Mean();
  c->queue_delay_p99_us = m.HistOrEmpty("coalescer.queue_delay_us").P99();
  c->migration_chunks = m.HistOrEmpty("migration.chunk_bytes").count();
}

void Fail(std::vector<std::string>* failures, std::string what) {
  failures->push_back(std::move(what));
}

}  // namespace

int64_t PeakRssBytes() { return ProcStatusKb("VmHWM") * 1024; }
int64_t CurrentRssBytes() { return ProcStatusKb("VmRSS") * 1024; }

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : bytes) {
    h = (h ^ ch) * 0x100000001b3ULL;
  }
  return h;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "fe_inline", "storm_coalesced", "provision_rebalance", "sharded"};
  return kNames;
}

bool IsEngineWorkload(const std::string& name) {
  return name == "fe_inline" || name == "storm_coalesced" ||
         name == "provision_rebalance";
}

ScenarioSpec EngineSpec(const std::string& name, uint64_t seed, double scale,
                        double trace_rate) {
  ScenarioSpec spec;
  if (name == "fe_inline") {
    // Unbatched per-op LDAP path, uniform draw: host time goes to the verb
    // path (UdrNf::Process), the location stage and single-op replica reads.
    spec = Deployment(name, seed, Scaled(20000, scale, 300),
                      Scaled(udr::Millis(2500), scale, udr::Millis(100)));
    spec.fe_rate_per_sec = 20000;
    spec.ps_rate_per_sec = 500;
  } else if (name == "storm_coalesced") {
    // Batched FE through 200 us / 64-op PoA windows with heat tracking and a
    // PoA cache under a Zipf 0.99 draw, plus an attach storm over the last
    // third: host time goes to the coalescer, RouteBatch and the cache. The
    // cache-on-miss location stage resolves hot identities by hash lookup,
    // which keeps the location stage a minor cost here (the fe_inline
    // contrast). The storm runs to the end of the horizon because only storm
    // events wait in the PoA window: a subscriber's direct UpdateLocation
    // right after a storm can overtake its own parked one, which the
    // per-key-order row counts (seed 91 of a middle-third storm did).
    spec = Deployment(name, seed, Scaled(20000, scale, 300),
                      Scaled(udr::Seconds(2), scale, udr::Millis(90)));
    spec.fe_rate_per_sec = 15000;
    spec.ps_rate_per_sec = 500;
    spec.batched = true;
    spec.zipf_theta = 0.99;
    spec.testbed.udr.location_kind = udr::udrnf::LocationKind::kCached;
    spec.testbed.udr.coalesce_window_us = udr::Micros(200);
    spec.testbed.udr.coalesce_max_ops = 64;
    spec.testbed.udr.heat_tracking = true;
    spec.testbed.udr.poa_cache_bytes = 4 * 1024 * 1024;
    spec.script.AttachStorm(spec.duration - spec.duration / 3,
                            spec.duration / 3, /*events_per_tick=*/4);
  } else if (name == "provision_rebalance") {
    // Write-heavy batched PS traffic under dual-sequence replication while a
    // population-weighted rebalance onto a scaled-out cluster drains in the
    // background: host time goes to WriteBatch sync, log append, store apply
    // and migration chunk shipping.
    spec = Deployment(name, seed, Scaled(20000, scale, 300),
                      Scaled(udr::Seconds(4), scale, udr::Millis(160)));
    spec.fe_rate_per_sec = 4000;
    spec.ps_rate_per_sec = 16000;
    spec.batched = true;
    spec.testbed.udr.sync_mode = udr::replication::SyncMode::kDualSequence;
    spec.testbed.udr.rebalance_weight =
        udr::routing::RebalanceWeight::kPopulation;
    spec.testbed.udr.migration_chunk_bytes = 32 * 1024;
    // Moved bytes and horizon both scale with the population, so a fixed
    // cap keeps migration in flight for the same share of the horizon.
    spec.testbed.udr.migration_bandwidth_bps = 3 * 1024 * 1024;
    spec.script.ScaleOut(spec.duration / 5, /*site=*/2);
    spec.script.StartRebalance(spec.duration / 4);
    spec.script.AssertSlo(spec.duration + udr::Millis(1),
                          SloCheck{SloKind::kMigrationComplete,
                                   "migration-complete"});
  } else {
    return spec;  // Not an engine workload: empty name.
  }
  spec.testbed.udr.trace_sample_rate = trace_rate;
  AddCoreSlos(&spec);
  return spec;
}

ShardedShape ShardedSpec(uint64_t seed, double scale) {
  ShardedShape shape;
  shape.subscribers =
      static_cast<uint64_t>(Scaled(static_cast<int64_t>(shape.subscribers),
                                   scale, 300));
  shape.ops = Scaled(shape.ops, scale, 20000);
  shape.seed = seed;
  return shape;
}

ScenarioSpec ShardSliceSpec(const ShardedShape& shape) {
  const udr::exec::ShardOptions shard;
  ScenarioSpec spec;
  spec.name = "sharded-slice";
  spec.testbed.sites = 1;
  spec.testbed.seed = shape.seed;
  spec.testbed.subscribers = static_cast<int64_t>(
      shape.subscribers / static_cast<uint64_t>(std::max(1, shape.shards)));
  spec.testbed.udr.replication_factor = shard.replication_factor;
  spec.testbed.udr.se_per_cluster = shard.se_per_cluster;
  spec.testbed.udr.partitions_per_se = shard.partitions_per_se;
  spec.testbed.udr.coalesce_window_us = shard.dispatch_window;
  spec.testbed.udr.coalesce_max_ops = static_cast<int>(shard.dispatch_max_ops);
  spec.batched = true;
  // One handoff batch per shard tick.
  spec.fe_rate_per_sec = 1e6 / static_cast<double>(shard.tick);
  spec.ps_rate_per_sec = 0;
  return spec;
}

EngineRound RunEngineRound(const ScenarioSpec& spec, udr::obs::Tracer* spans) {
  EngineRound round;
  const int64_t t0 = NowNs();
  auto engine = std::make_unique<udr::scenario::Engine>(spec);
  const int64_t t1 = NowNs();
  round.report = engine->Run();
  const int64_t t2 = NowNs();
  round.setup_s = static_cast<double>(t1 - t0) / 1e9;
  round.traffic_s = static_cast<double>(t2 - t1) / 1e9;

  const udr::scenario::ScenarioStats& s = round.report.stats;
  round.events = s.fe_read.attempted + s.fe_write.attempted + s.ps.attempted;
  round.failed = s.fe_read.failed + s.fe_write.failed + s.ps.failed;

  udr::udrnf::UdrNf& udr = engine->testbed().udr();
  AddDeploymentCounters(udr, &round.counters);
  ReadMetricCounters(udr.metrics(), &round.counters);
  const int64_t ldap_ops =
      s.fe_read.ldap_ops + s.fe_write.ldap_ops + s.ps.ldap_ops;
  round.counters.per_op_calls = ldap_ops - round.counters.batch_ops;
  if (spans != nullptr && udr.tracer() != nullptr) {
    spans->MergeFrom(*udr.tracer());
  }

  // The model digest covers only modelled outcomes: the sampler series and
  // a flight-recorder dump are observability output, not model state.
  udr::scenario::ScenarioReport model = round.report;
  model.obs_series.clear();
  model.flight_dump.clear();
  round.digest = Fnv1a(model.Serialize());

  std::vector<std::string> required = {"zero-acked-write-loss",
                                       "per-key-order", "ps-stale-zero"};
  for (const auto& step : spec.script.steps()) {
    if (step.kind == udr::scenario::StepKind::kAssertSlo &&
        step.slo.kind == SloKind::kMigrationComplete) {
      required.push_back(step.slo.label);
    }
  }
  for (const std::string& label : required) {
    bool passed = false;
    for (const auto& r : round.report.slos) {
      if (r.check.label == label) passed = r.pass;
    }
    if (!passed) Fail(&round.failures, "SLO row " + label + " did not pass");
  }
  if (round.failed != 0) {
    Fail(&round.failures, std::to_string(round.failed) + " failed procedures");
  }
  if (round.events == 0) Fail(&round.failures, "no events ran");
  return round;
}

ShardedRound RunShardedRound(const ShardedShape& shape, bool time_submits,
                             udr::obs::Tracer* spans) {
  ShardedRound round;
  udr::exec::ShardRuntimeOptions ro;
  ro.num_shards = shape.shards;
  ro.shard.total_subscribers = shape.subscribers;
  ro.shard.seed = shape.seed;
  ro.shard.trace_sample_rate = shape.trace_rate;
  udr::exec::ShardRuntime runtime(ro);

  const OnePerCpu pinned(shape.shards);
  const int64_t t0 = NowNs();
  runtime.Start();
  const int64_t t1 = NowNs();

  // The op stream and end-state verification of workload::RunShardedTraffic,
  // restated so Start() (set-up) and Submit..Finish (traffic) time apart.
  // The smoke run checks this copy against RunShardedTraffic op for op.
  const uint64_t n = shape.subscribers;
  std::vector<uint64_t> next_seq(n, 0);
  std::vector<uint64_t> last_write(n, 0);
  std::vector<udr::exec::ShardBatch> buffers(
      static_cast<size_t>(std::max(1, shape.shards)));
  const size_t batch_ops = static_cast<size_t>(std::max(1, shape.batch_ops));
  const uint64_t write_permille =
      static_cast<uint64_t>(shape.write_fraction * 1000.0);
  auto submit = [&](udr::exec::ShardBatch&& batch, int shard) {
    if (!time_submits) {
      runtime.Submit(std::move(batch), shard);
      return;
    }
    const int64_t s = NowNs();
    runtime.Submit(std::move(batch), shard);
    const int64_t d = NowNs() - s;
    round.submit_ns.Record(d);
    round.submit_total_ns += d;
    ++round.submits;
  };
  udr::Rng rng(shape.seed ^ 0x5ca1ab1eULL);
  for (int64_t i = 0; i < shape.ops; ++i) {
    udr::exec::ShardOp op;
    op.subscriber = rng.Uniform(n);
    op.seq = ++next_seq[op.subscriber];
    op.write = rng.Uniform(1000) < write_permille;
    if (op.write) last_write[op.subscriber] = op.seq;
    const int shard = runtime.ShardOf(op.subscriber);
    udr::exec::ShardBatch& buf = buffers[shard];
    buf.ops.push_back(op);
    if (buf.ops.size() >= batch_ops) {
      submit(std::move(buf), shard);
      buf = udr::exec::ShardBatch{};
    }
  }
  for (int shard = 0; shard < shape.shards; ++shard) {
    if (!buffers[shard].ops.empty()) submit(std::move(buffers[shard]), shard);
  }
  round.runtime = runtime.Finish();
  const int64_t t2 = NowNs();
  round.setup_s = static_cast<double>(t1 - t0) / 1e9;
  round.traffic_s = static_cast<double>(t2 - t1) / 1e9;

  for (uint64_t sub = 0; sub < n; ++sub) {
    if (last_write[sub] == 0) continue;
    auto stored = runtime.shard(runtime.ShardOf(sub)).ReadSeq(sub);
    ++round.verified_subscribers;
    if (!stored || static_cast<uint64_t>(*stored) != last_write[sub]) {
      ++round.seq_mismatches;
    }
  }
  round.events = round.runtime.ops_done;
  round.failed = round.runtime.ops_failed;
  round.order_violations = round.runtime.order_violations;

  udr::Metrics merged;
  runtime.MergeMetricsInto(&merged);
  ReadMetricCounters(merged, &round.counters);
  for (int i = 0; i < shape.shards; ++i) {
    AddDeploymentCounters(runtime.shard(i).udr(), &round.counters);
  }
  if (spans != nullptr) runtime.MergeTracersInto(spans);

  std::ostringstream model;
  for (const auto& s : round.runtime.shards) {
    model << "shard ops=" << s.ops << " ok=" << s.ok << " failed=" << s.failed
          << " batches=" << s.batches << " order=" << s.order_violations
          << " provisioned=" << s.provisioned << "\n";
  }
  model << "verified=" << round.verified_subscribers
        << " mismatches=" << round.seq_mismatches << "\n";
  round.digest = Fnv1a(model.str());

  if (round.events != shape.ops) {
    Fail(&round.failures, "ops_done " + std::to_string(round.events) +
                              " != submitted " + std::to_string(shape.ops));
  }
  if (round.failed != 0) {
    Fail(&round.failures, std::to_string(round.failed) + " failed ops");
  }
  if (round.order_violations != 0) {
    Fail(&round.failures,
         std::to_string(round.order_violations) + " order violations");
  }
  if (round.seq_mismatches != 0) {
    Fail(&round.failures,
         std::to_string(round.seq_mismatches) + " seq mismatches");
  }
  return round;
}

}  // namespace udrbench
