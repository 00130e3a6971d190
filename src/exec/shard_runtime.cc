#include "exec/shard_runtime.h"

#include <ctime>

namespace udr::exec {

namespace {

int64_t WallNowNs() {
  timespec ts;
  // lint:allow(wall-clock): throughput REPORTING of the real-concurrency
  // mode measures genuine elapsed time; no simulated behavior depends on it.
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

int64_t ThreadCpuNowNs() {
  timespec ts;
  // lint:allow(wall-clock): per-worker busy-CPU accounting is real time by
  // design (the CPU-basis scaling gate of bench_sharded_scale rides on it).
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

}  // namespace

ShardRuntime::ShardRuntime(const ShardRuntimeOptions& opts) : opts_(opts) {
  if (opts_.num_shards < 1) opts_.num_shards = 1;
  slicer_ = opts_.slice_map != nullptr
                ? std::make_unique<ShardSlicer>(opts_.slice_map,
                                                opts_.num_shards)
                : std::make_unique<ShardSlicer>(opts_.num_shards);
  queues_.reserve(opts_.num_shards);
  shards_.resize(opts_.num_shards);
  busy_ns_.assign(opts_.num_shards, 0);
  for (int i = 0; i < opts_.num_shards; ++i) {
    queues_.push_back(std::make_unique<SpscQueue<ShardBatch>>(
        opts_.queue_capacity));
  }
}

ShardRuntime::~ShardRuntime() {
  if (!finished_) Finish();
}

void ShardRuntime::Start() {
  workers_.reserve(opts_.num_shards);
  for (int i = 0; i < opts_.num_shards; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Provisioning barrier: don't let the driver submit into rings whose
  // shards are still being built.
  while (ready_.load(std::memory_order_acquire) < opts_.num_shards) {
    std::this_thread::yield();
  }
  // The wall clock covers traffic only: provisioning is set-up, not work
  // the throughput figures should be charged for.
  start_wall_ns_ = WallNowNs();
}

void ShardRuntime::WorkerLoop(int index) {
  // The Shard is created, provisioned, used and left on this thread —
  // everything it reaches (clock, network, partitions, replica sets,
  // coalescer) is thread-confined. shards_[index] is this worker's slot
  // only; the driver reads it after join.
  // Workers share the runtime's slicer (read-only, lock-free) so every
  // shard provisions and routes against the same slice boundary, including
  // the partition-aligned one.
  shards_[index] = std::make_unique<Shard>(index, slicer_.get(), opts_.shard);
  Shard& shard = *shards_[index];
  shard.Provision();
  ready_.fetch_add(1, std::memory_order_release);

  SpscQueue<ShardBatch>& queue = *queues_[index];
  int64_t busy = 0;
  ShardBatch batch;
  for (;;) {
    if (queue.TryPop(&batch)) {
      const int64_t t0 = ThreadCpuNowNs();
      shard.Execute(batch);
      busy += ThreadCpuNowNs() - t0;
      continue;
    }
    if (done_.load(std::memory_order_acquire)) {
      // End-of-stream is signalled before the final emptiness check, so a
      // batch pushed before done_ was set can't be missed.
      if (queue.TryPop(&batch)) {
        const int64_t t0 = ThreadCpuNowNs();
        shard.Execute(batch);
        busy += ThreadCpuNowNs() - t0;
        continue;
      }
      break;
    }
    std::this_thread::yield();
  }
  const int64_t t0 = ThreadCpuNowNs();
  shard.Drain();
  busy += ThreadCpuNowNs() - t0;
  busy_ns_[index] = busy;
}

void ShardRuntime::Submit(ShardBatch batch, int shard) {
  submitted_ += static_cast<int64_t>(batch.ops.size());
  if (opts_.shard.trace_sample_rate > 0) {
    // Driver-side stamping: trace ids come from one counter across every
    // shard, and the sampling decision is the same pure function the shard
    // tracers use — the handoff carries the decision, it doesn't re-roll it.
    const uint64_t id = ++trace_counter_;
    batch.trace.trace_id = id;
    batch.trace.span_id = 0;
    batch.trace.sampled = obs::Tracer::SampleDecision(
        opts_.shard.seed, id, opts_.shard.trace_sample_rate);
  }
  SpscQueue<ShardBatch>& queue = *queues_[shard];
  while (!queue.TryPush(std::move(batch))) {
    std::this_thread::yield();  // Back-pressure: ring full, consumer behind.
  }
}

const ShardRuntimeReport& ShardRuntime::Finish() {
  if (finished_) return report_;
  done_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  const int64_t wall_ns = WallNowNs() - start_wall_ns_;
  finished_ = true;

  report_ = ShardRuntimeReport{};
  report_.wall_ns = wall_ns;
  report_.ops_submitted = submitted_;
  for (int i = 0; i < opts_.num_shards; ++i) {
    const Shard& shard = *shards_[i];
    ShardReport r;
    r.ops = shard.stats().ops;
    r.ok = shard.stats().ok;
    r.failed = shard.stats().failed;
    r.batches = shard.stats().batches;
    r.order_violations = shard.stats().order_violations;
    r.provisioned = shard.provisioned();
    r.busy_ns = busy_ns_[i];
    report_.ops_done += r.ops;
    report_.ops_failed += r.failed;
    report_.order_violations += r.order_violations;
    report_.aggregate_ops_per_sec += r.ops_per_busy_sec();
    report_.shards.push_back(r);
  }
  if (wall_ns > 0) {
    report_.wall_ops_per_sec =
        report_.ops_done * 1e9 / static_cast<double>(wall_ns);
  }
  report_.ops_per_sec_per_core =
      report_.aggregate_ops_per_sec / opts_.num_shards;
  return report_;
}

void ShardRuntime::MergeMetricsInto(Metrics* out) const {
  for (const auto& shard : shards_) {
    if (shard) out->MergeFrom(shard->udr().metrics());
  }
}

void ShardRuntime::MergeTracersInto(obs::Tracer* out) const {
  for (const auto& shard : shards_) {
    if (shard && shard->udr().tracer() != nullptr) {
      out->MergeFrom(*shard->udr().tracer());
    }
  }
}

}  // namespace udr::exec
