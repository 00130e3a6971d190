#include "workload/sharded_traffic.h"

#include <utility>
#include <vector>

#include "common/rng.h"

namespace udr::workload {

ShardedTrafficReport RunShardedTraffic(const TrafficOptions& opts,
                                       const routing::PartitionMap* slice_map) {
  exec::ShardRuntimeOptions ro;
  ro.num_shards = opts.num_shards;
  ro.shard.total_subscribers = opts.subscriber_count;
  ro.shard.seed = opts.seed;
  ro.slice_map = slice_map;

  exec::ShardRuntime runtime(ro);
  runtime.Start();

  // Per-subscriber sequence stamping: next_seq feeds the shard's order
  // check (monotonic per key across reads and writes); last_write remembers
  // what the master copy must hold at the end.
  std::vector<uint64_t> next_seq(opts.subscriber_count, 0);
  std::vector<uint64_t> last_write(opts.subscriber_count, 0);
  std::vector<exec::ShardBatch> buffers(
      static_cast<size_t>(ro.num_shards < 1 ? 1 : ro.num_shards));
  const size_t batch_ops =
      opts.sharded_batch_ops < 1 ? 1 : static_cast<size_t>(opts.sharded_batch_ops);

  Rng rng(opts.seed ^ 0x5ca1ab1eULL);
  for (int64_t i = 0; i < opts.sharded_total_ops; ++i) {
    exec::ShardOp op;
    op.subscriber = rng.Uniform(opts.subscriber_count);
    op.seq = ++next_seq[op.subscriber];
    op.write = rng.Uniform(1000) <
               static_cast<uint64_t>(opts.sharded_write_fraction * 1000.0);
    if (op.write) last_write[op.subscriber] = op.seq;
    const int shard = runtime.ShardOf(op.subscriber);
    exec::ShardBatch& buf = buffers[shard];
    buf.ops.push_back(op);
    if (buf.ops.size() >= batch_ops) {
      runtime.Submit(std::move(buf), shard);
      buf = exec::ShardBatch{};
      buf.ops.reserve(batch_ops);
    }
  }
  for (int shard = 0; shard < ro.num_shards; ++shard) {
    if (!buffers[shard].ops.empty()) {
      runtime.Submit(std::move(buffers[shard]), shard);
    }
  }

  ShardedTrafficReport report;
  report.runtime = runtime.Finish();

  // End-state verification: the master copy of every written subscriber must
  // hold the driver's LAST write — per-key order survived the ring, the
  // dispatch window and the replica set.
  for (uint64_t sub = 0; sub < opts.subscriber_count; ++sub) {
    if (last_write[sub] == 0) continue;
    auto stored = runtime.shard(runtime.ShardOf(sub)).ReadSeq(sub);
    ++report.verified_subscribers;
    if (!stored || static_cast<uint64_t>(*stored) != last_write[sub]) {
      ++report.seq_mismatches;
    }
  }
  return report;
}

}  // namespace udr::workload
