// Tests for the sharded multi-threaded execution mode (src/exec/): SPSC ring
// ordering under a real producer/consumer thread pair, shard confinement +
// per-key order through the runtime, the post-join handoff of each shard's
// metrics and data path to the driver, sharded-vs-single-shard end-state
// equivalence, and wall-clock accounting that leaves provisioning out. This file is the TSan
// target of ci.sh: every test here must be race-free under
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/shard.h"
#include "exec/shard_runtime.h"
#include "exec/spsc_queue.h"
#include "location/identity.h"
#include "routing/partition_map.h"
#include "telecom/subscriber.h"
#include "workload/sharded_traffic.h"
#include "workload/testbed.h"

namespace udr::exec {
namespace {

// ---------------------------------------------------------------------------
// SPSC handoff ring
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  SpscQueue<int> one(1);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(SpscQueueTest, RejectsPushWhenFullAndPopWhenEmpty) {
  SpscQueue<int> q(2);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // Full.
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(3));  // Slot freed.
}

TEST(SpscQueueTest, FifoAcrossThreadsUnderStress) {
  // One producer, one consumer, a deliberately tiny ring so wraparound and
  // full/empty transitions happen constantly. The consumer must observe
  // 0..N-1 in exact order — any reordering or loss is a memory-ordering bug.
  constexpr int kItems = 200000;
  SpscQueue<int> q(64);
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (!q.TryPush(std::move(v))) std::this_thread::yield();
    }
  });
  int expected = 0;
  int out = 0;
  while (expected < kItems) {
    if (q.TryPop(&out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(&out));
}

// ---------------------------------------------------------------------------
// Shard hashing
// ---------------------------------------------------------------------------

TEST(ShardTest, SubscriberShardingIsTotalAndBalanced) {
  // Every subscriber lands on exactly one shard, and every shard holds its
  // fair share to within 5%: the busiest shard bounds the sharded run's
  // throughput, so an uneven split wastes the other workers.
  constexpr uint64_t kSubs = 20000;
  for (const int shards : {2, 3, 4, 8}) {
    std::vector<int64_t> per_shard(shards, 0);
    for (uint64_t s = 0; s < kSubs; ++s) {
      const int shard = ShardSlicer(shards).ShardOf(s);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shards);
      ++per_shard[shard];
    }
    const double fair = static_cast<double>(kSubs) / shards;
    for (int i = 0; i < shards; ++i) {
      EXPECT_NEAR(static_cast<double>(per_shard[i]), fair, 0.05 * fair)
          << "shard " << i << " of " << shards;
    }
  }
  EXPECT_EQ(ShardSlicer(1).ShardOf(123), 0);
}

TEST(ShardSlicerTest, PartitionAlignedShardOwnsWholePartitions) {
  // The scenario-harness contract: sliced against a real PartitionMap, a
  // shard's subscriber set is a union of whole partitions — every subscriber
  // maps to the shard that owns its actual partition, never across it.
  workload::TestbedOptions to;
  to.sites = 2;
  to.subscribers = 300;
  to.udr.se_per_cluster = 2;
  to.udr.partitions_per_se = 2;
  workload::Testbed bed(to);
  const routing::PartitionMap& map = bed.udr().partition_map();
  constexpr int kShards = 3;
  ShardSlicer slicer(&map, kShards);
  EXPECT_TRUE(slicer.partition_aligned());

  telecom::SubscriberFactory factory(0);
  for (uint64_t sub = 0; sub < 300; ++sub) {
    const location::Identity id{location::IdentityType::kImsi,
                                factory.ImsiOf(sub)};
    EXPECT_EQ(slicer.ShardOf(sub),
              slicer.ShardOfPartition(map.PartitionOfIdentity(id)))
        << "subscriber " << sub << " crossed its partition's shard";
  }

  // Round-robin deal: 2 sites x 2 SEs x 2 partitions = 8 live partitions
  // spread over 3 shards, so every shard owns at least two.
  std::vector<int> owned(kShards, 0);
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    if (map.partition_retired(p)) continue;
    const int shard = slicer.ShardOfPartition(p);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++owned[shard];
  }
  for (int s = 0; s < kShards; ++s) EXPECT_GE(owned[s], 2) << "shard " << s;
}

// ---------------------------------------------------------------------------
// Sharded runtime end to end
// ---------------------------------------------------------------------------

workload::TrafficOptions SmallShardedRun(int num_shards) {
  workload::TrafficOptions opts;
  opts.subscriber_count = 200;
  opts.seed = 11;
  opts.num_shards = num_shards;
  opts.sharded_total_ops = 4000;
  opts.sharded_write_fraction = 0.4;
  opts.sharded_batch_ops = 8;
  return opts;
}

TEST(ShardRuntimeTest, TwoShardsExecuteEverythingInOrder) {
  auto report = workload::RunShardedTraffic(SmallShardedRun(2));
  EXPECT_EQ(report.runtime.shards.size(), 2u);
  EXPECT_EQ(report.runtime.ops_done, 4000);
  EXPECT_EQ(report.runtime.ops_done, report.runtime.ops_submitted);
  EXPECT_EQ(report.runtime.ops_failed, 0);
  EXPECT_EQ(report.runtime.order_violations, 0);
  EXPECT_GT(report.verified_subscribers, 0);
  EXPECT_EQ(report.seq_mismatches, 0);
  EXPECT_TRUE(report.ok());
  // Both shards got real work and real provisioned populations.
  int64_t provisioned = 0;
  for (const auto& shard : report.runtime.shards) {
    EXPECT_GT(shard.ops, 0);
    EXPECT_GT(shard.provisioned, 0);
    EXPECT_GT(shard.busy_ns, 0);
    provisioned += shard.provisioned;
  }
  EXPECT_EQ(provisioned, 200);
  EXPECT_GT(report.runtime.aggregate_ops_per_sec, 0.0);
}

TEST(ShardRuntimeTest, ShardedMatchesSingleShardFinalState) {
  // The same op stream must leave every subscriber's master copy in the same
  // final state whether it ran on 1 shard or 4 — sharding changes WHERE work
  // runs, never WHAT it computes.
  auto single = workload::RunShardedTraffic(SmallShardedRun(1));
  auto sharded = workload::RunShardedTraffic(SmallShardedRun(4));
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(single.runtime.ops_done, sharded.runtime.ops_done);
  EXPECT_EQ(single.verified_subscribers, sharded.verified_subscribers);
  // Both verified against the same driver-side expected sequence, so equal
  // verified counts with zero mismatches IS state equivalence.
}

TEST(ShardRuntimeTest, PartitionAlignedShardingRunsUnderScenarioMap) {
  // Regression for the scenario-harness integration: sharded mode sliced
  // from a real PartitionMap (the same substrate scenario::Engine drives)
  // must execute a full run with zero order violations and the exact same
  // end-state guarantee as hash slicing. Workers share one read-only slicer.
  workload::TestbedOptions to;
  to.sites = 2;
  to.seed = 11;
  to.subscribers = 200;
  to.udr.se_per_cluster = 2;
  to.udr.partitions_per_se = 2;
  workload::Testbed bed(to);

  auto report = workload::RunShardedTraffic(SmallShardedRun(3),
                                            &bed.udr().partition_map());
  EXPECT_EQ(report.runtime.shards.size(), 3u);
  EXPECT_EQ(report.runtime.ops_done, 4000);
  EXPECT_EQ(report.runtime.ops_failed, 0);
  EXPECT_EQ(report.runtime.order_violations, 0);
  EXPECT_EQ(report.seq_mismatches, 0);
  EXPECT_TRUE(report.ok());
  // The whole population is provisioned exactly once across the slices: the
  // shards agreed on partition-aligned ownership with no gap or overlap.
  int64_t provisioned = 0;
  for (const auto& shard : report.runtime.shards) {
    EXPECT_GT(shard.provisioned, 0) << "a shard got no partitions";
    provisioned += shard.provisioned;
  }
  EXPECT_EQ(provisioned, 200);
}

TEST(ShardRuntimeTest, FinishHandsEachShardToTheDriver) {
  // Each shard's registry is confined to its worker until Finish() joins
  // it; from then on the driver owns it. MergeMetricsInto must then equal
  // the sum of the shards' own counters, and the driver's post-join
  // ReadSeq (a routed read that bumps the router's counters) must pass
  // the owner check that a use before the handoff would fail.
  exec::ShardRuntimeOptions ro;
  ro.num_shards = 3;
  ro.shard.total_subscribers = 60;
  exec::ShardRuntime runtime(ro);
  runtime.Start();
  std::vector<uint64_t> last_write(60, 0);
  uint64_t seq = 0;
  for (int i = 0; i < 600; ++i) {
    ShardOp op;
    op.subscriber = static_cast<uint64_t>(i * 7) % 60;
    op.seq = ++seq;
    op.write = (i % 2 == 0);
    if (op.write) last_write[op.subscriber] = op.seq;
    ShardBatch batch;
    batch.ops.push_back(op);
    runtime.Submit(std::move(batch), runtime.ShardOf(op.subscriber));
  }
  const auto& report = runtime.Finish();
  ASSERT_EQ(report.ops_done, 600);

  Metrics merged;
  runtime.MergeMetricsInto(&merged);
  std::map<std::string, int64_t> summed;
  for (int i = 0; i < ro.num_shards; ++i) {
    const Metrics& own = runtime.shard(i).udr().metrics();
    for (const auto& [name, value] : own.counters()) summed[name] += value;
  }
  EXPECT_EQ(merged.counters(), summed);
  EXPECT_GT(merged.Get("router.routed"), 0);

  for (uint64_t sub = 0; sub < 60; ++sub) {
    if (last_write[sub] == 0) continue;
    EXPECT_EQ(runtime.shard(runtime.ShardOf(sub)).ReadSeq(sub),
              static_cast<int64_t>(last_write[sub]))
        << "subscriber " << sub;
  }
}

TEST(ShardRuntimeTest, WallClockExcludesProvisioning) {
  // wall_ns is the traffic phase only: with nothing submitted after a large
  // provisioning pass, it must stay below the time Start() itself took.
  exec::ShardRuntimeOptions ro;
  ro.num_shards = 2;
  ro.shard.total_subscribers = 20000;
  exec::ShardRuntime runtime(ro);
  const auto t0 = std::chrono::steady_clock::now();
  runtime.Start();
  const int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  const auto& report = runtime.Finish();
  EXPECT_EQ(report.ops_done, 0);
  EXPECT_LT(report.wall_ns, start_ns);
}

TEST(ShardRuntimeTest, BackpressureSurvivesTinyRings) {
  // A 2-slot ring forces the driver to spin on a full ring constantly; the
  // run must still complete exactly, proving the blocking Submit path.
  exec::ShardRuntimeOptions ro;
  ro.num_shards = 2;
  ro.queue_capacity = 2;
  ro.shard.total_subscribers = 50;
  exec::ShardRuntime runtime(ro);
  runtime.Start();
  uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    ShardBatch batch;
    ShardOp op;
    op.subscriber = static_cast<uint64_t>(i) % 50;
    op.seq = ++seq;  // Globally increasing => per-subscriber increasing.
    op.write = (i % 3 == 0);
    batch.ops.push_back(op);
    runtime.Submit(std::move(batch), runtime.ShardOf(op.subscriber));
  }
  const auto& report = runtime.Finish();
  EXPECT_EQ(report.ops_done, 500);
  EXPECT_EQ(report.ops_failed, 0);
  EXPECT_EQ(report.order_violations, 0);
}

/// Spins until shard `shard`'s worker has parked more than `seen` times.
void AwaitPark(const ShardRuntime& runtime, int shard, int64_t seen) {
  while (runtime.parks(shard) <= seen) std::this_thread::yield();
}

TEST(ShardRuntimeTest, ParkedWorkersWakeForEverySubmitAndFinish) {
  // Each single batch lands on a worker that is asleep, and the test then
  // waits for that worker to park again, which it can only do after waking
  // and draining its ring. The waits have no deadline on purpose: a lost
  // wake-up hangs here (or in Finish's join) until ctest's TIMEOUT kills the
  // test, so it cannot pass silently.
  constexpr int kShards = 2;
  constexpr int kCycles = 200;
  constexpr int kBatchesPerCycle = 8;
  constexpr uint64_t kSubs = 16;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    exec::ShardRuntimeOptions ro;
    ro.num_shards = kShards;
    ro.shard.total_subscribers = kSubs;
    exec::ShardRuntime runtime(ro);
    runtime.Start();
    std::vector<int64_t> parks(kShards, 0);
    for (int shard = 0; shard < kShards; ++shard) {
      AwaitPark(runtime, shard, 0);
      parks[shard] = runtime.parks(shard);
    }
    uint64_t seq = 0;
    for (int i = 0; i < kBatchesPerCycle; ++i) {
      ShardOp op;
      op.subscriber = static_cast<uint64_t>(i) % kSubs;
      op.seq = ++seq;
      op.write = true;
      const int shard = runtime.ShardOf(op.subscriber);
      ShardBatch batch;
      batch.ops.push_back(op);
      runtime.Submit(std::move(batch), shard);
      AwaitPark(runtime, shard, parks[shard]);
      parks[shard] = runtime.parks(shard);
    }
    // Every worker is asleep again: Finish must wake each one to drain.
    const auto& report = runtime.Finish();
    EXPECT_EQ(report.ops_done, kBatchesPerCycle);
    EXPECT_EQ(report.order_violations, 0);
    int64_t reported_parks = 0;
    for (const auto& shard : report.shards) reported_parks += shard.parks;
    EXPECT_GE(reported_parks, kShards + kBatchesPerCycle);
  }
}

}  // namespace
}  // namespace udr::exec
