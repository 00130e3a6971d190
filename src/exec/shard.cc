#include "exec/shard.h"

#include <cassert>
#include <utility>
#include <variant>

#include "routing/batch.h"
#include "routing/partition_map.h"
#include "sim/topology.h"

namespace udr::exec {

namespace {

constexpr char kSeqAttr[] = "shard-seq";

/// Jump consistent hash (Lamping & Veach, arXiv:1406.2294): the bucket in
/// [0, buckets) that `key` lands in, each with an equal share of keys.
int JumpHash(uint64_t key, int buckets) {
  int64_t b = -1;
  int64_t j = 0;
  while (j < buckets) {
    b = j;
    key = key * 2862933555777941757ULL + 1;
    j = static_cast<int64_t>(static_cast<double>(b + 1) *
                             (static_cast<double>(1LL << 31) /
                              static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<int>(b);
}

}  // namespace

// IMSIs are seed-independent, so any factory agrees with the workload's.
ShardSlicer::ShardSlicer(int num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards), factory_(0) {}

ShardSlicer::ShardSlicer(const routing::PartitionMap* map, int num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards), factory_(0), map_(map) {
  // Deal live partitions round-robin across shards in id order: the shard
  // boundary follows the data path's own partition boundary, and the mapping
  // is a pure function of map state (deterministic replay).
  partition_shard_.assign(map_->partition_count(), -1);
  int next = 0;
  for (uint32_t id = 0; id < map_->partition_count(); ++id) {
    if (map_->partition_retired(id)) continue;
    partition_shard_[id] = next++ % num_shards_;
  }
}

int ShardSlicer::ShardOfPartition(uint32_t partition) const {
  return partition < partition_shard_.size() ? partition_shard_[partition] : -1;
}

int ShardSlicer::ShardOf(uint64_t subscriber) const {
  if (num_shards_ <= 1) return 0;
  const location::Identity id{location::IdentityType::kImsi,
                              factory_.ImsiOf(subscriber)};
  if (map_ != nullptr) {
    const int shard = ShardOfPartition(map_->PartitionOfIdentity(id));
    return shard >= 0 ? shard : 0;
  }
  return JumpHash(location::HashIdentity(id), num_shards_);
}

Shard::Shard(int index, const ShardSlicer* slicer, const ShardOptions& opts)
    : index_(index), slicer_(slicer), opts_(opts), factory_(opts.seed) {}

Shard::~Shard() = default;

void Shard::Provision() {
  // Build the shard's private data-path slice: one site, one blade cluster,
  // its own partitions and replica sets. Nothing here is reachable from any
  // other shard.
  sim::Topology topology(1);
  network_ = std::make_unique<sim::Network>(std::move(topology), &clock_);

  udrnf::UdrConfig config;
  config.replication_factor = opts_.replication_factor;
  config.se_per_cluster = opts_.se_per_cluster;
  config.partitions_per_se = opts_.partitions_per_se;
  // Per-shard tracer: sampling already happened on the driver (batches
  // arrive stamped), but the rate must be non-zero for the UdrNf to build a
  // tracer at all. Lane = shard index keeps merged Perfetto output
  // per-thread.
  config.trace_sample_rate = opts_.trace_sample_rate;
  config.trace_seed = opts_.seed;
  config.trace_lane = static_cast<uint32_t>(index_);
  udr_ = std::make_unique<udrnf::UdrNf>(config, network_.get());
  auto cluster = udr_->AddCluster(0);
  assert(cluster.ok());
  (void)cluster;
  udr_->CommissionPartitions();

  routing::CoalescerConfig wc;
  wc.window = opts_.dispatch_window;
  wc.max_ops = opts_.dispatch_max_ops;
  wc.poa_site = 0;
  window_ = std::make_unique<routing::Coalescer>(wc, &udr_->router(), &clock_,
                                                 &udr_->metrics());

  for (uint64_t sub = 0; sub < opts_.total_subscribers; ++sub) {
    if (slicer_->ShardOf(sub) != index_) continue;
    auto spec = factory_.MakeSpec(sub);
    auto outcome = udr_->CreateSubscriber(spec, 0);
    if (outcome.ok()) ++provisioned_;
  }
  // Let slave copies settle so nearest-preference reads see the profiles.
  clock_.Advance(Seconds(1));
  udr_->CatchUpAllPartitions();
}

location::Identity Shard::IdentityOf(uint64_t subscriber) const {
  return {location::IdentityType::kImsi, factory_.ImsiOf(subscriber)};
}

void Shard::Execute(const ShardBatch& batch) {
  if (batch.ops.empty()) return;
  // The driver stamped the trace before the SPSC push; the span opens here,
  // on this shard's clock, and covers submit-through-flush of the batch
  // (one tick of the shard's dispatch window).
  obs::Span exec_span;
  if (batch.trace.active()) {
    exec_span = obs::StartSpan(udr_->tracer(), "shard.execute", batch.trace);
  }
  routing::BatchRequest req;
  req.trace = exec_span.context().active() ? exec_span.context() : batch.trace;
  req.ops.reserve(batch.ops.size());
  for (const ShardOp& op : batch.ops) {
    // Per-key order check: the driver stamps per-subscriber monotonically
    // increasing sequence numbers; seeing a regression here means the
    // handoff reordered operations.
    auto [it, fresh] = last_seq_.try_emplace(op.subscriber, op.seq);
    if (!fresh) {
      if (op.seq <= it->second) ++stats_.order_violations;
      it->second = op.seq;
    }
    if (op.write) {
      routing::Mutation m;
      m.kind = routing::Mutation::Kind::kSet;
      m.attr = kSeqAttr;
      m.value = storage::Value(static_cast<int64_t>(op.seq));
      req.Add(routing::Operation::Write(IdentityOf(op.subscriber), {m}));
    } else {
      req.Add(routing::Operation::ReadAttribute(IdentityOf(op.subscriber),
                                                telecom::attr::kMsisdn));
    }
  }
  stats_.ops += static_cast<int64_t>(batch.ops.size());
  ++stats_.batches;
  pending_.push_back(window_->Submit(std::move(req)));
  clock_.Advance(opts_.tick);
  window_->FlushIfDue();
  CollectOutcomes();
}

void Shard::CollectOutcomes() {
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    auto outcome = window_->Take(pending_[i]);
    if (!outcome) {
      pending_[kept++] = pending_[i];
      continue;
    }
    const int64_t n = static_cast<int64_t>(outcome->outcomes.size());
    stats_.failed += outcome->failed_ops;
    stats_.ok += n - outcome->failed_ops;
  }
  pending_.resize(kept);
}

void Shard::Drain() {
  window_->FlushNow();
  CollectOutcomes();
  assert(pending_.empty());
}

std::optional<int64_t> Shard::ReadSeq(uint64_t subscriber) {
  routing::BatchRequest req;
  req.Add(routing::Operation::ReadAttribute(
      IdentityOf(subscriber), kSeqAttr,
      replication::ReadPreference::kMasterOnly));
  auto result = udr_->router().RouteBatch(req, 0);
  if (result.outcomes.empty() || !result.outcomes[0].ok()) return std::nullopt;
  const auto& value = result.outcomes[0].value;
  if (!value || !std::holds_alternative<int64_t>(*value)) return std::nullopt;
  return std::get<int64_t>(*value);
}

}  // namespace udr::exec
