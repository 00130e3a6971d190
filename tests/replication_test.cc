// Unit + property tests for src/replication: async delivery horizons, the
// serialization-order invariant, sync modes, failover data loss, read
// preferences / staleness, multi-master divergence and consistency
// restoration, and the election rollback. The majority-election cases (the §6
// consensus model) are in consensus_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "replica_set_fixture.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/network.h"
#include "storage/attr_pool.h"
#include "telecom/subscriber.h"

namespace udr::replication {
namespace {

using storage::Record;
using storage::StorageElement;
using storage::StorageElementConfig;
using storage::ValueToString;

// ---------------------------------------------------------------------------
// Basic write/read + async visibility
// ---------------------------------------------------------------------------

TEST_F(ReplicaSetTest, WriteAppliesOnMasterImmediately) {
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, "a", int64_t{42});
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(w.seq, 1u);
  EXPECT_EQ(w.served_by, 0u);
  EXPECT_EQ(ValueAt(0, 1, "a"), "42");
  // Slaves have not applied yet (no catch-up, no time).
  EXPECT_EQ(ValueAt(1, 1, "a"), "<norec>");
}

TEST_F(ReplicaSetTest, AsyncDeliveryHonorsLatencyHorizon) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  // Before one backbone one-way (15ms) the entry must not be visible.
  clock().Advance(Millis(10));
  rs().CatchUpAll();
  EXPECT_EQ(ValueAt(1, 1, "a"), "<norec>");
  // After 15ms it is.
  clock().Advance(Millis(6));
  rs().CatchUpAll();
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");
  EXPECT_EQ(rs().applied_seq(1), 1u);
}

TEST_F(ReplicaSetTest, SlaveAppliesInSerializationOrder) {
  // The §3.2 invariant: slave apply order == master commit order.
  clock().AdvanceTo(Seconds(1));
  for (int i = 1; i <= 20; ++i) {
    Put(0, 1, "a", static_cast<int64_t>(i));
    clock().Advance(Millis(1));
  }
  clock().Advance(Seconds(1));
  rs().CatchUp(1);
  // Final value must be the last committed one; intermediate states applied
  // in order mean version count equals entry count.
  EXPECT_EQ(ValueAt(1, 1, "a"), "20");
  EXPECT_EQ(rs().applied_seq(1), 20u);
}

TEST_F(ReplicaSetTest, PartialCatchUpStopsAtHorizon) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Millis(20));
  Put(0, 1, "a", int64_t{2});  // Second write at t=1.020s.
  clock().Advance(Millis(10));  // Now t=1.030s: first delivered, second not.
  rs().CatchUp(1);
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");
  EXPECT_EQ(rs().applied_seq(1), 1u);
}

TEST_F(ReplicaSetTest, WriteLatencyIncludesClientLeg) {
  clock().AdvanceTo(Seconds(1));
  WriteResult local = Put(0, 1, "a", int64_t{1});
  WriteResult remote = Put(2, 1, "a", int64_t{2});
  // Client at site 2 pays a backbone round trip to the master at site 0.
  EXPECT_GT(remote.latency, local.latency + Millis(25));
}

// ---------------------------------------------------------------------------
// Reads: preferences and staleness
// ---------------------------------------------------------------------------

TEST_F(ReplicaSetTest, NearestReadServedByLocalSlave) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{5});
  clock().Advance(Seconds(1));
  ReadResult r = rs().ReadAttribute(2, 1, "a", ReadPreference::kNearest);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.served_by, 2u);
  EXPECT_FALSE(r.stale);
  EXPECT_LT(r.latency, Millis(2));  // LAN, not backbone.
}

TEST_F(ReplicaSetTest, MasterOnlyReadCrossesBackbone) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{5});
  ReadResult r = rs().ReadAttribute(2, 1, "a", ReadPreference::kMasterOnly);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.served_by, 0u);
  EXPECT_GT(r.latency, Millis(29));
}

TEST_F(ReplicaSetTest, SlaveReadIsStaleUntilDelivery) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  Put(0, 1, "a", int64_t{2});  // Not yet delivered anywhere.
  ReadResult r = rs().ReadAttribute(2, 1, "a", ReadPreference::kNearest);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(ValueToString(*r.value), "1");  // Old value.
  EXPECT_EQ(rs().stale_reads(), 1);
  // Master read is never stale.
  ReadResult m = rs().ReadAttribute(2, 1, "a", ReadPreference::kMasterOnly);
  EXPECT_FALSE(m.stale);
  EXPECT_EQ(ValueToString(*m.value), "2");
}

TEST_F(ReplicaSetTest, ReadMissingAttributeIsNotFound) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  ReadResult r = rs().ReadAttribute(0, 1, "zzz", ReadPreference::kMasterOnly);
  EXPECT_TRUE(r.status.IsNotFound());
  ReadResult r2 = rs().ReadAttribute(0, 99, "a", ReadPreference::kMasterOnly);
  EXPECT_TRUE(r2.status.IsNotFound());
}

// ---------------------------------------------------------------------------
// CAP behaviour on partition: CP mode (paper default)
// ---------------------------------------------------------------------------

TEST_F(ReplicaSetTest, CpModeRejectsWritesFromMinoritySide) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  // Site 2 is cut off from the master's site 0.
  network().partitions().CutLink(0, 2, Seconds(2), Seconds(60));
  clock().AdvanceTo(Seconds(5));
  WriteResult w = Put(2, 1, "a", int64_t{2});
  EXPECT_TRUE(w.status.IsUnavailable());
  EXPECT_EQ(rs().writes_rejected(), 1);
  // Writes from the master side still proceed.
  WriteResult w2 = Put(1, 1, "a", int64_t{3});
  EXPECT_TRUE(w2.status.ok());
}

TEST_F(ReplicaSetTest, CpModeServesLocalReadsDuringPartition) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  const MicroTime now = clock().Now();
  network().partitions().CutLink(0, 2, now, now + Seconds(60));
  network().partitions().CutLink(1, 2, now, now + Seconds(60));
  clock().Advance(Seconds(5));
  // FE at site 2 reads its co-located slave copy: still available.
  ReadResult r = rs().ReadAttribute(2, 1, "a", ReadPreference::kNearest);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.served_by, 2u);
  // Master-only reads from site 2 fail: the PS side of §4.1.
  ReadResult m = rs().ReadAttribute(2, 1, "a", ReadPreference::kMasterOnly);
  EXPECT_TRUE(m.status.IsUnavailable());
}

TEST_F(ReplicaSetTest, WritesBlockedDeliverAfterHeal) {
  clock().AdvanceTo(Seconds(1));
  network().partitions().CutLink(0, 1, Seconds(1), Seconds(10));
  Put(0, 1, "a", int64_t{7});
  clock().AdvanceTo(Seconds(5));
  rs().CatchUpAll();
  EXPECT_EQ(ValueAt(1, 1, "a"), "<norec>");  // Still partitioned.
  clock().AdvanceTo(Seconds(10) + Millis(16));
  rs().CatchUpAll();
  EXPECT_EQ(ValueAt(1, 1, "a"), "7");  // Delivered after heal + latency.
}

// ---------------------------------------------------------------------------
// Failover and the async durability gap
// ---------------------------------------------------------------------------

TEST_F(ReplicaSetTest, FailoverLosesUnreplicatedSuffix) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();  // Seq 1 everywhere.
  Put(0, 1, "a", int64_t{2});
  Put(0, 2, "b", int64_t{3});  // Seqs 2,3 acked but not yet delivered.
  rs().CrashReplica(0);
  clock().Advance(Seconds(10));  // Past failover detection.
  auto report = rs().FailOver();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->old_master, 0u);
  EXPECT_EQ(report->acknowledged_seq, 3u);
  EXPECT_EQ(report->promoted_seq, 1u);
  EXPECT_EQ(report->lost_transactions, 2);
  EXPECT_EQ(rs().master_id(), report->new_master);
  // The acked-but-lost write is gone.
  ReadResult r = rs().ReadAttribute(1, 1, "a", ReadPreference::kMasterOnly);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "1");
}

TEST_F(ReplicaSetTest, WriteTriggersFailoverAfterDetectionTimeout) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  rs().CrashReplica(0);
  // Before detection timeout: Unavailable.
  clock().Advance(Seconds(1));
  WriteResult early = Put(1, 1, "a", int64_t{2});
  EXPECT_TRUE(early.status.IsUnavailable());
  // After detection timeout: write triggers failover and succeeds.
  clock().Advance(Seconds(10));
  WriteResult late = Put(1, 1, "a", int64_t{3});
  EXPECT_TRUE(late.status.ok());
  EXPECT_NE(rs().master_id(), 0u);
}

TEST_F(ReplicaSetTest, RecoveredReplicaResyncsFromStream) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  rs().CrashReplica(2);
  Put(0, 1, "a", int64_t{2});
  clock().Advance(Seconds(30));
  rs().RecoverReplica(2);
  EXPECT_EQ(ValueAt(2, 1, "a"), "2");
  EXPECT_EQ(rs().applied_seq(2), 2u);
}

TEST_F(ReplicaSetTest, MasterBackBeforeFailoverReplaysItsLog) {
  ReplicaSetConfig cfg;
  cfg.async_ship_delay = Millis(10);
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  // Crash inside the ship window: the entry never left the master's RAM.
  clock().Advance(Millis(5));
  rs().CrashReplica(0);
  clock().Advance(Seconds(1));  // Back before failover_detection elapses.
  rs().RecoverReplica(0);
  EXPECT_EQ(rs().master_id(), 0u);
  EXPECT_EQ(rs().applied_seq(0), 1u);
  EXPECT_EQ(ValueAt(0, 1, "a"), "1");
  // The restarted master re-ships what its crash left unshipped.
  clock().Advance(Millis(20));
  rs().CatchUpAll();
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");
  EXPECT_EQ(ValueAt(2, 1, "a"), "1");
}

TEST_F(ReplicaSetTest, FailoverFailsWhenNoSurvivor) {
  rs().CrashReplica(0);
  rs().CrashReplica(1);
  rs().CrashReplica(2);
  auto report = rs().FailOver();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable());
}

TEST_F(ReplicaSetTest, AsyncShipDelayWidensLossWindow) {
  ReplicaSetConfig cfg;
  cfg.async_ship_delay = Millis(10);
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();  // Seq 1 everywhere.
  // Two commits 2ms apart, crash 5ms after the second: both are still in
  // the 10ms shipper batch and die with the master.
  Put(0, 1, "a", int64_t{2});
  clock().Advance(Millis(2));
  Put(0, 1, "a", int64_t{3});
  clock().Advance(Millis(5));
  rs().CrashReplica(0);
  clock().Advance(Seconds(10));
  auto report = rs().FailOver();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->lost_transactions, 2);
  ReadResult r = rs().ReadAttribute(1, 1, "a", ReadPreference::kMasterOnly);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "1");
}

TEST_F(ReplicaSetTest, ShippedEntriesSurviveTheCrash) {
  ReplicaSetConfig cfg;
  cfg.async_ship_delay = Millis(10);
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  // Wait past ship delay + flight time before the crash: the entry left.
  clock().Advance(Millis(30));
  rs().CrashReplica(0);
  clock().Advance(Seconds(10));
  auto report = rs().FailOver();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->lost_transactions, 0);
}

// ---------------------------------------------------------------------------
// Sync modes (§5 durability tuning)
// ---------------------------------------------------------------------------

TEST_F(ReplicaSetTest, DualSequenceAppliesSynchronouslyToOneSlave) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kDualSequence;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, "a", int64_t{1});
  ASSERT_TRUE(w.status.ok());
  EXPECT_FALSE(w.degraded);
  // First slave already has the entry without any clock advance.
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");
  // Commit latency grew by a backbone round trip.
  EXPECT_GT(w.latency, Millis(30));
}

TEST_F(ReplicaSetTest, DualSequenceDegradesWhenNoSlaveReachable) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kDualSequence;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  network().partitions().IsolateSite(0, 3, 0, Seconds(100));
  WriteResult w = Put(0, 1, "a", int64_t{1});
  // §5: "leaving just one of the replicas updated is acceptable".
  ASSERT_TRUE(w.status.ok());
  EXPECT_TRUE(w.degraded);
  EXPECT_EQ(rs().degraded_commits(), 1);
}

TEST_F(ReplicaSetTest, DualSequenceSurvivesMasterCrashWithoutLoss) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kDualSequence;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  Put(0, 1, "a", int64_t{2});
  rs().CrashReplica(0);
  clock().Advance(Seconds(10));
  auto report = rs().FailOver();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->lost_transactions, 0);
}

/// The chars of a long value, wherever `attr` of `key` is held.
const char* BytesOf(const storage::Value& v) {
  if (const auto* s = std::get_if<storage::CompactString>(&v)) return s->data();
  const auto& list = std::get<storage::StringList>(v);
  return list.empty() ? nullptr : list[0].data();
}

const storage::Value& StoredValue(const ReplicaSet& rs, uint32_t replica,
                                  storage::RecordKey key, const char* attr) {
  const storage::Record* r = rs.replica_store(replica).Find(key);
  EXPECT_NE(r, nullptr) << "replica " << replica;
  const storage::Attribute* a = r->Find(attr);
  EXPECT_NE(a, nullptr) << "replica " << replica << " " << attr;
  return a->value;
}

/// A create's long values (the authKey, the IMPU list) are one heap block
/// each, held by its commit-log op, the master's store and the synchronous
/// slave's store: the apply paths copy the op's value, and a copy shares.
/// A later Modify replaces the stores' values without touching the block
/// the log still holds. Equal pointers fail here if a deep copy creeps back.
TEST_F(ReplicaSetTest, ACreateHoldsOneCopyOfEachLongValue) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kDualSequence;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  constexpr storage::RecordKey kKey = 7;
  WriteBuilder create;
  create.PutRecord(kKey, telecom::SubscriberFactory(42).Make(0).profile);
  const WriteResult w = rs().Write(0, std::move(create).Build());
  ASSERT_TRUE(w.status.ok());
  ASSERT_FALSE(w.degraded);
  constexpr uint32_t kSyncSlave = 1;

  const char* const kLong[] = {telecom::attr::kAuthKey, telecom::attr::kImpu};
  const storage::LogEntry& entry = rs().log().At(w.seq);
  std::vector<const storage::Value*> logged;
  std::vector<std::string> texts;
  for (const char* attr : kLong) {
    const storage::AttrId id = storage::InternAttr(attr);
    const auto op = std::find_if(
        entry.ops.begin(), entry.ops.end(),
        [&](const storage::WriteOp& o) { return o.attr_id == id; });
    ASSERT_NE(op, entry.ops.end()) << attr;
    const storage::Value& v = op->attribute.value;
    logged.push_back(&v);
    texts.push_back(ValueToString(v));
    ASSERT_NE(BytesOf(v), nullptr) << attr;
    if (const auto* s = std::get_if<storage::CompactString>(&v)) {
      ASSERT_TRUE(s->on_heap()) << attr;
    }
    EXPECT_EQ(BytesOf(StoredValue(rs(), 0, kKey, attr)), BytesOf(v))
        << attr << ": the master store copied the log op's bytes";
    EXPECT_EQ(BytesOf(StoredValue(rs(), kSyncSlave, kKey, attr)), BytesOf(v))
        << attr << ": the sync slave copied the log op's bytes";
  }
  std::vector<const char*> before;
  for (const storage::Value* v : logged) before.push_back(BytesOf(*v));

  WriteBuilder modify;
  modify.Set(kKey, telecom::attr::kAuthKey, std::string(32, 'f'));
  modify.Set(kKey, telecom::attr::kImpu,
             storage::StringList{"sip:moved@ims.example", "tel:+34699"});
  ASSERT_TRUE(rs().Write(0, std::move(modify).Build()).status.ok());
  for (size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(BytesOf(*logged[i]), before[i]) << kLong[i];
    EXPECT_EQ(ValueToString(*logged[i]), texts[i]) << kLong[i];
    for (uint32_t replica : {0u, kSyncSlave}) {
      const storage::Value& now = StoredValue(rs(), replica, kKey, kLong[i]);
      EXPECT_NE(ValueToString(now), texts[i]) << kLong[i] << " " << replica;
      EXPECT_NE(BytesOf(now), before[i]) << kLong[i] << " " << replica;
    }
  }
}

TEST_F(ReplicaSetTest, QuorumRequiresMajority) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kQuorum;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  WriteResult ok = Put(0, 1, "a", int64_t{1});
  ASSERT_TRUE(ok.status.ok());
  // Isolate the master from both slaves: majority (2 of 3) unreachable.
  network().partitions().IsolateSite(0, 3, clock().Now(),
                                     clock().Now() + Seconds(100));
  WriteResult rejected = Put(0, 1, "a", int64_t{2});
  EXPECT_TRUE(rejected.status.IsUnavailable());
  // Nothing was committed: master value unchanged.
  EXPECT_EQ(ValueAt(0, 1, "a"), "1");
}

TEST_F(ReplicaSetTest, QuorumToleratesMinorityLoss) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kQuorum;
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  network().partitions().CutLink(0, 2, 0, Seconds(100));  // One slave away.
  WriteResult w = Put(0, 1, "a", int64_t{1});
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");  // Ack slave has it.
}

/// Latency ordering property across sync modes: ASYNC < DUAL_SEQ <= QUORUM
/// for a single write from the master's site.
TEST_F(ReplicaSetTest, SyncModeLatencyOrdering) {
  MicroDuration lat[3];
  SyncMode modes[3] = {SyncMode::kAsync, SyncMode::kDualSequence,
                       SyncMode::kQuorum};
  for (int i = 0; i < 3; ++i) {
    ReplicaSetConfig cfg;
    cfg.sync_mode = modes[i];
    Build(cfg);
    clock().AdvanceTo(Seconds(1));
    WriteResult w = Put(0, 1, "a", int64_t{1});
    ASSERT_TRUE(w.status.ok());
    lat[i] = w.latency;
  }
  EXPECT_LT(lat[0], lat[1]);
  EXPECT_LE(lat[1], lat[2]);
}

TEST_F(ReplicaSetTest, ElectionResyncsTheDeposedMaster) {
  ReplicaSetConfig cfg;
  cfg.partition_mode = PartitionMode::kElectMajority;  // Async acks.
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  // The master is cut off before its write ships; the majority side elects
  // a replica without it, and the election truncates the unshipped write.
  network().partitions().IsolateSite(0, 3, clock().Now(),
                                     clock().Now() + Seconds(10));
  clock().Advance(Millis(1));
  ASSERT_TRUE(Put(1, 2, "a", int64_t{2}).status.ok());
  EXPECT_NE(rs().master_id(), 0u);
  // The deposed master dropped the discarded write and follows the new log.
  EXPECT_EQ(ValueAt(0, 1, "a"), "<norec>");
  clock().Advance(Seconds(20));
  rs().CatchUpAll();
  EXPECT_EQ(rs().applied_seq(0), rs().log().LastSeq());
  EXPECT_EQ(ValueAt(0, 2, "a"), "2");
}

// ---------------------------------------------------------------------------
// Master-path admission: every CAP stance x failure case x master-path op
// ---------------------------------------------------------------------------

/// State the master path meets. The client sits at site 1; the master copy
/// is replica 0 at site 0, and key 1 is on every replica.
enum class AdmitCase {
  kHealthy,
  kDownInsideDetection,  ///< Master crashed 1 s ago (detection is 5 s).
  kDownWithSurvivor,     ///< Master crashed 10 s ago; the slaves are up.
  kDownWithNoSurvivor,   ///< Every replica crashed 10 s ago.
  kClientCut,            ///< Link 0-1 cut; the master reaches site 2.
  kMasterMinority,       ///< Site 0 isolated from both slaves.
};

enum class MasterOp { kWrite, kBatchOfOne, kMasterOnlyRead };

struct AdmissionRow {
  PartitionMode mode;
  AdmitCase when;
  MasterOp op;
  StatusCode code;
  MicroDuration latency;
  uint32_t served_by;
  bool diverged;
  uint32_t master_after;
  int64_t accepted;  ///< writes_accepted(), the seed write included.
  int64_t rejected;
  int64_t diverged_writes;
  int64_t degraded;
};

std::string RowString(const AdmissionRow& r) {
  return "code=" + std::string(StatusCodeName(r.code)) +
         " latency=" + std::to_string(r.latency) +
         " served_by=" + std::to_string(r.served_by) +
         " diverged=" + std::to_string(r.diverged) +
         " master=" + std::to_string(r.master_after) +
         " accepted=" + std::to_string(r.accepted) +
         " rejected=" + std::to_string(r.rejected) +
         " diverged_writes=" + std::to_string(r.diverged_writes) +
         " degraded=" + std::to_string(r.degraded);
}

constexpr auto kPc = PartitionMode::kPreferConsistency;
constexpr auto kPa = PartitionMode::kPreferAvailability;
constexpr auto kMaj = PartitionMode::kElectMajority;
constexpr auto kOk = StatusCode::kOk;
constexpr auto kUnav = StatusCode::kUnavailable;
constexpr MasterOp kW = MasterOp::kWrite;
constexpr MasterOp kB = MasterOp::kBatchOfOne;
constexpr MasterOp kR = MasterOp::kMasterOnlyRead;

// One row per stance x case x op: status code, latency, serving replica,
// divergence, the master after the op and the write counters. Write,
// WriteBatch and a master-only read must agree with these cells whichever
// code admits them to the master.
const AdmissionRow kAdmissionTable[] = {
    // clang-format off
    // mode when                              op  code    latency by div    mr acc rj dw dg
    {kPc,  AdmitCase::kHealthy,              kW, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kPc,  AdmitCase::kHealthy,              kB, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kPc,  AdmitCase::kHealthy,              kR, kOk,     30045, 0, false, 0, 1, 0, 0, 0},
    {kPc,  AdmitCase::kDownInsideDetection,  kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kDownInsideDetection,  kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kDownInsideDetection,  kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPc,  AdmitCase::kDownWithSurvivor,     kW, kOk,       256, 1, false, 1, 2, 0, 0, 0},
    {kPc,  AdmitCase::kDownWithSurvivor,     kB, kOk,       256, 1, false, 1, 2, 0, 0, 0},
    {kPc,  AdmitCase::kDownWithSurvivor,     kR, kOk,       245, 1, false, 1, 1, 0, 0, 0},
    {kPc,  AdmitCase::kDownWithNoSurvivor,   kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kDownWithNoSurvivor,   kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kDownWithNoSurvivor,   kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPc,  AdmitCase::kClientCut,            kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kClientCut,            kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kClientCut,            kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPc,  AdmitCase::kMasterMinority,       kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kMasterMinority,       kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPc,  AdmitCase::kMasterMinority,       kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPa,  AdmitCase::kHealthy,              kW, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kPa,  AdmitCase::kHealthy,              kB, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kPa,  AdmitCase::kHealthy,              kR, kOk,     30045, 0, false, 0, 1, 0, 0, 0},
    {kPa,  AdmitCase::kDownInsideDetection,  kW, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kDownInsideDetection,  kB, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kDownInsideDetection,  kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPa,  AdmitCase::kDownWithSurvivor,     kW, kOk,       256, 1, false, 1, 2, 0, 0, 0},
    {kPa,  AdmitCase::kDownWithSurvivor,     kB, kOk,       256, 1, false, 1, 2, 0, 0, 0},
    {kPa,  AdmitCase::kDownWithSurvivor,     kR, kOk,       245, 1, false, 1, 1, 0, 0, 0},
    {kPa,  AdmitCase::kDownWithNoSurvivor,   kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPa,  AdmitCase::kDownWithNoSurvivor,   kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kPa,  AdmitCase::kDownWithNoSurvivor,   kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPa,  AdmitCase::kClientCut,            kW, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kClientCut,            kB, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kClientCut,            kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kPa,  AdmitCase::kMasterMinority,       kW, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kMasterMinority,       kB, kOk,       256, 1, true,  0, 2, 0, 1, 0},
    {kPa,  AdmitCase::kMasterMinority,       kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kMaj, AdmitCase::kHealthy,              kW, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kMaj, AdmitCase::kHealthy,              kB, kOk,     30056, 0, false, 0, 2, 0, 0, 0},
    {kMaj, AdmitCase::kHealthy,              kR, kOk,     30045, 0, false, 0, 1, 0, 0, 0},
    {kMaj, AdmitCase::kDownInsideDetection,  kW, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kDownInsideDetection,  kB, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kDownInsideDetection,  kR, kOk,   5000245, 1, false, 1, 1, 0, 0, 0},
    {kMaj, AdmitCase::kDownWithSurvivor,     kW, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kDownWithSurvivor,     kB, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kDownWithSurvivor,     kR, kOk,   5000245, 1, false, 1, 1, 0, 0, 0},
    {kMaj, AdmitCase::kDownWithNoSurvivor,   kW, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kMaj, AdmitCase::kDownWithNoSurvivor,   kB, kUnav,  500000, 0, false, 0, 1, 1, 0, 0},
    {kMaj, AdmitCase::kDownWithNoSurvivor,   kR, kUnav,  500000, 0, false, 0, 1, 0, 0, 0},
    {kMaj, AdmitCase::kClientCut,            kW, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kClientCut,            kB, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kClientCut,            kR, kOk,   5000245, 1, false, 1, 1, 0, 0, 0},
    {kMaj, AdmitCase::kMasterMinority,       kW, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kMasterMinority,       kB, kOk,   5000256, 1, false, 1, 2, 0, 0, 0},
    {kMaj, AdmitCase::kMasterMinority,       kR, kOk,   5000245, 1, false, 1, 1, 0, 0, 0},
    // clang-format on
};

class AdmissionTableTest : public ReplicaSetTest {
 protected:
  /// Builds a fresh set under `mode`, seeds key 1 on every replica and
  /// drives it into `when`.
  void Arrange(PartitionMode mode, AdmitCase when) {
    ReplicaSetConfig cfg;
    cfg.partition_mode = mode;
    Build(cfg);
    clock().AdvanceTo(Seconds(1));
    ASSERT_TRUE(Put(0, 1, "a", int64_t{1}).status.ok());
    clock().Advance(Seconds(1));
    rs().CatchUpAll();
    const MicroTime now = clock().Now();
    switch (when) {
      case AdmitCase::kHealthy:
        break;
      case AdmitCase::kDownInsideDetection:
        rs().CrashReplica(0);
        clock().Advance(Seconds(1));
        break;
      case AdmitCase::kDownWithSurvivor:
        rs().CrashReplica(0);
        clock().Advance(Seconds(10));
        break;
      case AdmitCase::kDownWithNoSurvivor:
        for (uint32_t id = 0; id < 3; ++id) rs().CrashReplica(id);
        clock().Advance(Seconds(10));
        break;
      case AdmitCase::kClientCut:
        network().partitions().CutLink(0, 1, now, now + Seconds(100));
        break;
      case AdmitCase::kMasterMinority:
        network().partitions().IsolateSite(0, 3, now, now + Seconds(100));
        break;
    }
  }

  /// Runs `op` from site 1 and reads back the row it produced.
  AdmissionRow Run(PartitionMode mode, AdmitCase when, MasterOp op) {
    AdmissionRow row{mode, when, op, kOk, 0, 0, false, 0, 0, 0, 0, 0};
    Arrange(mode, when);
    switch (op) {
      case MasterOp::kWrite: {
        WriteResult w = Put(1, 1, "a", int64_t{2});
        row.code = w.status.code();
        row.latency = w.latency;
        row.served_by = w.served_by;
        row.diverged = w.diverged;
        break;
      }
      case MasterOp::kBatchOfOne: {
        WriteBuilder wb;
        wb.Set(1, "a", int64_t{2});
        std::vector<std::vector<storage::WriteOp>> txns;
        txns.push_back(std::move(wb).Build());
        GroupWriteResult g = rs().WriteBatch(1, std::move(txns));
        EXPECT_EQ(g.per_op.size(), 1u);
        row.code = g.status.code();
        row.latency = g.latency;
        row.served_by = g.per_op.front().served_by;
        row.diverged = g.per_op.front().diverged;
        break;
      }
      case MasterOp::kMasterOnlyRead: {
        ReadResult r =
            rs().ReadAttribute(1, 1, "a", ReadPreference::kMasterOnly);
        row.code = r.status.code();
        row.latency = r.latency;
        row.served_by = r.served_by;
        break;
      }
    }
    row.master_after = rs().master_id();
    row.accepted = rs().writes_accepted();
    row.rejected = rs().writes_rejected();
    row.diverged_writes = rs().diverged_writes();
    row.degraded = rs().degraded_commits();
    return row;
  }
};

TEST_F(AdmissionTableTest, EveryStanceCaseAndOpMatchesThePinnedRow) {
  for (const AdmissionRow& want : kAdmissionTable) {
    const AdmissionRow got = Run(want.mode, want.when, want.op);
    EXPECT_EQ(RowString(got), RowString(want))
        << "mode " << static_cast<int>(want.mode) << " case "
        << static_cast<int>(want.when) << " op " << static_cast<int>(want.op);
  }
}

/// Dual-sequence acks the first reachable slave in replica-id order (§5, "in
/// sequence"), even when a later slave is nearer the master.
TEST_F(ReplicaSetTest, DualSequenceAcksSlavesInIdOrder) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kDualSequence;
  Build(cfg);
  network().mutable_topology().SetLinkLatency(0, 2, Millis(1));
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, "a", int64_t{1});
  ASSERT_TRUE(w.status.ok());
  EXPECT_FALSE(w.degraded);
  EXPECT_EQ(ValueAt(1, 1, "a"), "1");
  EXPECT_EQ(ValueAt(2, 1, "a"), "<norec>");
  EXPECT_EQ(w.latency,
            rs().replica_se(0)->WriteServiceTime() +
                network().topology().Rtt(0, 1) +
                rs().replica_se(1)->WriteServiceTime() +
                network().topology().Rtt(0, 0) +
                network().topology().HopOverhead());
}

/// Quorum acks the nearest slaves first, ties broken by replica id: on five
/// sites it needs two, here replica 4 (1 ms) and replica 2 (2 ms, tied with
/// replica 3).
TEST_F(ReplicaSetTest, QuorumAcksNearestSlavesFirst) {
  ReplicaSetConfig cfg;
  cfg.sync_mode = SyncMode::kQuorum;
  Build(cfg, /*sites=*/5);
  network().mutable_topology().SetLinkLatency(0, 4, Millis(1));
  network().mutable_topology().SetLinkLatency(0, 2, Millis(2));
  network().mutable_topology().SetLinkLatency(0, 3, Millis(2));
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, "a", int64_t{1});
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(ValueAt(4, 1, "a"), "1");
  EXPECT_EQ(ValueAt(2, 1, "a"), "1");
  EXPECT_EQ(ValueAt(3, 1, "a"), "<norec>");
  EXPECT_EQ(ValueAt(1, 1, "a"), "<norec>");
  EXPECT_EQ(w.latency,
            rs().replica_se(0)->WriteServiceTime() +
                network().topology().Rtt(0, 2) +
                rs().replica_se(2)->WriteServiceTime() +
                network().topology().Rtt(0, 0) +
                network().topology().HopOverhead());
}

// ---------------------------------------------------------------------------
// Multi-master (AP) mode and consistency restoration (§5)
// ---------------------------------------------------------------------------

class MultiMasterTest : public ReplicaSetTest {
 protected:
  void SetUp() override {
    ReplicaSetConfig cfg;
    cfg.partition_mode = PartitionMode::kPreferAvailability;
    cfg.merge_policy = MergePolicy::kFieldMergeLww;
    Build(cfg);
  }
};

TEST_F(MultiMasterTest, ApModeAcceptsWritesOnMinoritySide) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(60));
  clock().Advance(Seconds(5));
  WriteResult w = Put(2, 1, "b", int64_t{9});
  ASSERT_TRUE(w.status.ok());
  EXPECT_TRUE(w.diverged);
  EXPECT_EQ(w.served_by, 2u);
  EXPECT_TRUE(rs().HasDivergence());
  EXPECT_EQ(rs().diverged_writes(), 1);
  // Locally visible on the divergent side.
  EXPECT_EQ(ValueAt(2, 1, "b"), "9");
  // Not visible on the master side.
  EXPECT_EQ(ValueAt(0, 1, "b"), "<noattr>");
}

TEST_F(MultiMasterTest, RestorationMergesNonConflictingWrites) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "a", int64_t{1});
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(5));
  Put(2, 1, "b", int64_t{9});       // Divergent, different attribute.
  Put(0, 1, "c", int64_t{7});       // Majority side, different attribute.
  clock().Advance(Seconds(60));      // Heal.
  RestorationReport rep = rs().RestoreConsistency();
  EXPECT_EQ(rep.divergent_entries, 1);
  EXPECT_EQ(rep.applied_ops, 1);
  EXPECT_EQ(rep.conflicting_ops, 0);
  // All replicas converge to the union.
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueAt(i, 1, "a"), "1") << i;
    EXPECT_EQ(ValueAt(i, 1, "b"), "9") << i;
    EXPECT_EQ(ValueAt(i, 1, "c"), "7") << i;
  }
  EXPECT_FALSE(rs().HasDivergence());
}

TEST_F(MultiMasterTest, LwwResolvesConflictingAttribute) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "cfu", std::string("+1111"));
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(2));
  Put(0, 1, "cfu", std::string("+2222"));  // Majority write at t+2.
  clock().Advance(Seconds(3));
  Put(2, 1, "cfu", std::string("+3333"));  // Divergent write at t+5 (later).
  clock().Advance(Seconds(60));
  RestorationReport rep = rs().RestoreConsistency();
  EXPECT_EQ(rep.conflicting_ops, 1);
  EXPECT_EQ(rep.applied_ops, 1);  // Divergent one wins on timestamp.
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueAt(i, 1, "cfu"), "+3333") << i;
  }
}

TEST_F(MultiMasterTest, LwwKeepsMajorityWriteWhenNewer) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "cfu", std::string("+1111"));
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(2));
  Put(2, 1, "cfu", std::string("+3333"));  // Divergent write at t+2.
  clock().Advance(Seconds(3));
  Put(0, 1, "cfu", std::string("+2222"));  // Majority write at t+5 (later).
  clock().Advance(Seconds(60));
  RestorationReport rep = rs().RestoreConsistency();
  EXPECT_EQ(rep.conflicting_ops, 1);
  EXPECT_EQ(rep.dropped_ops, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueAt(i, 1, "cfu"), "+2222") << i;
  }
}

TEST_F(MultiMasterTest, PreferMasterPolicyFlagsManualConflicts) {
  rs().mutable_config().merge_policy = MergePolicy::kPreferMaster;
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, "cfu", std::string("+1111"));
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(2));
  Put(0, 1, "cfu", std::string("+2222"));
  clock().Advance(Seconds(1));
  Put(2, 1, "cfu", std::string("+3333"));
  clock().Advance(Seconds(60));
  RestorationReport rep = rs().RestoreConsistency();
  EXPECT_EQ(rep.manual_ops, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueAt(i, 1, "cfu"), "+2222") << i;  // Master retained.
  }
}

TEST_F(MultiMasterTest, SameValueBothSidesIsNotAConflict) {
  clock().AdvanceTo(Seconds(1));
  rs().CatchUpAll();
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(2));
  Put(0, 1, "flag", true);
  clock().Advance(Seconds(1));
  Put(2, 1, "flag", true);
  clock().Advance(Seconds(60));
  RestorationReport rep = rs().RestoreConsistency();
  EXPECT_EQ(rep.conflicting_ops, 0);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueAt(i, 1, "flag"), "true") << i;
  }
}

// Property: after any AP-mode partition episode + restoration + full sync,
// every up replica's store is identical (convergence), for every policy.
class MergePolicyConvergence
    : public ReplicaSetTest,
      public ::testing::WithParamInterface<MergePolicy> {};

TEST_P(MergePolicyConvergence, AllReplicasConvergeAfterRestoration) {
  ReplicaSetConfig cfg;
  cfg.partition_mode = PartitionMode::kPreferAvailability;
  cfg.merge_policy = GetParam();
  Build(cfg);
  clock().AdvanceTo(Seconds(1));
  // Seed records.
  for (int k = 1; k <= 5; ++k) {
    Put(0, k, "v", static_cast<int64_t>(k));
    clock().Advance(Millis(1));
  }
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  // Partition site 2 and write on both sides, overlapping keys and attrs.
  network().partitions().IsolateSite(2, 3, clock().Now(),
                                     clock().Now() + Seconds(30));
  clock().Advance(Seconds(1));
  for (int k = 1; k <= 5; ++k) {
    Put(0, k, "v", static_cast<int64_t>(100 + k));
    clock().Advance(Millis(7));
    Put(2, k, "v", static_cast<int64_t>(200 + k));
    Put(2, k, "w", static_cast<int64_t>(300 + k));
    clock().Advance(Millis(7));
  }
  clock().Advance(Seconds(60));  // Heal.
  rs().RestoreConsistency();
  rs().ForceSyncAll();
  for (int k = 1; k <= 5; ++k) {
    std::string v0 = ValueAt(0, k, "v");
    std::string w0 = ValueAt(0, k, "w");
    for (uint32_t i = 1; i < 3; ++i) {
      EXPECT_EQ(ValueAt(i, k, "v"), v0) << "key " << k << " replica " << i;
      EXPECT_EQ(ValueAt(i, k, "w"), w0) << "key " << k << " replica " << i;
    }
  }
  EXPECT_FALSE(rs().HasDivergence());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MergePolicyConvergence,
                         ::testing::Values(MergePolicy::kFieldMergeLww,
                                           MergePolicy::kLastWriterWinsRecord,
                                           MergePolicy::kPreferMaster));

// Property: in CP mode, for any partition placement, a write either succeeds
// at the master or fails — no replica ever applies entries out of order.
class OrderInvariant : public ReplicaSetTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(OrderInvariant, AppliedPrefixNeverSkipsEntries) {
  Build(ReplicaSetConfig());
  clock().AdvanceTo(Seconds(1));
  int scenario = GetParam();
  // Cut a different link per scenario, mid-stream.
  for (int i = 1; i <= 30; ++i) {
    if (i == 10) {
      sim::SiteId a = scenario % 3;
      sim::SiteId b = (scenario + 1) % 3;
      network().partitions().CutLink(a, b, clock().Now(),
                                     clock().Now() + Seconds(5));
    }
    Put(0, 1, "n", static_cast<int64_t>(i));
    clock().Advance(Millis(500));
    rs().CatchUpAll();
    // Invariant: each replica's applied seq content matches a log prefix.
    for (uint32_t rid = 1; rid < 3; ++rid) {
      storage::CommitSeq applied = rs().applied_seq(rid);
      if (applied == 0) continue;
      const Record* rec = rs().replica_store(rid).Find(1);
      ASSERT_NE(rec, nullptr);
      // Value must equal exactly the value in log entry `applied`.
      auto v = rec->Get("n");
      ASSERT_TRUE(v.has_value());
      const auto& entry = rs().log().At(applied);
      EXPECT_EQ(ValueToString(*v),
                ValueToString(entry.ops.back().attribute.value));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, OrderInvariant, ::testing::Range(0, 6));

}  // namespace
}  // namespace udr::replication
