// Tests for the §6 consensus model: a ReplicaSet with QUORUM acks and
// ELECT_MAJORITY partition handling (majority commit, majority-side election
// of the most caught-up replica, minority refusal).

#include <gtest/gtest.h>

#include "replica_set_fixture.h"
#include "replication/replica_set.h"

namespace udr::replication {
namespace {

using storage::ValueToString;

/// QUORUM acks + ELECT_MAJORITY over five sites (or `sites`).
class ElectMajorityTest : public ReplicaSetTest {
 protected:
  void SetUp() override { BuildMajority(5); }

  void BuildMajority(uint32_t sites) {
    ReplicaSetConfig cfg;
    cfg.sync_mode = SyncMode::kQuorum;
    cfg.partition_mode = PartitionMode::kElectMajority;
    Build(cfg, sites);
  }

  WriteResult Put(sim::SiteId from, storage::RecordKey key, int64_t v) {
    return ReplicaSetTest::Put(from, key, "v", v);
  }

  ReadResult MasterRead(sim::SiteId from, storage::RecordKey key) {
    return rs().ReadAttribute(from, key, "v", ReadPreference::kMasterOnly);
  }
};

TEST_F(ElectMajorityTest, WriteCommitsOnMajority) {
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, 42);
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(w.seq, 1u);
  EXPECT_EQ(w.served_by, 0u);
  // Master + 2 fastest followers (majority of 5) applied synchronously.
  int applied = 0;
  for (uint32_t id = 0; id < 5; ++id) {
    if (rs().applied_seq(id) == 1) ++applied;
  }
  EXPECT_GE(applied, 3);
}

TEST_F(ElectMajorityTest, CommitLatencyIncludesMajorityRoundTrip) {
  clock().AdvanceTo(Seconds(1));
  WriteResult w = Put(0, 1, 1);
  ASSERT_TRUE(w.status.ok());
  EXPECT_GT(w.latency, Millis(30));  // Backbone RTT to followers.
}

TEST_F(ElectMajorityTest, MasterCrashLosesNothing) {
  clock().AdvanceTo(Seconds(1));
  for (int i = 1; i <= 20; ++i) Put(0, 1, i);
  rs().CrashReplica(rs().master_id());
  clock().Advance(Seconds(5));
  // The next write elects a new master and the full history survives.
  WriteResult w = Put(1, 1, 21);
  ASSERT_TRUE(w.status.ok());
  EXPECT_NE(rs().master_id(), 0u);
  EXPECT_EQ(w.seq, 21u);
  ReadResult r = MasterRead(1, 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "21");
}

TEST_F(ElectMajorityTest, MajoritySideKeepsWritingDuringPartition) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, 1);
  // Master (site 0) + site 1 cut from sites 2,3,4: majority is {2,3,4}.
  network().partitions().CutBetween({0, 1}, {2, 3, 4}, clock().Now(),
                                    clock().Now() + Seconds(60));
  clock().Advance(Seconds(3));
  // Client on the majority side: election + commit succeed.
  WriteResult w = Put(3, 1, 2);
  ASSERT_TRUE(w.status.ok());
  EXPECT_GE(rs().master_id(), 2u);
  EXPECT_GT(w.latency, rs().config().failover_detection);
  // Client on the minority side: refused, with no divergence log.
  WriteResult rejected = Put(0, 1, 3);
  EXPECT_TRUE(rejected.status.IsUnavailable());
  EXPECT_EQ(rs().writes_rejected(), 1);
  EXPECT_FALSE(rs().HasDivergence());
}

TEST_F(ElectMajorityTest, NoMajorityAnywhereMeansUnavailable) {
  BuildMajority(3);
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, 1);
  // Full three-way split.
  const MicroTime now = clock().Now();
  network().partitions().CutLink(0, 1, now, now + Seconds(60));
  network().partitions().CutLink(0, 2, now, now + Seconds(60));
  network().partitions().CutLink(1, 2, now, now + Seconds(60));
  clock().Advance(Seconds(1));
  for (sim::SiteId s = 0; s < 3; ++s) {
    EXPECT_TRUE(Put(s, 1, 9).status.IsUnavailable()) << s;
  }
}

TEST_F(ElectMajorityTest, ElectionPicksMostUpToDateReplica) {
  clock().AdvanceTo(Seconds(1));
  for (int i = 1; i <= 10; ++i) Put(0, 1, i);
  clock().Advance(Seconds(1));
  rs().CatchUpAll();
  for (uint32_t id = 0; id < 5; ++id) ASSERT_EQ(rs().applied_seq(id), 10u);
  Put(0, 2, 99);  // A majority applies seq 11; the other followers lag.
  const uint32_t old_master = rs().master_id();
  rs().CrashReplica(old_master);
  clock().Advance(Seconds(5));
  WriteResult w = Put(1, 3, 1);
  ASSERT_TRUE(w.status.ok());
  EXPECT_NE(rs().master_id(), old_master);
  // The new master holds seq 11 (committed data survives by quorum overlap).
  EXPECT_GE(rs().applied_seq(rs().master_id()), 11u);
  ReadResult r = MasterRead(1, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "99");
}

TEST_F(ElectMajorityTest, RecoveredReplicaRejoinsAndCatchesUp) {
  clock().AdvanceTo(Seconds(1));
  for (int i = 1; i <= 5; ++i) Put(0, 1, i);
  rs().CrashReplica(4);
  for (int i = 6; i <= 10; ++i) Put(0, 1, i);
  // Delivery is timed: the last entry reaches site 4 one one-way hop later.
  clock().Advance(network().OneWay(rs().master_site(), rs().replica_site(4)));
  rs().RecoverReplica(4);
  EXPECT_EQ(rs().applied_seq(4), 10u);
  EXPECT_EQ(ValueAt(4, 1, "v"), "10");
}

TEST_F(ElectMajorityTest, ReadAfterWriteSeesTheWrite) {
  clock().AdvanceTo(Seconds(1));
  Put(2, 7, 123);
  ReadResult r = MasterRead(4, 7);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "123");  // No staleness window.
}

TEST_F(ElectMajorityTest, MasterOnlyReadElectsWhenMasterDead) {
  clock().AdvanceTo(Seconds(1));
  Put(0, 1, 5);
  rs().CrashReplica(rs().master_id());
  clock().Advance(Seconds(5));
  ReadResult r = MasterRead(1, 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(ValueToString(*r.value), "5");
  EXPECT_NE(rs().master_id(), 0u);
  EXPECT_GT(r.latency, rs().config().failover_detection);
}

}  // namespace
}  // namespace udr::replication
