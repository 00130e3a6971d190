// Unit tests for src/storage: records, the store, the commit log,
// transactions (isolation anomalies included) and the storage element's
// durability/capacity model.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "location/identity.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/commit_log.h"
#include "storage/record.h"
#include "storage/record_store.h"
#include "storage/storage_element.h"
#include "storage/transaction.h"

namespace udr::storage {
namespace {

// ---------------------------------------------------------------------------
// Record / Value
// ---------------------------------------------------------------------------

TEST(ValueTest, ToStringRendersAllAlternatives) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(true)), "true");
  EXPECT_EQ(ValueToString(Value(std::string("x"))), "x");
  EXPECT_EQ(ValueToString(Value(std::vector<std::string>{"a", "b"})), "[a, b]");
}

TEST(ValueTest, BytesScaleWithContent) {
  EXPECT_EQ(ValueBytes(Value(int64_t{1})), 8);
  EXPECT_GT(ValueBytes(Value(std::string(100, 'x'))), 100);
  EXPECT_GT(ValueBytes(Value(std::vector<std::string>{"aaa", "bbb"})),
            ValueBytes(Value(std::vector<std::string>{"a"})));
}

TEST(RecordTest, SetGetRemove) {
  Record r;
  r.Set("msisdn", std::string("+34600"), 100, 1);
  EXPECT_TRUE(r.Has("msisdn"));
  auto v = r.Get("msisdn");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(ValueToString(*v), "+34600");
  const Attribute* a = r.Find("msisdn");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->modified_at, 100);
  EXPECT_EQ(a->writer, 1u);
  EXPECT_TRUE(r.Remove("msisdn"));
  EXPECT_FALSE(r.Has("msisdn"));
  EXPECT_FALSE(r.Remove("msisdn"));
}

TEST(RecordTest, LastModifiedIsMaxOverAttributes) {
  Record r;
  r.Set("a", int64_t{1}, 100, 0);
  r.Set("b", int64_t{2}, 300, 0);
  r.Set("c", int64_t{3}, 200, 0);
  EXPECT_EQ(r.LastModified(), 300);
}

TEST(RecordTest, ApproxBytesGrowsWithAttributes) {
  Record r;
  int64_t empty = r.ApproxBytes();
  r.Set("authkey", std::string(32, 'f'), 0, 0);
  EXPECT_GT(r.ApproxBytes(), empty + 32);
}

TEST(RecordTest, ContentEqualityIgnoresVersion) {
  Record a, b;
  a.Set("x", int64_t{1}, 5, 0);
  b.Set("x", int64_t{1}, 5, 0);
  b.set_version(99);
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// RecordStore
// ---------------------------------------------------------------------------

TEST(RecordStoreTest, SetAttributeCreatesRecord) {
  RecordStore s;
  EXPECT_FALSE(s.Contains(7));
  s.SetAttribute(7, "imsi", std::string("214"), 10, 0);
  EXPECT_TRUE(s.Contains(7));
  EXPECT_EQ(s.Count(), 1);
  const Record* r = s.Find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->version(), 1u);
}

TEST(RecordStoreTest, VersionBumpsOnEveryWrite) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  s.SetAttribute(1, "a", int64_t{2}, 1, 0);
  s.RemoveAttribute(1, "a");
  EXPECT_EQ(s.Find(1)->version(), 3u);
}

TEST(RecordStoreTest, ByteAccountingTracksMutations) {
  RecordStore s;
  EXPECT_EQ(s.ApproxBytes(), 0);
  s.SetAttribute(1, "blob", std::string(1000, 'x'), 0, 0);
  int64_t with = s.ApproxBytes();
  EXPECT_GT(with, 1000);
  s.RemoveAttribute(1, "blob");
  EXPECT_LT(s.ApproxBytes(), with - 900);
  s.DeleteRecord(1);
  EXPECT_EQ(s.ApproxBytes(), 0);
}

TEST(RecordStoreTest, MutateRecordKeepsByteAccountingInSync) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  int64_t small = s.ApproxBytes();
  // Grow the record behind the store's back — the scoped re-accounting in
  // MutateRecord must still see the delta.
  ASSERT_TRUE(s.MutateRecord(
      1, [](Record& r) { r.Set("blob", std::string(1000, 'x'), 1, 0); }));
  EXPECT_GT(s.ApproxBytes(), small + 1000);
  ASSERT_TRUE(s.MutateRecord(1, [](Record& r) { r.Remove("blob"); }));
  EXPECT_EQ(s.ApproxBytes(), small);
  // Absent key: fn not invoked, false returned.
  EXPECT_FALSE(s.MutateRecord(99, [](Record&) { FAIL(); }));
}

TEST(RecordStoreTest, MutateRecordBumpsVersion) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  uint64_t v = s.Find(1)->version();
  ASSERT_TRUE(s.MutateRecord(1, [](Record& r) { r.Set("b", int64_t{2}, 1, 0); }));
  EXPECT_GT(s.Find(1)->version(), v);
}

TEST(RecordStoreTest, DeleteRecord) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  EXPECT_TRUE(s.DeleteRecord(1));
  EXPECT_FALSE(s.DeleteRecord(1));
  EXPECT_EQ(s.Count(), 0);
}

TEST(RecordStoreTest, PutRecordReplaces) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  Record r;
  r.Set("b", int64_t{2}, 0, 0);
  s.PutRecord(1, r);
  EXPECT_FALSE(s.Find(1)->Has("a"));
  EXPECT_TRUE(s.Find(1)->Has("b"));
}

TEST(RecordStoreTest, ForEachVisitsAll) {
  RecordStore s;
  for (RecordKey k = 0; k < 10; ++k) {
    s.SetAttribute(k, "a", static_cast<int64_t>(k), 0, 0);
  }
  int64_t visited = 0;
  s.ForEach([&](RecordKey, const Record&) { ++visited; });
  EXPECT_EQ(visited, 10);
}

// ---------------------------------------------------------------------------
// CommitLog
// ---------------------------------------------------------------------------

WriteOp Upsert(RecordKey key, const std::string& attr, Value v, MicroTime t) {
  WriteOp op;
  op.kind = WriteKind::kUpsertAttr;
  op.key = key;
  op.attr_id = InternAttr(attr);
  op.attribute = {std::move(v), t, 0};
  return op;
}

TEST(CommitLogTest, AppendAssignsMonotonicSeq) {
  CommitLog log;
  EXPECT_EQ(log.LastSeq(), 0u);
  EXPECT_EQ(log.Append(10, 0, {Upsert(1, "a", int64_t{1}, 10)}), 1u);
  EXPECT_EQ(log.Append(20, 0, {Upsert(1, "a", int64_t{2}, 20)}), 2u);
  EXPECT_EQ(log.LastSeq(), 2u);
  EXPECT_EQ(log.At(1).commit_time, 10);
}

TEST(CommitLogTest, SeqAtTimeBinarySearch) {
  CommitLog log;
  log.Append(10, 0, {});
  log.Append(20, 0, {});
  log.Append(30, 0, {});
  EXPECT_EQ(log.SeqAtTime(5), 0u);
  EXPECT_EQ(log.SeqAtTime(10), 1u);
  EXPECT_EQ(log.SeqAtTime(25), 2u);
  EXPECT_EQ(log.SeqAtTime(1000), 3u);
}

TEST(CommitLogTest, ReplayRangeAppliesInOrder) {
  CommitLog log;
  log.Append(10, 0, {Upsert(1, "a", int64_t{1}, 10)});
  log.Append(20, 0, {Upsert(1, "a", int64_t{2}, 20)});
  log.Append(30, 0, {Upsert(2, "b", int64_t{3}, 30)});
  RecordStore s;
  log.ReplayRange(&s, 0, 2);
  EXPECT_EQ(ValueToString(*s.Find(1)->Get("a")), "2");
  EXPECT_FALSE(s.Contains(2));
  log.ReplayRange(&s, 2, 3);
  EXPECT_TRUE(s.Contains(2));
}

TEST(CommitLogTest, TruncateAfterDiscardsSuffix) {
  CommitLog log;
  log.Append(10, 0, {});
  log.Append(20, 0, {});
  log.Append(30, 0, {});
  log.TruncateAfter(1);
  EXPECT_EQ(log.LastSeq(), 1u);
  log.TruncateAfter(5);  // No-op beyond head.
  EXPECT_EQ(log.LastSeq(), 1u);
}

TEST(CommitLogTest, ApplyDeleteOp) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  WriteOp del;
  del.kind = WriteKind::kDeleteRecord;
  del.key = 1;
  ApplyWriteOp(&s, del);
  EXPECT_FALSE(s.Contains(1));
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  RecordStore store_;
  CommitLog log_;
  TransactionManager mgr_{&store_, &log_, /*replica_id=*/3};
};

TEST_F(TxnTest, CommitAppliesAtomically) {
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(txn.SetAttribute(1, "imsi", std::string("214")).ok());
  ASSERT_TRUE(txn.SetAttribute(1, "msisdn", std::string("+34")).ok());
  ASSERT_TRUE(txn.SetAttribute(2, "imsi", std::string("215")).ok());
  EXPECT_FALSE(store_.Contains(1));  // Nothing visible before commit.
  auto seq = txn.Commit(100);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 1u);
  EXPECT_TRUE(store_.Contains(1));
  EXPECT_TRUE(store_.Contains(2));
  EXPECT_EQ(store_.Find(1)->Find("imsi")->modified_at, 100);
  EXPECT_EQ(store_.Find(1)->Find("imsi")->writer, 3u);
  EXPECT_EQ(log_.At(1).ops.size(), 3u);
}

TEST_F(TxnTest, AbortDiscardsWrites) {
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(txn.SetAttribute(1, "a", int64_t{1}).ok());
  txn.Abort();
  EXPECT_FALSE(store_.Contains(1));
  EXPECT_EQ(log_.LastSeq(), 0u);
  EXPECT_EQ(mgr_.aborts(), 1);
}

TEST_F(TxnTest, DestructorAborts) {
  {
    Transaction txn = mgr_.Begin();
    ASSERT_TRUE(txn.SetAttribute(1, "a", int64_t{1}).ok());
  }
  EXPECT_FALSE(store_.Contains(1));
  EXPECT_EQ(mgr_.aborts(), 1);
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(txn.SetAttribute(1, "a", int64_t{7}).ok());
  auto v = txn.GetAttribute(1, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ValueToString(*v), "7");
  txn.Abort();
}

TEST_F(TxnTest, ReadCommittedDoesNotSeeDirtyWrites) {
  store_.SetAttribute(1, "a", int64_t{1}, 0, 0);
  Transaction writer = mgr_.Begin();
  ASSERT_TRUE(writer.SetAttribute(1, "a", int64_t{99}).ok());

  Transaction reader = mgr_.Begin(IsolationLevel::kReadCommitted);
  auto v = reader.GetAttribute(1, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ValueToString(*v), "1");  // Committed value, not the dirty 99.
  reader.Abort();
  writer.Abort();
}

TEST_F(TxnTest, ReadUncommittedSeesDirtyWrites) {
  store_.SetAttribute(1, "a", int64_t{1}, 0, 0);
  Transaction writer = mgr_.Begin();
  ASSERT_TRUE(writer.SetAttribute(1, "a", int64_t{99}).ok());

  Transaction reader = mgr_.Begin(IsolationLevel::kReadUncommitted);
  auto v = reader.GetAttribute(1, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ValueToString(*v), "99");  // The dirty-read anomaly (§3.2).
  reader.Abort();
  writer.Abort();
}

TEST_F(TxnTest, DirtyReadCanObserveAbortedData) {
  // The canonical READ_UNCOMMITTED anomaly: the reader acted on data that
  // never committed.
  store_.SetAttribute(1, "barred", false, 0, 0);
  Transaction writer = mgr_.Begin();
  ASSERT_TRUE(writer.SetAttribute(1, "barred", true).ok());
  Transaction reader = mgr_.Begin(IsolationLevel::kReadUncommitted);
  auto dirty = reader.GetAttribute(1, "barred");
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(ValueToString(*dirty), "true");
  writer.Abort();  // The write never happened.
  auto after = reader.GetAttribute(1, "barred");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ValueToString(*after), "false");
  reader.Abort();
}

TEST_F(TxnTest, WriteWriteConflictAbortsSecondWriter) {
  Transaction a = mgr_.Begin();
  Transaction b = mgr_.Begin();
  ASSERT_TRUE(a.SetAttribute(1, "x", int64_t{1}).ok());
  Status st = b.SetAttribute(1, "x", int64_t{2});
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(mgr_.conflicts(), 1);
  // Different record: no conflict.
  EXPECT_TRUE(b.SetAttribute(2, "x", int64_t{2}).ok());
  a.Abort();
  // Lock released: b can now write record 1.
  EXPECT_TRUE(b.SetAttribute(1, "x", int64_t{3}).ok());
  ASSERT_TRUE(b.Commit(10).ok());
  EXPECT_EQ(ValueToString(*store_.Find(1)->Get("x")), "3");
}

TEST_F(TxnTest, ReadsNeverBlockOnWriteLocks) {
  // READ_COMMITTED chosen "to prevent locking from delaying reads" (§3.2).
  Transaction writer = mgr_.Begin();
  store_.SetAttribute(1, "a", int64_t{5}, 0, 0);
  ASSERT_TRUE(writer.SetAttribute(1, "a", int64_t{6}).ok());
  Transaction reader = mgr_.Begin();
  EXPECT_TRUE(reader.GetAttribute(1, "a").ok());  // Succeeds immediately.
  reader.Abort();
  writer.Abort();
}

TEST_F(TxnTest, EmptyCommitAppendsNothing) {
  Transaction txn = mgr_.Begin();
  auto seq = txn.Commit(5);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 0u);
  EXPECT_EQ(log_.LastSeq(), 0u);
}

TEST_F(TxnTest, DeleteRecordInTransaction) {
  store_.SetAttribute(1, "a", int64_t{1}, 0, 0);
  Transaction txn = mgr_.Begin();
  ASSERT_TRUE(txn.DeleteRecord(1).ok());
  EXPECT_FALSE(txn.RecordExists(1));     // Gone in own view.
  EXPECT_TRUE(store_.Contains(1));       // Still committed.
  ASSERT_TRUE(txn.Commit(10).ok());
  EXPECT_FALSE(store_.Contains(1));
}

TEST_F(TxnTest, SerializationOrderMatchesCommitOrder) {
  Transaction a = mgr_.Begin();
  Transaction b = mgr_.Begin();
  ASSERT_TRUE(a.SetAttribute(1, "x", int64_t{1}).ok());
  ASSERT_TRUE(b.SetAttribute(2, "y", int64_t{2}).ok());
  ASSERT_TRUE(b.Commit(10).ok());   // b commits first.
  ASSERT_TRUE(a.Commit(20).ok());
  EXPECT_EQ(log_.At(1).ops[0].key, 2u);
  EXPECT_EQ(log_.At(2).ops[0].key, 1u);
}

TEST_F(TxnTest, MoveTransfersOwnership) {
  Transaction a = mgr_.Begin();
  ASSERT_TRUE(a.SetAttribute(1, "x", int64_t{1}).ok());
  Transaction b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  ASSERT_TRUE(b.Commit(10).ok());
  EXPECT_TRUE(store_.Contains(1));
}

// ---------------------------------------------------------------------------
// StorageElement durability model
// ---------------------------------------------------------------------------

StorageElementConfig SmallSe() {
  StorageElementConfig cfg;
  cfg.name = "test-se";
  cfg.ram_budget_bytes = 1 << 20;
  cfg.checkpoint_period = Seconds(60);
  return cfg;
}

TEST(StorageElementTest, CheckpointTimesQuantized) {
  sim::SimClock clock;
  StorageElement se(SmallSe(), &clock);
  EXPECT_EQ(se.LastCheckpointTime(Seconds(59)), 0);
  EXPECT_EQ(se.LastCheckpointTime(Seconds(60)), Seconds(60));
  EXPECT_EQ(se.LastCheckpointTime(Seconds(185)), Seconds(180));
}

TEST(StorageElementTest, CrashLosesPostCheckpointCommits) {
  sim::SimClock clock;
  StorageElement se(SmallSe(), &clock);
  // Commit at t=10s (before checkpoint at 60s) and t=70s (after).
  clock.AdvanceTo(Seconds(10));
  {
    Transaction txn = se.Begin();
    ASSERT_TRUE(txn.SetAttribute(1, "a", int64_t{1}).ok());
    ASSERT_TRUE(txn.Commit(clock.Now()).ok());
  }
  clock.AdvanceTo(Seconds(70));
  {
    Transaction txn = se.Begin();
    ASSERT_TRUE(txn.SetAttribute(2, "b", int64_t{2}).ok());
    ASSERT_TRUE(txn.Commit(clock.Now()).ok());
  }
  clock.AdvanceTo(Seconds(90));
  CrashRecovery rec = se.CrashAndRecoverLocally(clock.Now());
  EXPECT_EQ(rec.last_seq_before_crash, 2u);
  EXPECT_EQ(rec.recovered_seq, 1u);  // Checkpoint at 60s captured seq 1 only.
  EXPECT_EQ(rec.lost_transactions, 1);
  EXPECT_EQ(rec.data_loss_window, Seconds(20));
  EXPECT_TRUE(se.store().Contains(1));
  EXPECT_FALSE(se.store().Contains(2));
  EXPECT_EQ(se.log().LastSeq(), 1u);
}

TEST(StorageElementTest, WalSyncModeLosesNothing) {
  sim::SimClock clock;
  StorageElementConfig cfg = SmallSe();
  cfg.wal_sync_commit = true;
  StorageElement se(cfg, &clock);
  clock.AdvanceTo(Seconds(10));
  {
    Transaction txn = se.Begin();
    ASSERT_TRUE(txn.SetAttribute(1, "a", int64_t{1}).ok());
    ASSERT_TRUE(txn.Commit(clock.Now()).ok());
  }
  clock.AdvanceTo(Seconds(30));
  CrashRecovery rec = se.CrashAndRecoverLocally(clock.Now());
  EXPECT_EQ(rec.lost_transactions, 0);
  EXPECT_TRUE(se.store().Contains(1));
}

TEST(StorageElementTest, WalSyncCostsLatency) {
  sim::SimClock clock;
  StorageElementConfig plain = SmallSe();
  StorageElementConfig synced = SmallSe();
  synced.wal_sync_commit = true;
  StorageElement a(plain, &clock), b(synced, &clock);
  EXPECT_GT(b.WriteServiceTime(), a.WriteServiceTime() + Millis(3));
  EXPECT_EQ(a.ReadServiceTime(), b.ReadServiceTime());  // Reads unaffected.
}

TEST(StorageElementTest, ShorterCheckpointPeriodSlowsEngine) {
  sim::SimClock clock;
  StorageElementConfig fast = SmallSe();
  fast.checkpoint_period = Minutes(5);
  StorageElementConfig busy = SmallSe();
  busy.checkpoint_period = Seconds(10);
  StorageElement a(fast, &clock), b(busy, &clock);
  EXPECT_GT(b.ReadServiceTime(), a.ReadServiceTime());
  EXPECT_GT(b.WriteServiceTime(), a.WriteServiceTime());
}

TEST(StorageElementTest, CapacityAdmission) {
  sim::SimClock clock;
  StorageElementConfig cfg = SmallSe();
  cfg.ram_budget_bytes = 4096;
  StorageElement se(cfg, &clock);
  EXPECT_TRUE(se.CheckCapacity(1000).ok());
  {
    Transaction txn = se.Begin();
    ASSERT_TRUE(txn.SetAttribute(1, "blob", std::string(3000, 'x')).ok());
    ASSERT_TRUE(txn.Commit(0).ok());
  }
  EXPECT_TRUE(se.CheckCapacity(2000).IsResourceExhausted());
  EXPECT_LT(se.FreeBytes(), 4096 - 3000);
}

TEST(StorageElementTest, SubscriberCapacityArithmetic) {
  sim::SimClock clock;
  StorageElementConfig cfg = SmallSe();
  cfg.ram_budget_bytes = 200LL * 1000 * 1000 * 1000;
  StorageElement se(cfg, &clock);
  // 200 GB / 100 KB per average profile = 2e6 subscribers (paper §3.5).
  EXPECT_EQ(se.SubscriberCapacity(100 * 1000), 2'000'000);
}

// ---------------------------------------------------------------------------
// Packed-layout properties: pack/unpack round trips and byte accounting
// ---------------------------------------------------------------------------

/// Random value spanning every alternative, with string sizes straddling the
/// SSO boundary (the interesting edge of the heap-byte model).
Value RandomValue(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return Value(static_cast<int64_t>(rng.Next()));
    case 1:
      return Value(rng.Uniform(2) == 0);
    case 2:
      return Value(std::string(rng.Uniform(40), 'a' + rng.Uniform(26)));
    default: {
      std::vector<std::string> items(rng.Uniform(4) + 1);
      for (auto& s : items) s.assign(rng.Uniform(30), 'x');
      return Value(items);
    }
  }
}

/// Random record over a bounded attribute universe (collisions on purpose:
/// overwrites exercise the in-place update path).
Record RandomRecord(Rng& rng) {
  Record r;
  const uint64_t attrs = rng.Uniform(12) + 1;
  for (uint64_t a = 0; a < attrs; ++a) {
    const std::string name = "attr-" + std::to_string(rng.Uniform(16));
    r.Set(name, RandomValue(rng), static_cast<MicroTime>(rng.Uniform(1u << 30)),
          static_cast<uint32_t>(rng.Uniform(4)));
  }
  return r;
}

TEST(PackedLayoutPropertyTest, MapRoundTripPreservesEveryRecord) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Record original = RandomRecord(rng);
    Record round = Record::FromMap(original.ToMap());
    EXPECT_EQ(original, round) << "trial " << trial;
    // The unpacked view resolves the same names to the same attributes.
    for (const auto& [name, attr] : original.ToMap()) {
      const Attribute* found = round.Find(name);
      ASSERT_NE(found, nullptr) << name;
      EXPECT_EQ(*found, attr);
    }
    // Entries stay strictly sorted by interned id (binary-search invariant).
    const auto& entries = round.entries();
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].name_id, entries[i].name_id);
    }
  }
}

TEST(PackedLayoutPropertyTest, ByteAccountingSurvivesGrowShrink) {
  Rng rng(7777);
  RecordStore store;
  const auto recompute = [&store] {
    int64_t total = 0;
    store.ForEach([&total](RecordKey, const Record& r) {
      total += r.ApproxBytes();
    });
    return total;
  };
  for (int step = 0; step < 3000; ++step) {
    const RecordKey key = rng.Uniform(20) + 1;
    const std::string name = "attr-" + std::to_string(rng.Uniform(16));
    switch (rng.Uniform(5)) {
      case 0:
      case 1:  // Grow (or overwrite with a differently-sized value).
        store.SetAttribute(key, name, RandomValue(rng),
                           static_cast<MicroTime>(step), 0);
        break;
      case 2:  // Shrink.
        store.RemoveAttribute(key, name);
        break;
      case 3:  // Arbitrary in-place mutation through the accounting guard.
        store.MutateRecord(key, [&](Record& r) {
          r.Set(name, RandomValue(rng), static_cast<MicroTime>(step), 1);
          r.Remove("attr-" + std::to_string(rng.Uniform(16)));
        });
        break;
      default:
        if (rng.Uniform(10) == 0) store.DeleteRecord(key);
        break;
    }
    if (step % 100 == 0) {
      EXPECT_EQ(store.ApproxBytes(), recompute()) << "step " << step;
    }
  }
  EXPECT_EQ(store.ApproxBytes(), recompute());
}

TEST(PackedLayoutPropertyTest, RecordsSurviveMigrationStreamChunks) {
  // Packed records, serialized as interned-id WriteOps through the commit
  // log, must reassemble identically on the far side of a chunked
  // MigrationStream (the background-migration wire path).
  sim::SimClock clock;
  auto network =
      std::make_unique<sim::Network>(sim::Topology(4, sim::LatencyConfig()),
                                     &clock);
  std::vector<std::unique_ptr<StorageElement>> ses;
  for (uint32_t s = 0; s < 4; ++s) {
    StorageElementConfig cfg;
    cfg.name = "se-" + std::to_string(s);
    cfg.site = s;
    ses.push_back(std::make_unique<StorageElement>(cfg, &clock, s));
  }
  replication::ReplicaSet rs(
      replication::ReplicaSetConfig(),
      {ses[0].get(), ses[1].get(), ses[2].get()}, network.get());

  Rng rng(31337);
  std::map<RecordKey, Record> originals;
  for (RecordKey key = 1; key <= 25; ++key) {
    Record r = RandomRecord(rng);
    replication::WriteBuilder wb;
    for (const auto& e : r.entries()) {
      wb.Set(key, e.name_id, e.attr.value);
    }
    ASSERT_TRUE(rs.Write(0, std::move(wb).Build()).status.ok());
    originals[key] = *rs.replica_store(rs.master_id()).Find(key);
  }

  auto stream = rs.BeginPrimaryMigration(ses[3].get());
  ASSERT_TRUE(stream.ok());
  int chunks = 0;
  while (!stream.value().copy_done()) {
    auto shipped = rs.ShipMigrationChunk(&stream.value(), 512);
    ASSERT_TRUE(shipped.ok());
    ++chunks;
    ASSERT_LT(chunks, 100000);
  }
  EXPECT_GT(chunks, 1) << "chunk size too large to exercise chunking";
  ASSERT_TRUE(rs.CompleteMigration(&stream.value()).ok());

  const RecordStore& migrated = ses[3]->store();
  for (const auto& [key, original] : originals) {
    const Record* got = migrated.Find(key);
    ASSERT_NE(got, nullptr) << "record " << key << " lost in migration";
    EXPECT_EQ(*got, original) << "record " << key;
  }
}

// ---------------------------------------------------------------------------
// ApplyWriteOps: applying upsert runs per record equals op-by-op apply
// ---------------------------------------------------------------------------

const std::vector<RecordKey> kFewKeys = {1, 2, 3, 4, 5, 6, 7, 8};

/// Random write set over `keys`: runs of upserts to one key (creating
/// records, overwriting attributes and adding new ones), removes and record
/// deletes inside and between runs, and ops of other keys interleaved.
std::vector<WriteOp> RandomWriteSet(
    Rng& rng, MicroTime at, const std::vector<RecordKey>& keys = kFewKeys) {
  const auto any_key = [&] { return keys[rng.Uniform(keys.size())]; };
  std::vector<WriteOp> ops;
  const uint64_t runs = rng.Uniform(5) + 1;
  for (uint64_t r = 0; r < runs; ++r) {
    const RecordKey run_key = any_key();
    const uint64_t len = rng.Uniform(12) + 1;
    for (uint64_t i = 0; i < len; ++i) {
      WriteOp op;
      op.key = rng.Uniform(6) == 0 ? any_key() : run_key;
      op.attr_id = InternAttr("attr-" + std::to_string(rng.Uniform(16)));
      switch (rng.Uniform(12)) {
        case 0:
          op.kind = WriteKind::kRemoveAttr;
          break;
        case 1:
          op.kind = WriteKind::kDeleteRecord;
          break;
        default:
          op.kind = WriteKind::kUpsertAttr;
          op.attribute = {RandomValue(rng), at,
                          static_cast<uint32_t>(rng.Uniform(3))};
          break;
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

TEST(ApplyWriteOpsTest, MatchesOpByOpApply) {
  Rng rng(4242);
  RecordStore batched;
  RecordStore single;
  int creating_runs = 0;
  int overwriting_runs = 0;
  for (int entry = 0; entry < 3000; ++entry) {
    const std::vector<WriteOp> ops = RandomWriteSet(rng, entry);
    ApplyWriteOps(&batched, ops);
    for (size_t i = 0; i < ops.size(); ++i) {
      const WriteOp& op = ops[i];
      const auto same_run = [&op](const WriteOp& other) {
        return other.kind == WriteKind::kUpsertAttr && other.key == op.key;
      };
      // Coverage: count multi-op upsert runs by whether they create the
      // record (the reserving path) or mutate an existing one.
      if (op.kind == WriteKind::kUpsertAttr &&
          (i == 0 || !same_run(ops[i - 1])) && i + 1 < ops.size() &&
          same_run(ops[i + 1])) {
        ++(single.Contains(op.key) ? overwriting_runs : creating_runs);
      }
      ApplyWriteOp(&single, op);
    }
    ASSERT_EQ(batched.Count(), single.Count()) << "entry " << entry;
    ASSERT_EQ(batched.ApproxBytes(), single.ApproxBytes()) << "entry " << entry;
    single.ForEach([&](RecordKey key, const Record& expected) {
      const Record* got = batched.Find(key);
      ASSERT_NE(got, nullptr) << "entry " << entry << " key " << key;
      EXPECT_EQ(*got, expected) << "entry " << entry << " key " << key;
      EXPECT_EQ(got->version(), expected.version())
          << "entry " << entry << " key " << key;
    });
  }
  EXPECT_GT(creating_runs, 100);
  EXPECT_GT(overwriting_runs, 100);
}

// ---------------------------------------------------------------------------
// RecordStore flat table: seeded random ops against a std::unordered_map
// oracle (lookups, scan, byte accounting)
// ---------------------------------------------------------------------------

using Oracle = std::unordered_map<RecordKey, Record>;

/// The oracle's reading of one write op, built on Record alone.
void ApplyToOracle(Oracle* oracle, const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kUpsertAttr: {
      Record& r = (*oracle)[op.key];
      r.SetById(op.attr_id, op.attribute.value, op.attribute.modified_at,
                op.attribute.writer);
      r.bump_version();
      break;
    }
    case WriteKind::kRemoveAttr: {
      auto it = oracle->find(op.key);
      if (it != oracle->end()) {
        it->second.RemoveById(op.attr_id);
        it->second.bump_version();
      }
      break;
    }
    case WriteKind::kDeleteRecord:
      oracle->erase(op.key);
      break;
  }
}

/// Find, Contains, Count, ForEach and ApproxBytes of `store` agree with
/// `oracle` over every key of `keys`.
void ExpectMatchesOracle(const RecordStore& store, const Oracle& oracle,
                         const std::vector<RecordKey>& keys,
                         const std::string& where) {
  ASSERT_EQ(store.Count(), static_cast<int64_t>(oracle.size())) << where;
  int64_t bytes = 0;
  for (const auto& [key, r] : oracle) bytes += r.ApproxBytes();
  ASSERT_EQ(store.ApproxBytes(), bytes) << where;
  for (RecordKey key : keys) {
    auto it = oracle.find(key);
    const Record* got = store.Find(key);
    ASSERT_EQ(store.Contains(key), it != oracle.end()) << where << " " << key;
    if (it == oracle.end()) {
      ASSERT_EQ(got, nullptr) << where << " " << key;
      continue;
    }
    ASSERT_NE(got, nullptr) << where << " " << key;
    ASSERT_EQ(*got, it->second) << where << " " << key;
    ASSERT_EQ(got->version(), it->second.version()) << where << " " << key;
  }
  std::unordered_set<RecordKey> visited;
  store.ForEach([&](RecordKey key, const Record& r) {
    EXPECT_TRUE(visited.insert(key).second) << where << " twice: " << key;
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << where << " dead key: " << key;
    EXPECT_EQ(&r, store.Find(key)) << where << " " << key;
  });
  ASSERT_EQ(visited.size(), oracle.size()) << where;
}

/// `steps` random operations over `keys` on both `store` and `oracle`,
/// checked after each one. Clear is rare so the table has time to grow.
/// Returns the largest slot count the table reached.
size_t RunAgainstOracle(Rng& rng, const std::vector<RecordKey>& keys,
                        int steps, RecordStore* store, Oracle* oracle) {
  size_t max_slots = 0;
  const auto live_or_any = [&]() -> RecordKey {
    if (oracle->empty() || rng.Uniform(4) == 0) {
      return keys[rng.Uniform(keys.size())];
    }
    auto it = oracle->begin();
    std::advance(it, rng.Uniform(oracle->size()));
    return it->first;
  };
  for (int step = 0; step < steps; ++step) {
    const std::string where = "step " + std::to_string(step);
    const uint64_t pick = rng.Uniform(200);
    if (pick < 100) {
      const std::vector<WriteOp> ops = RandomWriteSet(rng, step, keys);
      ApplyWriteOps(store, ops);
      for (const WriteOp& op : ops) ApplyToOracle(oracle, op);
    } else if (pick < 125) {
      const RecordKey key = live_or_any();
      Record r = RandomRecord(rng);
      r.set_version(rng.Uniform(100));
      store->PutRecord(key, r);
      (*oracle)[key] = std::move(r);
    } else if (pick < 150) {
      const RecordKey key = live_or_any();
      const AttrId attr = InternAttr("attr-" + std::to_string(rng.Uniform(16)));
      const Value v = RandomValue(rng);
      const bool remove = rng.Uniform(3) == 0;
      const auto fn = [&](Record& r) {
        if (remove) {
          r.RemoveById(attr);
        } else {
          r.SetById(attr, v, step, 1);
        }
      };
      auto it = oracle->find(key);
      EXPECT_EQ(store->MutateRecord(key, fn), it != oracle->end()) << where;
      if (it != oracle->end()) {
        fn(it->second);
        it->second.bump_version();
      }
    } else if (pick < 175) {
      const RecordKey key = live_or_any();
      EXPECT_EQ(store->DeleteRecord(key), oracle->erase(key) == 1) << where;
    } else if (pick < 199) {
      // Strip one record down to no attributes: the last removal also gives
      // back the entry array's allocation header.
      const RecordKey key = live_or_any();
      auto it = oracle->find(key);
      if (it == oracle->end()) continue;
      while (it->second.attribute_count() > 0) {
        const AttrId attr = it->second.entries().front().name_id;
        store->RemoveAttribute(key, attr);
        it->second.RemoveById(attr);
        it->second.bump_version();
      }
    } else {
      store->Clear();
      oracle->clear();
    }
    ExpectMatchesOracle(*store, *oracle, keys, where);
    if (::testing::Test::HasFatalFailure()) break;
    max_slots = std::max(max_slots, store->slot_count());
  }
  return max_slots;
}

TEST(RecordStoreOracleTest, SequentialKeysThroughSeveralGrows) {
  Rng rng(17);
  std::vector<RecordKey> keys;
  for (RecordKey k = 0; k < 600; ++k) keys.push_back(k);
  RecordStore store;
  Oracle oracle;
  // 8 -> 16 -> ... -> 1024 slots at least.
  EXPECT_GE(RunAgainstOracle(rng, keys, 3000, &store, &oracle), 1024u);
}

TEST(RecordStoreOracleTest, HashIdentityKeysThroughSeveralGrows) {
  Rng rng(18);
  std::vector<RecordKey> keys;
  for (int i = 0; i < 600; ++i) {
    keys.push_back(location::HashIdentity(
        {location::IdentityType::kImsi, "21401" + std::to_string(1000000 + i)}));
  }
  RecordStore store;
  Oracle oracle;
  EXPECT_GE(RunAgainstOracle(rng, keys, 3000, &store, &oracle), 1024u);
}

TEST(RecordStoreOracleTest, EraseShiftsBackAcrossTheEndOfTheTable) {
  // Six keys fit the first 8-slot table (3/4 load). Four of them are homed
  // in the last slot and two in the one before, so the probe run wraps
  // past the end and a backward-shift erase pulls records back across it.
  std::vector<RecordKey> keys;
  int homed_last = 0;
  int homed_before = 0;
  for (RecordKey k = 0; keys.size() < 6; ++k) {
    const uint64_t home = RecordStore::Hash(k) & 7;
    if (home == 7 && homed_last < 4) {
      ++homed_last;
      keys.push_back(k);
    } else if (home == 6 && homed_before < 2) {
      ++homed_before;
      keys.push_back(k);
    }
  }
  Rng rng(19);
  RecordStore store;
  Oracle oracle;
  EXPECT_EQ(RunAgainstOracle(rng, keys, 3000, &store, &oracle), 8u);
}

}  // namespace
}  // namespace udr::storage
