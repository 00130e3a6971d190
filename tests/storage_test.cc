// Unit tests for src/storage: records, the store, the commit log,
// transactions (isolation anomalies included) and the storage element's
// durability/capacity model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "location/identity.h"
#include "location/identity_index.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/commit_log.h"
#include "storage/record.h"
#include "storage/record_store.h"
#include "storage/storage_element.h"
#include "storage/transaction.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

namespace udr::storage {
namespace {

// ---------------------------------------------------------------------------
// Record / Value
// ---------------------------------------------------------------------------

TEST(ValueTest, ToStringRendersAllAlternatives) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(true)), "true");
  EXPECT_EQ(ValueToString(Value(std::string("x"))), "x");
  EXPECT_EQ(ValueToString(Value(StringList{"a", "b"})), "[a, b]");
}

TEST(ValueTest, BytesScaleWithContent) {
  EXPECT_EQ(ValueBytes(Value(int64_t{1})), 8);
  EXPECT_GT(ValueBytes(Value(std::string(100, 'x'))), 100);
  EXPECT_GT(ValueBytes(Value(StringList{"aaa", "bbb"})),
            ValueBytes(Value(StringList{"a"})));
}

// ---------------------------------------------------------------------------
// CompactString / StringList: the 16-byte string alternatives of Value
// ---------------------------------------------------------------------------

TEST(CompactValueTest, SizesArePinned) {
  EXPECT_EQ(sizeof(CompactString), 16u);
  EXPECT_EQ(sizeof(StringList), 16u);
  EXPECT_EQ(sizeof(Value), 24u);
  EXPECT_EQ(sizeof(Attribute), 32u);
  EXPECT_EQ(sizeof(PackedAttr), 40u);
  EXPECT_EQ(sizeof(WriteOp), 48u);
  EXPECT_EQ(sizeof(LogEntry), 48u);
}

TEST(CompactValueTest, StringsRoundTripAcrossTheInlineLimit) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{255}}) {
    std::string text;
    for (size_t i = 0; i < n; ++i) text.push_back(static_cast<char>('a' + i % 26));
    const CompactString s(text);
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.empty(), n == 0);
    EXPECT_EQ(s.on_heap(), n > CompactString::kInlineMax) << n;
    EXPECT_EQ(s.view(), text);
    EXPECT_EQ(s.str(), text);
    EXPECT_EQ(s, text);
    EXPECT_EQ(text, s);
    CompactString copy(s);
    EXPECT_EQ(copy, s);
    // A heap copy shares the block; inline chars live in each holder.
    EXPECT_EQ(copy.data() == s.data(), s.on_heap()) << n;
    CompactString moved(std::move(copy));
    EXPECT_EQ(moved, text);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    CompactString assigned("x");
    assigned = moved;
    EXPECT_EQ(assigned, text);
    assigned = CompactString(std::string(40, 'q'));
    EXPECT_EQ(assigned, std::string(40, 'q'));
    // The bytes survive the original's destruction.
    const Value v = [&] { return Value(CompactString(text)); }();
    EXPECT_EQ(std::get<CompactString>(v), text);
  }
  const CompactString embedded(std::string_view("a\0b", 3));
  EXPECT_EQ(embedded.size(), 3u);
  EXPECT_EQ(embedded, std::string_view("a\0b", 3));
  EXPECT_NE(embedded, "a");
}

TEST(CompactValueTest, ListsRoundTrip) {
  const std::vector<std::vector<std::string>> cases = {
      {},
      {"ts11"},
      {""},
      {"", ""},
      {"sip:+34600000001@ims.mnc005.mcc214.3gppnetwork.org", "",
       "tel:+34600000001", std::string(15, 'f'), std::string(16, 's'),
       std::string(255, 'l'), "x"},
  };
  for (const std::vector<std::string>& items : cases) {
    const StringList list(items);
    ASSERT_EQ(list.size(), items.size());
    EXPECT_EQ(list.empty(), items.empty());
    for (size_t i = 0; i < items.size(); ++i) EXPECT_EQ(list[i], items[i]);
    EXPECT_EQ(std::vector<std::string>(list.begin(), list.end()), items);
    const StringList copy(list);
    EXPECT_EQ(copy, list);
    StringList source(list);
    StringList moved(std::move(source));
    EXPECT_EQ(moved, list);
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    StringList assigned{"old"};
    assigned = copy;
    EXPECT_EQ(assigned, list);
  }
  // Equal content, different splits: not equal.
  EXPECT_NE((StringList{"ab", "c"}), (StringList{"a", "bc"}));
  EXPECT_NE((StringList{""}), StringList());
  EXPECT_NE((StringList{"a"}), (StringList{"a", ""}));
  EXPECT_EQ((StringList{"a", ""}), (StringList{"a", ""}));
}

// A copy holds the same block, not a copy of its bytes; the block lives
// while any holder does, and assigning over one holder drops only that
// holder's share. The sanitizer stage checks the frees (no leak, no double
// free).
TEST(CompactValueTest, CopiesShareOneBlockUntilTheLastHolderGoes) {
  const std::string text(40, 'k');
  std::vector<CompactString> holders;
  holders.emplace_back(text);
  const char* bytes = holders[0].data();
  for (int i = 0; i < 3; ++i) holders.push_back(holders[0]);
  CompactString assigned("short");
  assigned = holders[1];
  for (const CompactString& h : holders) EXPECT_EQ(h.data(), bytes);
  EXPECT_EQ(assigned.data(), bytes);

  // Assigning over holders, by copy and by move, leaves the others intact.
  const CompactString other(std::string(20, 'o'));
  holders[1] = other;
  holders[2] = CompactString(std::string(30, 'm'));
  holders[3] = CompactString("inline");
  EXPECT_EQ(holders[1].data(), other.data());
  EXPECT_EQ(holders[2], std::string(30, 'm'));
  EXPECT_EQ(holders[3], "inline");
  EXPECT_EQ(holders[0], text);
  EXPECT_EQ(assigned, text);
  const CompactString& self = assigned;
  assigned = self;  // Self-assignment keeps the one share.
  EXPECT_EQ(assigned.data(), bytes);

  // The bytes survive the destruction of every other holder.
  holders.clear();
  EXPECT_EQ(assigned, text);
  EXPECT_EQ(assigned.data(), bytes);
  EXPECT_EQ(other, std::string(20, 'o'));
}

TEST(CompactValueTest, ListCopiesShareOneBlockUntilTheLastHolderGoes) {
  const std::vector<std::string> items = {"sip:+34600000001@ims.example",
                                          "tel:+34600000001", "x"};
  std::vector<StringList> holders;
  holders.emplace_back(items);
  const char* bytes = holders[0][0].data();
  for (int i = 0; i < 3; ++i) holders.push_back(holders[0]);
  StringList assigned{"old"};
  assigned = holders[1];
  for (const StringList& h : holders) EXPECT_EQ(h[0].data(), bytes);
  EXPECT_EQ(assigned[0].data(), bytes);

  const StringList other{"ts11", "ts21"};
  holders[1] = other;
  holders[2] = StringList{"moved"};
  holders[3] = StringList();
  EXPECT_EQ(holders[1][0].data(), other[0].data());
  EXPECT_EQ(holders[2], (StringList{"moved"}));
  EXPECT_TRUE(holders[3].empty());
  EXPECT_EQ(std::vector<std::string>(holders[0].begin(), holders[0].end()),
            items);
  const StringList& self = assigned;
  assigned = self;  // Self-assignment keeps the one share.
  EXPECT_EQ(assigned[0].data(), bytes);

  holders.clear();
  EXPECT_EQ(std::vector<std::string>(assigned.begin(), assigned.end()), items);
  EXPECT_EQ(assigned[0].data(), bytes);

  // A Value copy shares too, so a record entry copied into a read result
  // or a commit-log op holds the stored bytes.
  const Value v(StringList{"a", std::string(30, 'b')});
  const Value copy = v;
  EXPECT_EQ(std::get<StringList>(copy)[1].data(),
            std::get<StringList>(v)[1].data());
}

TEST(CompactValueTest, ALiteralIsAStringNotABool) {
  const Value v("literal");
  ASSERT_TRUE(std::holds_alternative<CompactString>(v));
  EXPECT_EQ(std::get<CompactString>(v), "literal");
  EXPECT_TRUE(std::holds_alternative<CompactString>(Value(std::string("s"))));
  EXPECT_TRUE(std::holds_alternative<CompactString>(Value(std::string_view("s"))));
  EXPECT_TRUE(std::holds_alternative<bool>(Value(true)));
  EXPECT_TRUE(std::holds_alternative<int64_t>(Value(int64_t{1})));
}

TEST(CompactValueTest, EqualityIsPerAlternative) {
  EXPECT_TRUE(ValueEquals(Value("1"), Value(CompactString("1"))));
  EXPECT_FALSE(ValueEquals(Value("1"), Value(int64_t{1})));
  EXPECT_FALSE(ValueEquals(Value("true"), Value(true)));
  EXPECT_FALSE(ValueEquals(Value(int64_t{1}), Value(true)));
  EXPECT_FALSE(ValueEquals(Value("a"), Value(StringList{"a"})));
  EXPECT_FALSE(ValueEquals(Value(""), Value(StringList())));
  EXPECT_TRUE(ValueEquals(Value(StringList{"a", std::string(20, 'b')}),
                          Value(StringList{"a", std::string(20, 'b')})));
  EXPECT_FALSE(ValueEquals(Value(std::string(20, 'b')),
                           Value(std::string(20, 'c'))));
}

TEST(CompactValueTest, ToStringRendersTheNewTypes) {
  EXPECT_EQ(ValueToString(Value("")), "");
  EXPECT_EQ(ValueToString(Value(std::string(20, 'z'))), std::string(20, 'z'));
  EXPECT_EQ(ValueToString(Value(StringList())), "[]");
  EXPECT_EQ(ValueToString(Value(StringList{""})), "[]");
  EXPECT_EQ(ValueToString(Value(StringList{"a", "", "c"})), "[a, , c]");
}

TEST(CompactValueTest, ByteModelsChargeTheStdStringLayout) {
  // ValueBytes and ValueHeapBytes of the std::string / std::vector layout:
  // the numbers the model gave when Value held those types.
  struct Row {
    const char* name;
    Value value;
    int64_t wire;
    int64_t heap;
  };
  const Row rows[] = {
      {"int", Value(int64_t{-7}), 8, 0},
      {"bool", Value(true), 1, 0},
      {"empty string", Value(""), 16, 0},
      {"15 chars", Value(std::string(15, 'x')), 31, 0},
      {"16 chars", Value(std::string(16, 'x')), 32, 33},
      {"255 chars", Value(std::string(255, 'x')), 271, 272},
      {"empty list", Value(StringList()), 24, 0},
      {"one empty string", Value(StringList{""}), 40, 48},
      {"teleservices", Value(StringList{"ts11", "ts21", "ts22"}), 84, 112},
      {"mixed list",
       Value(StringList{"a", "", std::string(16, 'y'), std::string(40, 'z')}),
       145, 234},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ValueBytes(row.value), row.wire) << row.name;
    EXPECT_EQ(ValueHeapBytes(row.value), row.heap) << row.name;
  }
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

TEST(RecordTest, SharedPayloadsCompareEqualUntilAWriteClones) {
  Record a;
  a.Set("msisdn", std::string("+34600000001"), 1, 0);
  a.Set("impu", StringList{"sip:a@ims.example", "tel:+34"}, 2, 0);
  const Record b = a.Share();
  ASSERT_TRUE(a.SharesPayloadWith(b));
  EXPECT_TRUE(a == b);
  a.Set("msisdn", std::string("+34600000002"), 3, 0);
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_FALSE(a == b);
  EXPECT_EQ(ValueToString(*b.Get("msisdn")), "+34600000001");
  EXPECT_TRUE(Record() == Record());
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

TEST(CommitLogTest, OneRunEntriesCarryTheirKey) {
  CommitLog log;
  log.Append(1, 0, {Upsert(5, "a", int64_t{1}, 1), Upsert(5, "b", int64_t{2}, 1)});
  log.Append(2, 0, {Upsert(5, "a", int64_t{3}, 2), Upsert(6, "a", int64_t{3}, 2)});
  WriteOp remove;
  remove.kind = WriteKind::kRemoveAttr;
  remove.key = 5;
  remove.attr_id = InternAttr("a");
  log.Append(3, 0, {remove});
  log.Append(4, 0, {});
  log.Append(5, 0, {Upsert(6, "a", int64_t{4}, 5)});
  EXPECT_TRUE(log.At(1).one_run);
  EXPECT_EQ(log.At(1).run_key, 5u);
  EXPECT_FALSE(log.At(2).one_run);  // Two keys.
  EXPECT_FALSE(log.At(3).one_run);  // A remove.
  EXPECT_FALSE(log.At(4).one_run);  // No ops.
  EXPECT_TRUE(log.At(5).one_run);
  EXPECT_EQ(log.At(5).run_key, 6u);
  // The sequence is the position: it survives a truncation.
  log.TruncateAfter(2);
  EXPECT_EQ(log.LastSeq(), 2u);
  EXPECT_EQ(log.Append(6, 0, {}), 3u);
  EXPECT_EQ(log.SeqAtTime(5), 2u);
  EXPECT_EQ(log.SeqAtTime(6), 3u);
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
      return Value(StringList(items));
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

TEST(PackedLayoutPropertyTest, RebuildByNameKeepsEntriesSortedAndFindable) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const Record original = RandomRecord(rng);
    Record rebuilt;
    original.ForEachAttribute([&rebuilt](std::string_view name,
                                         const Attribute& attr) {
      rebuilt.Set(name, attr.value, attr.modified_at, attr.writer);
    });
    EXPECT_EQ(original, rebuilt) << "trial " << trial;
    // Every name resolves through Find to its attribute.
    original.ForEachAttribute([&rebuilt](std::string_view name,
                                         const Attribute& attr) {
      const Attribute* found = rebuilt.Find(name);
      ASSERT_NE(found, nullptr) << name;
      EXPECT_EQ(*found, attr);
    });
    // Entries stay strictly sorted by interned id (binary-search invariant).
    const auto& entries = rebuilt.entries();
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].name_id, entries[i].name_id);
    }
  }
}

TEST(PackedLayoutPropertyTest, ProfilesCostAtMost1571BytesPerSubscriber) {
  // The packed layout's modelled footprint of a standard subscriber profile:
  // 1,571 B/subscriber at 20k and at 1M profiles. Streamed, so the case
  // holds one profile at a time.
  const telecom::SubscriberFactory factory(42);
  constexpr int64_t kProfiles = 100000;
  int64_t total = 0;
  for (int64_t i = 0; i < kProfiles; ++i) {
    total += factory.Make(static_cast<uint64_t>(i)).profile.ApproxBytes();
  }
  EXPECT_LE(total / kProfiles, 1571);
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
  // Three replicas over four sites: the fourth SE is the migration target.
  workload::ReplicaRig rig(replication::ReplicaSetConfig(), 4,
                           sim::LatencyConfig(), 3);
  replication::ReplicaSet& rs = rig.set();

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

  auto stream = rs.BeginPrimaryMigration(&rig.se(3));
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

  const RecordStore& migrated = rig.se(3).store();
  for (const auto& [key, original] : originals) {
    const Record* got = migrated.Find(key);
    ASSERT_NE(got, nullptr) << "record " << key << " lost in migration";
    EXPECT_EQ(*got, original) << "record " << key;
  }
}

// ---------------------------------------------------------------------------
// Record payload: deep copy, explicit share, copy-on-write, O(1) bytes
// ---------------------------------------------------------------------------

/// Record::ApproxBytes() re-summed entry by entry (record.cc's model: a
/// 48-byte record overhead, then one 16-byte allocation header and
/// kPackedAttrModelBytes per entry when there are entries, plus each value's
/// heap bytes). The model is not sizeof(PackedAttr): the host entry is
/// smaller.
int64_t ResummedBytes(const Record& r) {
  int64_t total = 48;
  if (r.attribute_count() != 0) {
    total += 16 + static_cast<int64_t>(r.attribute_count()) *
                      kPackedAttrModelBytes;
  }
  for (const PackedAttr& e : r.entries()) total += ValueHeapBytes(e.attr.value);
  return total;
}

/// A record whose values spill to the heap (long strings, a list).
Record SampleRecord() {
  Record r;
  r.Set("imsi", std::string("214010000000001"), 10, 0);
  r.Set("msisdn", std::string("+34600000000001-with-a-long-tail"), 11, 0);
  r.Set("impu", StringList{"sip:a@ims.example", "tel:+34"}, 12, 0);
  r.Set("sqn", int64_t{42}, 13, 0);
  r.set_version(4);
  return r;
}

TEST(RecordPayloadTest, RecordIsSixteenBytes) {
  EXPECT_EQ(sizeof(Record), 16u);
  Record empty;
  EXPECT_EQ(empty.ApproxBytes(), ResummedBytes(empty));
  EXPECT_TRUE(empty.entries().empty());
  EXPECT_FALSE(empty.payload_shared());
}

TEST(RecordPayloadTest, ModelledBytesDoNotFollowTheHostLayout) {
  // 48 record overhead + 16 allocation header + 4 entries x 64, plus the
  // heap of the 32-char msisdn (33 + 16) and of the impu list (16 + 2 x 32
  // string objects + 17 + 1 + 16 for the long element).
  EXPECT_EQ(SampleRecord().ApproxBytes(), 483);
  EXPECT_EQ(kPackedAttrModelBytes, 64);
  EXPECT_LT(static_cast<int64_t>(sizeof(PackedAttr)), kPackedAttrModelBytes);
}

/// One stamped attribute of StampedRecord.
struct Stamp {
  const char* name;
  Value value;
  MicroTime at;
  uint32_t writer;
};

/// Every Value alternative, each with its own time and a writer whose bytes
/// are all set: `writer` shares the variant's padding, so a copy or move
/// that wrote the whole variant would show there.
std::vector<Stamp> Stamps() {
  return {
      {"stamp-int", Value(int64_t{-1}), 101, 0xA1A1A1A1u},
      {"stamp-bool", Value(true), 102, 0xB2B2B2B2u},
      {"stamp-short", Value(std::string("short")), 103, 0xC3C3C3C3u},
      {"stamp-long", Value(std::string(40, 'l')), 104, 0xD4D4D4D4u},
      {"stamp-list", Value(StringList{"a", std::string(30, 'b')}),
       105, 0xE5E5E5E5u},
  };
}

Record StampedRecord() {
  Record r;
  for (const Stamp& s : Stamps()) r.Set(s.name, s.value, s.at, s.writer);
  return r;
}

/// `r` holds every stamp but `removed`, each with its value, time and writer.
void ExpectStamps(const Record& r, const std::string& where,
                  const char* removed = "") {
  size_t held = 0;
  for (const Stamp& s : Stamps()) {
    const Attribute* a = r.Find(s.name);
    if (std::string(s.name) == removed) {
      EXPECT_EQ(a, nullptr) << where << " " << s.name;
      continue;
    }
    ++held;
    ASSERT_NE(a, nullptr) << where << " " << s.name;
    EXPECT_TRUE(ValueEquals(a->value, s.value)) << where << " " << s.name;
    EXPECT_EQ(a->modified_at, s.at) << where << " " << s.name;
    EXPECT_EQ(a->writer, s.writer) << where << " " << s.name;
  }
  EXPECT_EQ(r.attribute_count(), held) << where;
}

TEST(RecordPayloadTest, WriterAndTimeSurviveCopiesSharesAndRelocations) {
  // Interned first, so it sorts ahead of the stamps: inserting it shifts
  // every entry (move construction and move assignment).
  const AttrId front = InternAttr("stamp-0-front");
  const Record original = StampedRecord();
  ExpectStamps(original, "built");

  Record copied(original);
  ExpectStamps(copied, "deep copy");
  Record assigned;
  assigned = original;
  ExpectStamps(assigned, "copy assignment");

  const Record shared = original.Share();
  ExpectStamps(shared, "share");

  // Copy-on-write: the write clones the shared block (entries copied around
  // the insert gap), and neither holder's stamps move.
  Record cow = original.Share();
  cow.SetById(front, std::string("front"), 200, 0x0F0F0F0Fu);
  ExpectStamps(original, "original after copy-on-write");
  ASSERT_EQ(cow.FindById(front)->writer, 0x0F0F0F0Fu);
  EXPECT_EQ(cow.FindById(front)->modified_at, 200);
  cow.RemoveById(front);
  ExpectStamps(cow, "copy-on-write");

  // An unshared block: Reserve relocates by move, then an insert with room
  // shifts the tail in place.
  Record moved = StampedRecord();
  moved.Reserve(16);
  ExpectStamps(moved, "relocate");
  moved.SetById(front, int64_t{7}, 300, 0x12345678u);
  EXPECT_EQ(moved.FindById(front)->writer, 0x12345678u);
  moved.RemoveById(front);
  ExpectStamps(moved, "in-place shift");

  // RemoveById moves the later entries down over the removed one.
  Record removed = StampedRecord();
  EXPECT_LT(removed.RemoveById(InternAttr("stamp-bool")), 0);
  ExpectStamps(removed, "remove", "stamp-bool");
  const Record source = StampedRecord();
  Record shared_remove = source.Share();
  shared_remove.RemoveById(InternAttr("stamp-int"));
  ExpectStamps(shared_remove, "shared remove", "stamp-int");
  ExpectStamps(source, "source of shared remove");
}

TEST(AttributeTest, PositionalInitIsValueTimeWriter) {
  const Attribute a{Value(std::string("x")), 123, 7};
  EXPECT_EQ(a.modified_at, 123);
  EXPECT_EQ(a.writer, 7u);
  WriteOp op;
  op.attribute = {Value(int64_t{5}), 456, 9};
  EXPECT_EQ(op.attribute.modified_at, 456);
  EXPECT_EQ(op.attribute.writer, 9u);
  EXPECT_TRUE(ValueEquals(op.attribute.value, Value(int64_t{5})));
  const Attribute defaulted;
  EXPECT_EQ(defaulted.modified_at, 0);
  EXPECT_EQ(defaulted.writer, 0u);
}

TEST(RecordPayloadTest, SharedPayloadIsReadableFromBothHolders) {
  const Record a = SampleRecord();
  const Record b = a.Share();
  EXPECT_TRUE(a.SharesPayloadWith(b));
  EXPECT_TRUE(a.payload_shared());
  EXPECT_TRUE(b.payload_shared());
  EXPECT_EQ(b.version(), a.version());
  EXPECT_EQ(a, b);
  // The same entries, not a copy of them.
  EXPECT_EQ(a.Find("msisdn"), b.Find("msisdn"));
  EXPECT_EQ(ValueToString(*b.Get("impu")), "[sip:a@ims.example, tel:+34]");
  EXPECT_EQ(b.ApproxBytes(), a.ApproxBytes());
}

TEST(RecordPayloadTest, ShareKeepsTheBirthTagAndACopyDropsIt) {
  Record a = SampleRecord();
  a.set_birth(77);
  EXPECT_EQ(a.Share().birth(), 77u);
  EXPECT_EQ(Record(a).birth(), 0u);
  Record b = a.Share();
  b.Set("sqn", int64_t{43}, 50, 0);  // The clone is still the same row.
  EXPECT_EQ(b.birth(), 77u);
}

TEST(RecordPayloadTest, SharedPayloadOutlivesEitherHolder) {
  Record b;
  {
    const Record a = SampleRecord();
    b = a.Share();
  }
  EXPECT_FALSE(b.payload_shared());
  EXPECT_EQ(b, SampleRecord());
}

TEST(RecordPayloadTest, WriteToOneHolderClonesAndLeavesTheOther) {
  const Record original = SampleRecord();
  const AttrId msisdn = InternAttr("msisdn");
  const AttrId fresh = InternAttr("payload-test-fresh");
  const std::vector<std::function<int64_t(Record&)>> writes = {
      [&](Record& r) {  // Overwrite in place.
        return r.SetById(msisdn, std::string("+34999"), 20, 1);
      },
      [&](Record& r) {  // Insert a new attribute.
        return r.SetById(fresh, std::string(30, 'f'), 21, 1);
      },
      [&](Record& r) { return r.RemoveById(msisdn); },  // Remove.
      [&](Record& r) {  // Reserve makes room without changing content.
        r.Reserve(64);
        return int64_t{0};
      },
  };
  for (size_t w = 0; w < writes.size(); ++w) {
    Record a = SampleRecord();
    Record b = a.Share();
    const int64_t before = b.ApproxBytes();
    const int64_t delta = writes[w](b);
    EXPECT_FALSE(a.SharesPayloadWith(b)) << "write " << w;
    EXPECT_FALSE(a.payload_shared()) << "write " << w;
    EXPECT_FALSE(b.payload_shared()) << "write " << w;
    EXPECT_EQ(a, original) << "write " << w;
    EXPECT_EQ(a.ApproxBytes(), ResummedBytes(a)) << "write " << w;
    EXPECT_EQ(b.ApproxBytes(), ResummedBytes(b)) << "write " << w;
    EXPECT_EQ(b.ApproxBytes(), before + delta) << "write " << w;
    EXPECT_EQ(b == original, w == 3) << "write " << w;
  }
}

TEST(RecordPayloadTest, DeepCopyOfSharedRecordIsIndependent) {
  Record a = SampleRecord();
  const Record b = a.Share();
  Record copied(b);
  Record assigned;
  assigned = b;
  for (Record* c : {&copied, &assigned}) {
    EXPECT_FALSE(c->SharesPayloadWith(a));
    EXPECT_FALSE(c->payload_shared());
    EXPECT_EQ(*c, a);
    EXPECT_EQ(c->version(), a.version());
    EXPECT_EQ(c->ApproxBytes(), a.ApproxBytes());
    c->Set("msisdn", std::string("+34111"), 30, 2);
    c->Remove("sqn");
  }
  // The copies' writes did not reach the two holders, which still share.
  EXPECT_TRUE(a.SharesPayloadWith(b));
  EXPECT_EQ(a, SampleRecord());
  EXPECT_FALSE(copied == a);
}

TEST(RecordPayloadTest, ApproxBytesEqualsResumAfterRandomWrites) {
  Rng rng(9191);
  for (int trial = 0; trial < 200; ++trial) {
    Record r;
    Record holder;  // Now and then shares r's payload, forcing clones.
    int64_t tracked = r.ApproxBytes();
    for (int step = 0; step < 60; ++step) {
      if (rng.Uniform(8) == 0) holder = r.Share();
      const AttrId id = InternAttr("attr-" + std::to_string(rng.Uniform(16)));
      if (rng.Uniform(3) == 0) {
        tracked += r.RemoveById(id);
      } else {
        tracked += r.SetById(id, RandomValue(rng), step, 0);
      }
      ASSERT_EQ(r.ApproxBytes(), ResummedBytes(r))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(r.ApproxBytes(), tracked)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(holder.ApproxBytes(), ResummedBytes(holder))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(RecordStoreTest, AdoptRecordSharesThePayloadAndCountsItsBytes) {
  RecordStore master;
  RecordStore replica;
  replica.SetAttribute(9, "other", int64_t{1}, 0, 0);
  master.PutRecord(1, SampleRecord());
  const int64_t replica_before = replica.ApproxBytes();
  replica.AdoptRecord(1, *master.Find(1));
  const Record* adopted = replica.Find(1);
  ASSERT_NE(adopted, nullptr);
  EXPECT_TRUE(adopted->SharesPayloadWith(*master.Find(1)));
  EXPECT_EQ(adopted->version(), 4u);
  EXPECT_EQ(replica.ApproxBytes(),
            replica_before + master.Find(1)->ApproxBytes());
  // The master's next write clones; the replica keeps the adopted content.
  master.SetAttribute(1, "sqn", int64_t{43}, 40, 0);
  adopted = replica.Find(1);
  EXPECT_FALSE(adopted->SharesPayloadWith(*master.Find(1)));
  EXPECT_EQ(*adopted, SampleRecord());
  EXPECT_EQ(adopted->version(), 4u);
  EXPECT_EQ(master.Find(1)->version(), 5u);
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
// CatchUpRange: adopting the source's records equals replaying the range
// ---------------------------------------------------------------------------

/// `got` and `want` hold the same records, versions, byte count and slot
/// order.
void ExpectSameStore(const RecordStore& got, const RecordStore& want,
                     const std::string& where) {
  ASSERT_EQ(got.Count(), want.Count()) << where;
  ASSERT_EQ(got.ApproxBytes(), want.ApproxBytes()) << where;
  std::vector<RecordKey> got_order;
  std::vector<RecordKey> want_order;
  got.ForEach([&](RecordKey key, const Record&) { got_order.push_back(key); });
  want.ForEach([&](RecordKey key, const Record& r) {
    want_order.push_back(key);
    const Record* g = got.Find(key);
    ASSERT_NE(g, nullptr) << where << " key " << key;
    EXPECT_EQ(*g, r) << where << " key " << key;
    EXPECT_EQ(g->version(), r.version()) << where << " key " << key;
    EXPECT_EQ(g->ApproxBytes(), r.ApproxBytes()) << where << " key " << key;
  });
  EXPECT_EQ(got_order, want_order) << where;
}

/// A log mixing whole-record creates of fresh keys with random write sets
/// over the keys created so far (overwrites, removes, deletes).
CommitLog RandomCreateLog(Rng& rng, int entries) {
  CommitLog log;
  std::vector<RecordKey> keys = {1};
  for (int e = 0; e < entries; ++e) {
    std::vector<WriteOp> ops;
    if (rng.Uniform(3) != 0) {
      const RecordKey key = keys.back() + 1 + rng.Uniform(3);
      keys.push_back(key);
      for (int a = 0; a < 6; ++a) {
        WriteOp op;
        op.key = key;
        op.attr_id = InternAttr("attr-" + std::to_string(rng.Uniform(16)));
        op.attribute = {RandomValue(rng), e, 0};
        ops.push_back(std::move(op));
      }
    } else {
      ops = RandomWriteSet(rng, e, keys);
    }
    log.Append(e, 0, std::move(ops));
  }
  return log;
}

TEST(CatchUpRangeTest, AdoptionLeavesWhatReplayLeaves) {
  Rng rng(5150);
  int adopted = 0;
  int replayed_creates = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const CommitLog log = RandomCreateLog(rng, 40);
    RecordStore source;
    log.ReplayRange(&source, 0, log.LastSeq());
    const CommitSeq from = rng.Uniform(log.LastSeq());
    const CommitSeq to = from + rng.Uniform(log.LastSeq() - from + 1);
    RecordStore replica;
    log.ReplayRange(&replica, 0, from);
    RecordStore replayed = replica;
    log.ReplayRange(&replayed, from, to);
    CatchUpRange(log, from, to, &replica, &source);
    const std::string where = "trial " + std::to_string(trial);
    ExpectSameStore(replica, replayed, where);
    replica.ForEach([&](RecordKey key, const Record& r) {
      const Record* m = source.Find(key);
      if (m != nullptr && r.SharesPayloadWith(*m)) {
        ++adopted;
      } else if (m != nullptr) {
        ++replayed_creates;
      }
    });
  }
  // Both branches ran: adoptions and records the rule sent to replay.
  EXPECT_GT(adopted, 500);
  EXPECT_GT(replayed_creates, 500);
}

TEST(CatchUpRangeTest, SkipsOneKeyEntriesOfAnAdoptedRecordAndReplaysTheRest) {
  CommitLog log;
  // Key 8 is on the replica before the range, so its writes replay.
  log.Append(1, 0, {Upsert(8, "a", int64_t{1}, 1), Upsert(8, "b", int64_t{1}, 1)});
  // The range (1, 5]: a create of 7, a one-key modify of 7, a modify of 7
  // and 8, and a remove on 8.
  std::vector<WriteOp> create;
  for (const char* name : {"a", "b", "c"}) {
    create.push_back(Upsert(7, name, std::string(20, name[0]), 2));
  }
  log.Append(2, 0, std::move(create));
  log.Append(3, 0, {Upsert(7, "a", int64_t{3}, 3)});
  log.Append(4, 0, {Upsert(7, "b", int64_t{4}, 4), Upsert(8, "a", int64_t{4}, 4)});
  WriteOp remove;
  remove.kind = WriteKind::kRemoveAttr;
  remove.key = 8;
  remove.attr_id = InternAttr("b");
  log.Append(5, 0, {remove});
  ASSERT_TRUE(log.At(3).one_run);
  ASSERT_FALSE(log.At(4).one_run);
  ASSERT_FALSE(log.At(5).one_run);

  RecordStore source;
  log.ReplayRange(&source, 0, 5);
  RecordStore replica;
  log.ReplayRange(&replica, 0, 1);
  RecordStore replayed = replica;
  log.ReplayRange(&replayed, 1, 5);
  CatchUpRange(log, 1, 5, &replica, &source);
  ExpectSameStore(replica, replayed, "catch-up");
  // 7 is adopted and its later runs are skipped: a replayed write would
  // have cloned the shared payload.
  EXPECT_TRUE(replica.Find(7)->SharesPayloadWith(*source.Find(7)));
  // 8's runs in the multi-key entry and the remove entry replayed.
  EXPECT_FALSE(replica.Find(8)->SharesPayloadWith(*source.Find(8)));
  EXPECT_EQ(ValueToString(*replica.Find(8)->Get("a")), "4");
  EXPECT_FALSE(replica.Find(8)->Has("b"));
}

TEST(CatchUpRangeTest, VersionGuardRejectsARecordChangedOutsideTheLog) {
  CommitLog log;
  std::vector<WriteOp> create;
  for (const char* name : {"a", "b", "c"}) {
    WriteOp op;
    op.key = 7;
    op.attr_id = InternAttr(name);
    op.attribute = {Value(std::string(20, name[0])), 1, 0};
    create.push_back(std::move(op));
  }
  log.Append(1, 0, create);
  RecordStore source;
  log.ReplayRange(&source, 0, 1);
  RecordStore clean;
  CatchUpRange(log, 0, 1, &clean, &source);
  EXPECT_TRUE(clean.Find(7)->SharesPayloadWith(*source.Find(7)));

  // A write that bypassed the log: the version no longer proves that the
  // source's record is the replay, so the replica replays.
  source.SetAttribute(7, "a", std::string("outside the log"), 2, 0);
  RecordStore guarded;
  CatchUpRange(log, 0, 1, &guarded, &source);
  EXPECT_FALSE(guarded.Find(7)->SharesPayloadWith(*source.Find(7)));
  RecordStore replayed;
  log.ReplayRange(&replayed, 0, 1);
  ExpectSameStore(guarded, replayed, "guarded");
}

TEST(CatchUpRangeTest, BirthTagRejectsARecordCreatedOutsideTheLog) {
  // The same three upserts, applied to the source outside the log: same
  // content and version as the log's replay, but no birth tag of the log.
  CommitLog log;
  std::vector<WriteOp> create;
  for (const char* name : {"a", "b", "c"}) {
    WriteOp op;
    op.key = 7;
    op.attr_id = InternAttr(name);
    op.attribute = {Value(int64_t{1}), 1, 0};
    create.push_back(std::move(op));
  }
  log.Append(1, 0, create);
  RecordStore source;
  ApplyWriteOps(&source, create);
  EXPECT_EQ(source.Find(7)->version(), 3u);
  EXPECT_EQ(source.Find(7)->birth(), 0u);
  RecordStore replica;
  CatchUpRange(log, 0, 1, &replica, &source);
  EXPECT_FALSE(replica.Find(7)->SharesPayloadWith(*source.Find(7)));
  EXPECT_EQ(replica.Find(7)->birth(), log.BirthTag(1));
}

TEST(CommitLogTest, BirthTagsAreUniqueAcrossLogsAndTruncations) {
  CommitLog a;
  CommitLog b;
  for (int i = 0; i < 4; ++i) {
    a.Append(i, 0, {});
    b.Append(i, 0, {});
  }
  std::set<uint64_t> tags;
  for (CommitSeq s = 1; s <= 4; ++s) {
    EXPECT_NE(a.BirthTag(s), 0u);
    EXPECT_TRUE(tags.insert(a.BirthTag(s)).second);
    EXPECT_TRUE(tags.insert(b.BirthTag(s)).second);
  }
  // Kept entries keep their tags; entries that reuse a truncated sequence
  // number get new ones, across repeated truncations.
  const uint64_t kept = a.BirthTag(2);
  a.TruncateAfter(2);
  EXPECT_EQ(a.BirthTag(2), kept);
  a.Append(10, 0, {});
  a.Append(11, 0, {});
  EXPECT_TRUE(tags.insert(a.BirthTag(3)).second);
  EXPECT_TRUE(tags.insert(a.BirthTag(4)).second);
  const uint64_t kept3 = a.BirthTag(3);
  a.TruncateAfter(1);
  EXPECT_NE(a.BirthTag(2), kept);
  EXPECT_NE(a.BirthTag(3), kept3);
  a.TruncateAfter(0);
  a.Append(12, 0, {});
  EXPECT_TRUE(tags.insert(a.BirthTag(1)).second);
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


// ---------------------------------------------------------------------------
// Slot order: ForEach walks the flat tables in slot order, and
// storage::CatchUpRange promises that a replica's store keeps replay's.
// One seeded insert/erase history, with the order it leaves pinned.
// ---------------------------------------------------------------------------

TEST(SlotOrderTest, SeededHistoryLeavesThePinnedOrder) {
  RecordStore store;
  location::IdentityIndex index;
  Rng rng(29);
  // Insert or erase one of `keys` keys in both tables; an insert happens
  // with probability per_mille / 1000.
  const auto step = [&](uint64_t keys, uint64_t per_mille) {
    const RecordKey key = rng.Uniform(keys);
    const std::string value = "21401" + std::to_string(1000000 + key);
    if (rng.Uniform(1000) < per_mille) {
      store.SetAttribute(key, "msisdn", Value(int64_t{1}), 0, 0);
      index.Put(value, {key, 0});
    } else {
      store.DeleteRecord(key);
      index.Erase(value);
    }
  };
  // Grow through several rebuilds, shrink to a few keys (the index compacts
  // its arena, which rebuilds it in place), then grow past the first peak,
  // so the order left depends on how a rebuild re-inserts.
  for (int i = 0; i < 200; ++i) step(64, 750);
  for (int i = 0; i < 200; ++i) step(64, 150);
  for (int i = 0; i < 300; ++i) step(160, 750);

  std::vector<RecordKey> store_order;
  store.ForEach(
      [&](RecordKey key, const Record&) { store_order.push_back(key); });
  std::vector<RecordKey> index_order;
  index.ForEach([&](std::string_view, const location::LocationEntry& e) {
    index_order.push_back(e.key);
  });
  // Both lists are the order this history left before the tables shared
  // one implementation (common/flat_table.h).
  const std::vector<RecordKey> want_store = {
      143, 91, 93, 56, 80, 57, 119, 158, 7, 63, 101, 133, 47, 59, 74, 41, 40,
      52, 71, 14, 50, 100, 25, 15, 87, 118, 109, 21, 66, 29, 114, 142, 48, 31,
      141, 106, 62, 81, 134, 6, 11, 38, 18, 30, 154, 88, 124, 135, 58, 10,
      152, 22, 70, 113, 69, 131, 96, 120, 2, 99, 125, 121, 136, 92, 110, 77,
      97, 115, 107, 132, 28, 23, 85, 65, 156, 150, 108, 12, 16, 17, 35, 122,
      138, 123, 33, 144, 147, 13, 9, 137, 5, 94, 49, 83, 60, 128, 8, 117, 73,
      3, 116, 102, 146, 27, 105};
  const std::vector<RecordKey> want_index = {
      119, 99, 133, 118, 150, 30, 101, 73, 58, 18, 87, 120, 27, 49, 132, 6,
      92, 94, 106, 11, 50, 63, 128, 121, 147, 135, 136, 123, 69, 108, 57, 144,
      107, 14, 2, 60, 25, 47, 117, 29, 102, 62, 66, 137, 105, 41, 59, 115, 71,
      142, 13, 7, 88, 81, 56, 3, 17, 52, 28, 131, 154, 100, 138, 97, 16, 65,
      141, 91, 158, 124, 146, 40, 38, 5, 96, 152, 83, 23, 122, 93, 80, 134,
      15, 109, 77, 156, 10, 125, 143, 21, 48, 114, 116, 9, 35, 8, 85, 113, 74,
      70, 33, 110, 22, 31, 12};
  EXPECT_EQ(store_order, want_store);
  EXPECT_EQ(index_order, want_index);
}

}  // namespace
}  // namespace udr::storage
