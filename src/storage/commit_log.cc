#include "storage/commit_log.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/flat_table.h"
#include "storage/record_store.h"

namespace udr::storage {

namespace {

/// Next log uid; 0 is never handed out, so no birth tag is 0.
uint32_t NextLogUid() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// End of the run that starts at ops[i]: consecutive upserts to one key form
/// one run; a remove or delete is a run of its own.
size_t RunEnd(const std::vector<WriteOp>& ops, size_t i) {
  size_t end = i + 1;
  if (ops[i].kind != WriteKind::kUpsertAttr) return end;
  while (end < ops.size() && ops[end].kind == WriteKind::kUpsertAttr &&
         ops[end].key == ops[i].key) {
    ++end;
  }
  return end;
}

/// The run that starts at op i of `e` (see RunEnd). A one-run entry's run
/// is read off the entry itself, so its ops stay untouched.
struct Run {
  RecordKey key;
  bool upsert;
  size_t end;
};
Run RunAt(const LogEntry& e, size_t i) {
  if (e.one_run) return {e.run_key, true, e.ops.size()};
  const WriteOp& op = e.ops[i];
  return {op.key, op.kind == WriteKind::kUpsertAttr, RunEnd(e.ops, i)};
}

}  // namespace

CommitLog::CommitLog() : uid_(NextLogUid()) {}

uint64_t CommitLog::BirthTag(CommitSeq seq) const {
  assert(seq <= 0xFFFFFFFFu);
  uint32_t uid = uid_;
  for (const Epoch& e : closed_) {
    if (seq <= e.last) {
      uid = e.uid;
      break;
    }
  }
  return (uint64_t{uid} << 32) | seq;
}

void CommitLog::Reset() {
  entries_.clear();
  closed_.clear();
  uid_ = NextLogUid();
}

CommitSeq CommitLog::Append(MicroTime commit_time, uint32_t origin_replica,
                            std::vector<WriteOp> ops) {
  assert(entries_.empty() || commit_time >= entries_.back().commit_time);
  LogEntry entry;
  entry.commit_time = commit_time;
  entry.origin_replica = origin_replica;
  entry.one_run = !ops.empty() && ops[0].kind == WriteKind::kUpsertAttr &&
                  RunEnd(ops, 0) == ops.size();
  if (entry.one_run) entry.run_key = ops[0].key;
  entry.ops = std::move(ops);
  entries_.push_back(std::move(entry));
  return LastSeq();
}

CommitSeq CommitLog::SeqAtTime(MicroTime t) const {
  // Entries are sorted by commit_time (commit order == time order within one
  // replica). Binary search for the last entry with commit_time <= t.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](MicroTime v, const LogEntry& e) { return v < e.commit_time; });
  return static_cast<CommitSeq>(it - entries_.begin());
}

void CommitLog::ReplayRange(RecordStore* store, CommitSeq from_seq,
                            CommitSeq to_seq) const {
  CatchUpRange(*this, from_seq, to_seq, store, nullptr);
}

void CommitLog::TruncateAfter(CommitSeq seq) {
  if (seq >= LastSeq()) return;
  entries_.resize(seq);
  // Entries appended from now on reuse sequence numbers, so they tag from a
  // fresh uid; the kept ones keep theirs.
  while (!closed_.empty() && closed_.back().last > seq) {
    const CommitSeq before =
        closed_.size() > 1 ? closed_[closed_.size() - 2].last : 0;
    if (before < seq) {
      closed_.back().last = seq;  // Keeps its entries up to seq.
    } else {
      closed_.pop_back();  // Every entry it tagged is gone.
    }
  }
  const CommitSeq kept = closed_.empty() ? 0 : closed_.back().last;
  if (seq > kept) closed_.push_back({seq, uid_});
  uid_ = NextLogUid();
}

void ApplyWriteOp(RecordStore* store, const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kUpsertAttr:
      store->SetAttribute(op.key, op.attr_id, op.attribute.value,
                          op.attribute.modified_at, op.attribute.writer);
      break;
    case WriteKind::kRemoveAttr:
      store->RemoveAttribute(op.key, op.attr_id);
      break;
    case WriteKind::kDeleteRecord:
      store->DeleteRecord(op.key);
      break;
  }
}

namespace {

/// Applies the run ops[i, end) (see RunEnd).
void ApplyRun(RecordStore* store, const std::vector<WriteOp>& ops, size_t i,
              size_t end, uint64_t birth) {
  if (ops[i].kind == WriteKind::kUpsertAttr) {
    store->ApplyUpsertRun(&ops[i], end - i, birth);
  } else {
    ApplyWriteOp(store, ops[i]);
  }
}

/// What a log range does to one key, for the adoption rule.
struct KeyTally {
  RecordKey key = 0;
  CommitSeq last = 0;              ///< Last entry of the range on the key.
  const WriteOp* first = nullptr;  ///< The range's first op on the key.
  uint32_t ops = 0;                ///< Ops on the key.
  bool deleted = false;            ///< The range deletes the record.
  bool adopted = false;            ///< The replica adopted the source's.
};

/// KeyTally of every key in (from, LastSeq()], built in one pass into a
/// FlatTable keyed like the record store.
class RangeTally {
 public:
  /// Build() has run (the range holds an op, so the table is not empty).
  bool built() const { return table_.size() != 0; }

  void Build(const CommitLog& log, CommitSeq from) {
    for (CommitSeq s = from + 1; s <= log.LastSeq(); ++s) {
      const LogEntry& e = log.At(s);
      const std::vector<WriteOp>& ops = e.ops;
      for (size_t i = 0; i < ops.size();) {  // One lookup per key run.
        const RecordKey key = e.one_run ? e.run_key : ops[i].key;
        KeyTally& t = Insert(key);
        if (t.ops == 0) t.first = &ops[i];
        t.last = s;
        if (e.one_run) {  // Upserts only, all to the key: nothing to read.
          t.ops += static_cast<uint32_t>(ops.size());
          break;
        }
        for (; i < ops.size() && ops[i].key == key; ++i) {
          ++t.ops;
          if (ops[i].kind == WriteKind::kDeleteRecord) t.deleted = true;
        }
      }
    }
  }

  /// The key's tally; the key must occur in the range.
  KeyTally& At(RecordKey key) { return table_.at(IndexOf(key)); }

 private:
  struct Traits {
    using Slot = KeyTally;
    static uint64_t HashOf(const KeyTally& t) {
      return RecordStore::Hash(t.key);
    }
  };

  size_t IndexOf(RecordKey key) const {
    return table_.Find(RecordStore::Hash(key),
                       [key](const KeyTally& t) { return t.key == key; });
  }

  KeyTally& Insert(RecordKey key) {
    size_t i = IndexOf(key);
    if (i == FlatTable<Traits>::kNotFound) {
      i = table_.Insert(RecordStore::Hash(key));
      table_.at(i).key = key;
    }
    return table_.at(i);
  }

  FlatTable<Traits> table_;
};

}  // namespace

void ApplyWriteOps(RecordStore* store, const std::vector<WriteOp>& ops,
                   uint64_t birth) {
  for (size_t i = 0; i < ops.size();) {
    const size_t end = RunEnd(ops, i);
    ApplyRun(store, ops, i, end, birth);
    i = end;
  }
}

void CatchUpRange(const CommitLog& log, CommitSeq from, CommitSeq to,
                  RecordStore* store, const RecordStore* source) {
  assert(to <= log.LastSeq());
  RangeTally tally;  // Built at the first candidate.
  for (CommitSeq s = from + 1; s <= to; ++s) {
    const LogEntry& e = log.At(s);
    const std::vector<WriteOp>& ops = e.ops;
    const uint64_t birth = log.BirthTag(s);
    for (size_t i = 0; i < ops.size();) {
      const Run run = RunAt(e, i);
      KeyTally* t = tally.built() ? &tally.At(run.key) : nullptr;
      if (t != nullptr && t->adopted) {
        i = run.end;  // The adopted record already holds this run.
        continue;
      }
      if (source != nullptr && run.upsert && !store->Contains(run.key)) {
        const Record* master = source->Find(run.key);
        if (master != nullptr && master->birth() == birth) {
          if (t == nullptr) {
            tally.Build(log, from);
            t = &tally.At(run.key);
          }
          if (t->first == &ops[i] && !t->deleted && t->last <= to &&
              master->version() == t->ops) {
            store->AdoptRecord(run.key, *master);
            t->adopted = true;
            i = run.end;
            continue;
          }
        }
      }
      ApplyRun(store, ops, i, run.end, birth);
      i = run.end;
    }
  }
}

int64_t WriteOpWireBytes(const WriteOp& op) {
  // key (8) + kind (1) + attr id (4) + modified_at (8) + writer (4) ≈ 25,
  // rounded with framing to 28; upserts add the value payload.
  int64_t bytes = 28;
  if (op.kind == WriteKind::kUpsertAttr) bytes += ValueBytes(op.attribute.value);
  return bytes;
}

}  // namespace udr::storage
