#include "storage/commit_log.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "storage/record_store.h"

namespace udr::storage {

namespace {

/// Next log uid; 0 is never handed out, so no birth tag is 0.
uint32_t NextLogUid() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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
  entry.seq = LastSeq() + 1;
  entry.commit_time = commit_time;
  entry.origin_replica = origin_replica;
  entry.ops = std::move(ops);
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

CommitSeq CommitLog::SeqAtTime(MicroTime t) const {
  // Entries are sorted by commit_time (commit order == time order within one
  // replica). Binary search for the last entry with commit_time <= t.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](MicroTime v, const LogEntry& e) { return v < e.commit_time; });
  if (it == entries_.begin()) return 0;
  return std::prev(it)->seq;
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
  uint32_t ops = 0;                ///< Ops on the key; 0 = empty slot.
  bool deleted = false;            ///< The range deletes the record.
  bool adopted = false;            ///< The replica adopted the source's.
};

/// KeyTally of every key in (from, LastSeq()], built in one pass: an
/// open-addressing table, at most 3/4 full.
class RangeTally {
 public:
  bool built() const { return !slots_.empty(); }

  void Build(const CommitLog& log, CommitSeq from) {
    slots_.resize(64);
    for (CommitSeq s = from + 1; s <= log.LastSeq(); ++s) {
      const std::vector<WriteOp>& ops = log.At(s).ops;
      for (size_t i = 0; i < ops.size();) {  // One lookup per key run.
        KeyTally& t = Insert(ops[i].key);
        if (t.ops == 0) t.first = &ops[i];
        t.last = s;
        const RecordKey key = ops[i].key;
        for (; i < ops.size() && ops[i].key == key; ++i) {
          ++t.ops;
          if (ops[i].kind == WriteKind::kDeleteRecord) t.deleted = true;
        }
      }
    }
  }

  /// The key's tally; the key must occur in the range (it is found before
  /// any empty slot of its probe run).
  KeyTally& At(RecordKey key) {
    const size_t mask = slots_.size() - 1;
    size_t i = RecordStore::Hash(key) & mask;
    while (slots_[i].ops == 0 || slots_[i].key != key) i = (i + 1) & mask;
    return slots_[i];
  }

 private:
  KeyTally& Insert(RecordKey key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = RecordStore::Hash(key) & mask;
    for (; slots_[i].ops != 0; i = (i + 1) & mask) {
      if (slots_[i].key == key) return slots_[i];
    }
    ++size_;
    slots_[i].key = key;
    return slots_[i];
  }

  void Grow() {
    std::vector<KeyTally> grown(slots_.size() * 2);
    const size_t mask = grown.size() - 1;
    for (const KeyTally& t : slots_) {
      if (t.ops == 0) continue;
      size_t i = RecordStore::Hash(t.key) & mask;
      while (grown[i].ops != 0) i = (i + 1) & mask;
      grown[i] = t;
    }
    slots_ = std::move(grown);
  }

  std::vector<KeyTally> slots_;
  size_t size_ = 0;
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
    const std::vector<WriteOp>& ops = log.At(s).ops;
    const uint64_t birth = log.BirthTag(s);
    for (size_t i = 0; i < ops.size();) {
      const WriteOp& op = ops[i];
      const size_t end = RunEnd(ops, i);
      KeyTally* t = tally.built() ? &tally.At(op.key) : nullptr;
      if (t != nullptr && t->adopted) {
        i = end;  // The adopted record already holds this run.
        continue;
      }
      if (source != nullptr && op.kind == WriteKind::kUpsertAttr &&
          !store->Contains(op.key)) {
        const Record* master = source->Find(op.key);
        if (master != nullptr && master->birth() == birth) {
          if (t == nullptr) {
            tally.Build(log, from);
            t = &tally.At(op.key);
          }
          if (t->first == &op && !t->deleted && t->last <= to &&
              master->version() == t->ops) {
            store->AdoptRecord(op.key, *master);
            t->adopted = true;
            i = end;
            continue;
          }
        }
      }
      ApplyRun(store, ops, i, end, birth);
      i = end;
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
