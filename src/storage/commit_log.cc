#include "storage/commit_log.h"

#include <algorithm>
#include <cassert>

#include "storage/record_store.h"

namespace udr::storage {

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
  assert(to_seq <= LastSeq());
  for (CommitSeq s = from_seq + 1; s <= to_seq; ++s) {
    ApplyWriteOps(store, At(s).ops);
  }
}

void CommitLog::TruncateAfter(CommitSeq seq) {
  if (seq >= LastSeq()) return;
  entries_.resize(seq);
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

void ApplyWriteOps(RecordStore* store, const std::vector<WriteOp>& ops) {
  size_t i = 0;
  while (i < ops.size()) {
    const WriteOp& op = ops[i];
    if (op.kind != WriteKind::kUpsertAttr) {
      ApplyWriteOp(store, op);
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < ops.size() && ops[end].kind == WriteKind::kUpsertAttr &&
           ops[end].key == op.key) {
      ++end;
    }
    store->ApplyUpsertRun(&op, end - i);
    i = end;
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
