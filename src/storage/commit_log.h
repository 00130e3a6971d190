// The per-storage-element commit log. Every committed transaction appends one
// entry containing its write set in serialization order. The log is the
// single source of truth for three mechanisms of the paper:
//   * periodic checkpoint-to-disk (§3.1 decision 1): disk state == replay of
//     the log up to the checkpoint sequence number;
//   * master->slave replication (§3.2): slaves apply the identical entry
//     order, which is the paper's serialization-order guarantee;
//   * crash recovery: RAM contents after an unplanned restart are whatever
//     the disk had, i.e. entries after the checkpoint are lost unless a
//     remote slave already received them.

#ifndef UDR_STORAGE_COMMIT_LOG_H_
#define UDR_STORAGE_COMMIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "storage/record.h"

namespace udr::storage {

/// Sequence number of a committed transaction within one replica set.
/// Sequence 0 means "nothing committed"; the first commit is 1.
using CommitSeq = uint64_t;

/// Kinds of record mutation carried in a log entry.
enum class WriteKind {
  kUpsertAttr,   ///< Set one attribute of a record (creating the record).
  kRemoveAttr,   ///< Remove one attribute.
  kDeleteRecord, ///< Delete the whole record.
};

/// One mutation of the write set. Attribute names travel as interned AttrIds
/// — a log entry serializes 4 bytes per name instead of the string, and
/// replay applies by id without re-hashing the name (the packed-layout
/// serialization path).
struct WriteOp {
  WriteKind kind = WriteKind::kUpsertAttr;
  RecordKey key = 0;
  AttrId attr_id = 0;   ///< Interned attribute name (kUpsertAttr / kRemoveAttr).
  Attribute attribute;  ///< New attribute version (kUpsertAttr).

  /// Pool-resolved attribute name (debugging / serialization to text).
  std::string_view attr_name() const { return AttrNameOf(attr_id); }
};

/// Approximate serialized size of one write op as shipped by the log-based
/// replication and migration streams: key + kind + interned name id +
/// metadata, plus the value payload for upserts.
int64_t WriteOpWireBytes(const WriteOp& op);

/// One committed transaction.
struct LogEntry {
  CommitSeq seq = 0;
  MicroTime commit_time = 0;
  uint32_t origin_replica = 0;  ///< Replica id that executed the transaction.
  std::vector<WriteOp> ops;
};

class RecordStore;

/// Append-only, in-order commit log.
class CommitLog {
 public:
  /// Appends an entry; assigns and returns the next sequence number.
  CommitSeq Append(MicroTime commit_time, uint32_t origin_replica,
                   std::vector<WriteOp> ops);

  /// Last assigned sequence (0 when empty).
  CommitSeq LastSeq() const { return entries_.empty() ? 0 : entries_.back().seq; }

  /// Number of entries.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entry access by sequence number (seq in [1, LastSeq()]).
  const LogEntry& At(CommitSeq seq) const { return entries_[seq - 1]; }

  const std::vector<LogEntry>& entries() const { return entries_; }

  /// Greatest sequence with commit_time <= t (0 if none).
  CommitSeq SeqAtTime(MicroTime t) const;

  /// Applies entries (from_seq, to_seq] to the store in order.
  void ReplayRange(RecordStore* store, CommitSeq from_seq, CommitSeq to_seq) const;

  /// Truncates everything after `seq` (used when a crashed master rejoins and
  /// must discard unreplicated suffix entries).
  void TruncateAfter(CommitSeq seq);

  /// Clears the log.
  void Reset() { entries_.clear(); }

 private:
  std::vector<LogEntry> entries_;
};

/// Applies one write op to a store. Inside src/ only ApplyWriteOps calls it
/// (lint rule apply-write-ops); every apply path goes through ApplyWriteOps.
void ApplyWriteOp(RecordStore* store, const WriteOp& op);

/// Applies a write set in order — the one apply entry point of commit,
/// replication, replay, migration and consistency restoration. A run of
/// consecutive upserts to one key is one record mutation
/// (RecordStore::ApplyUpsertRun); removes and deletes apply op by op. The
/// resulting records, versions and byte accounting equal op-by-op
/// ApplyWriteOp.
void ApplyWriteOps(RecordStore* store, const std::vector<WriteOp>& ops);

}  // namespace udr::storage

#endif  // UDR_STORAGE_COMMIT_LOG_H_
