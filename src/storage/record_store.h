// Committed-state record store: the RAM-resident hash-indexed table that a
// storage element keeps for one (sub-)partition of the subscriber space.

#ifndef UDR_STORAGE_RECORD_STORE_H_
#define UDR_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

#include "common/flat_table.h"
#include "common/status.h"
#include "storage/commit_log.h"
#include "storage/record.h"

namespace udr::storage {

/// Hash-indexed in-memory record table with byte accounting.
///
/// Records live inline in a FlatTable (common/flat_table.h) of 24-byte
/// slots: key + the 16-byte Record handle. Keys are hashed with Mix64, since
/// they are sequential under least-loaded placement. Records move when the
/// table grows or a neighbour is erased.
///
/// Pointer lifetime: a Record pointer obtained from Find stays valid only
/// until the next insert or erase on this store (SetAttribute,
/// ApplyUpsertRun, AdoptRecord, PutRecord, DeleteRecord, Clear, or an apply
/// through them); an Attribute pointer from FindAttribute or from the
/// record, until that record is next written too. Use them at once.
///
/// Copy versus share: PutRecord moves in a record the caller owns (copying a
/// Record is deep). Only AdoptRecord shares a payload with another store, and
/// the first write to either holder clones it (see record.h).
///
/// ApproxBytes() is kept by per-op deltas (Record::SetById/RemoveById return
/// theirs), so an apply costs in proportion to its ops, not to the record it
/// lands on; the whole-record paths (MutateRecord, PutRecord, AdoptRecord,
/// DeleteRecord) charge Record::ApproxBytes(), which is O(1).
///
/// A replica's store changes through its partition's commit log (the
/// out-of-log-write lint rule keeps these writers inside src/storage/ and
/// src/replication/). A record a log apply creates carries the entry's
/// birth tag, which catch-up adoption checks (storage::CatchUpRange).
class RecordStore {
 public:
  /// Looks up a record; nullptr when absent.
  const Record* Find(RecordKey key) const {
    const size_t i = SlotOf(key);
    return i == Table::kNotFound ? nullptr : &table_.at(i).record;
  }

  /// In-place mutation with byte re-accounting. The record's footprint is
  /// subtracted before `fn` runs and re-added after, so `fn` may freely grow
  /// or shrink the record without desynchronizing ApproxBytes() — the
  /// footgun the old bare mutable lookup allowed. Returns false when the key
  /// is absent (`fn` is not called).
  bool MutateRecord(RecordKey key, const std::function<void(Record&)>& fn);

  bool Contains(RecordKey key) const { return Find(key) != nullptr; }

  /// Sets one attribute, creating the record if needed. The name is interned
  /// on first use; the AttrId overload is the log-replay fast path.
  void SetAttribute(RecordKey key, std::string_view name, Value value,
                    MicroTime at, uint32_t writer);
  void SetAttribute(RecordKey key, AttrId attr_id, Value value, MicroTime at,
                    uint32_t writer);

  /// Applies `n` consecutive kUpsertAttr ops that all target `ops[0].key` as
  /// one mutation: one hash lookup for the run and a byte delta per op, still
  /// one version bump per op. A record the run creates is reserved to the run
  /// length and takes `birth` as its birth tag (Record::birth); an existing
  /// record is not reserved, since reserving on every overwrite would
  /// reallocate it each time.
  void ApplyUpsertRun(const WriteOp* ops, size_t n, uint64_t birth = 0);

  /// Removes one attribute; removes nothing if absent.
  void RemoveAttribute(RecordKey key, std::string_view name);
  void RemoveAttribute(RecordKey key, AttrId attr_id);

  /// Single-attribute read fast path: record hash lookup + packed binary
  /// search, resolving the name through the intern pool — no per-call
  /// std::string construction anywhere. nullptr when record or attribute is
  /// absent.
  const Attribute* FindAttribute(RecordKey key, std::string_view name) const;

  /// Inserts or replaces a whole record.
  void PutRecord(RecordKey key, Record record);

  /// Inserts `key` holding a share of `source`'s payload and its version
  /// (Record::Share): no entry is copied. `key` must be absent.
  void AdoptRecord(RecordKey key, const Record& source);

  /// Deletes a record. Returns true if it existed.
  bool DeleteRecord(RecordKey key);

  /// Number of records.
  int64_t Count() const { return static_cast<int64_t>(table_.size()); }

  /// Approximate RAM usage in bytes.
  int64_t ApproxBytes() const { return approx_bytes_; }

  /// Iterates all records (slot order: unspecified but deterministic for a
  /// given insertion history).
  void ForEach(const std::function<void(RecordKey, const Record&)>& fn) const;

  /// Removes everything and releases the table.
  void Clear() { *this = RecordStore(); }

  /// Slots in the table (a power of two, or 0 before the first insert).
  size_t slot_count() const { return table_.slot_count(); }

  /// Hash of a record key; a record's home slot is Hash & (slot_count-1).
  static uint64_t Hash(RecordKey key) { return Mix64(key); }

 private:
  struct Slot {
    RecordKey key = 0;
    Record record;
  };
  static_assert(sizeof(Slot) == 24, "keep slots small: slack is RSS");
  struct Traits {
    using Slot = RecordStore::Slot;
    static uint64_t HashOf(const Slot& s) { return Hash(s.key); }
  };
  using Table = FlatTable<Traits>;

  /// Slot holding `key`, or Table::kNotFound.
  size_t SlotOf(RecordKey key) const {
    return table_.Find(Hash(key),
                       [key](const Slot& s) { return s.key == key; });
  }

  /// The record under `key`, inserting an empty one (charged to
  /// ApproxBytes()) when absent; `second` is true when inserted.
  std::pair<Record*, bool> FindOrInsert(RecordKey key);

  Table table_;
  int64_t approx_bytes_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_STORE_H_
