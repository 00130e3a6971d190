// Committed-state record store: the RAM-resident hash-indexed table that a
// storage element keeps for one (sub-)partition of the subscriber space.

#ifndef UDR_STORAGE_RECORD_STORE_H_
#define UDR_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/commit_log.h"
#include "storage/record.h"

namespace udr::storage {

/// Hash-indexed in-memory record table with byte accounting.
///
/// Records live inline in one power-of-two slot array with linear probing
/// (40-byte slots: key + Record), at most 3/4 full; occupancy is a separate
/// control-byte array so the flag costs no slot padding. Keys are hashed with
/// a splitmix64 finalizer, since they are sequential under least-loaded
/// placement. Erase is backward-shift deletion (no tombstones), and records
/// move when the table grows.
///
/// Pointer lifetime: a pointer or reference obtained from Find or
/// FindAttribute stays valid only until the next insert or erase on this
/// store (SetAttribute, ApplyUpsertRun, PutRecord, DeleteRecord, Clear, or an
/// apply through them). Use it at once.
///
/// ApproxBytes() is kept by per-op deltas (Record::SetById/RemoveById return
/// theirs), so an apply costs in proportion to its ops, not to the record it
/// lands on; the rare whole-record paths (MutateRecord, PutRecord,
/// DeleteRecord) re-account the whole record.
class RecordStore {
 public:
  /// Looks up a record; nullptr when absent.
  const Record* Find(RecordKey key) const {
    const size_t i = SlotOf(key);
    return i == kNoSlot ? nullptr : &slots_[i].record;
  }

  /// In-place mutation with byte re-accounting. The record's footprint is
  /// subtracted before `fn` runs and re-added after, so `fn` may freely grow
  /// or shrink the record without desynchronizing ApproxBytes() — the
  /// footgun the old bare mutable lookup allowed. Returns false when the key
  /// is absent (`fn` is not called).
  bool MutateRecord(RecordKey key, const std::function<void(Record&)>& fn);

  bool Contains(RecordKey key) const { return SlotOf(key) != kNoSlot; }

  /// Sets one attribute, creating the record if needed. The name is interned
  /// on first use; the AttrId overload is the log-replay fast path.
  void SetAttribute(RecordKey key, std::string_view name, Value value,
                    MicroTime at, uint32_t writer);
  void SetAttribute(RecordKey key, AttrId attr_id, Value value, MicroTime at,
                    uint32_t writer);

  /// Applies `n` consecutive kUpsertAttr ops that all target `ops[0].key` as
  /// one mutation: one hash lookup for the run and a byte delta per op, still
  /// one version bump per op. A record the run creates is reserved to the run
  /// length; an existing record is not, since reserving on every overwrite
  /// would reallocate it each time.
  void ApplyUpsertRun(const WriteOp* ops, size_t n);

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

  /// Deletes a record. Returns true if it existed.
  bool DeleteRecord(RecordKey key);

  /// Number of records.
  int64_t Count() const { return static_cast<int64_t>(size_); }

  /// Approximate RAM usage in bytes.
  int64_t ApproxBytes() const { return approx_bytes_; }

  /// Iterates all records (slot order: unspecified but deterministic for a
  /// given insertion history).
  void ForEach(const std::function<void(RecordKey, const Record&)>& fn) const;

  /// Removes everything and releases the table.
  void Clear() { *this = RecordStore(); }

  /// Slots in the table (a power of two, or 0 before the first insert).
  size_t slot_count() const { return slots_.size(); }

  /// Hash of a record key; a record's home slot is Hash & (slot_count-1).
  static uint64_t Hash(RecordKey key) {
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ULL;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBULL;
    key ^= key >> 31;
    return key;
  }

 private:
  static constexpr size_t kNoSlot = ~size_t{0};

  struct Slot {
    RecordKey key = 0;
    Record record;
  };
  static_assert(sizeof(Slot) == 40, "keep slots small: slack is RSS");

  /// Slot holding `key`, or kNoSlot.
  size_t SlotOf(RecordKey key) const {
    if (slots_.empty()) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask; used_[i] != 0; i = (i + 1) & mask) {
      if (slots_[i].key == key) return i;
    }
    return kNoSlot;
  }

  /// The record under `key`, inserting an empty one (charged to
  /// ApproxBytes()) when absent; `second` is true when inserted.
  std::pair<Record*, bool> FindOrInsert(RecordKey key);

  /// Removes the record in slot `i` (byte accounting is the caller's).
  void EraseSlot(size_t i);

  /// Re-inserts every record into `slot_count` slots.
  void Rebuild(size_t slot_count);

  std::vector<Slot> slots_;     ///< Power-of-two sized; at most 3/4 full.
  std::vector<uint8_t> used_;   ///< Control bytes: 1 = slots_[i] occupied.
  size_t size_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_STORE_H_
