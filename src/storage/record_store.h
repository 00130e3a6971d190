// Committed-state record store: the RAM-resident hash-indexed table that a
// storage element keeps for one (sub-)partition of the subscriber space.

#ifndef UDR_STORAGE_RECORD_STORE_H_
#define UDR_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "storage/commit_log.h"
#include "storage/record.h"

namespace udr::storage {

/// Hash-indexed in-memory record table with byte accounting.
class RecordStore {
 public:
  /// Looks up a record; nullptr when absent.
  const Record* Find(RecordKey key) const;

  /// In-place mutation with byte re-accounting. The record's footprint is
  /// subtracted before `fn` runs and re-added after, so `fn` may freely grow
  /// or shrink the record without desynchronizing ApproxBytes() — the
  /// footgun the old bare mutable lookup allowed. Returns false when the key
  /// is absent (`fn` is not called).
  bool MutateRecord(RecordKey key, const std::function<void(Record&)>& fn);

  bool Contains(RecordKey key) const { return records_.count(key) > 0; }

  /// Sets one attribute, creating the record if needed. The name is interned
  /// on first use; the AttrId overload is the log-replay fast path.
  void SetAttribute(RecordKey key, std::string_view name, Value value,
                    MicroTime at, uint32_t writer);
  void SetAttribute(RecordKey key, AttrId attr_id, Value value, MicroTime at,
                    uint32_t writer);

  /// Applies `n` consecutive kUpsertAttr ops that all target `ops[0].key` as
  /// one mutation: one hash lookup and one byte re-accounting for the run
  /// (the per-op subtract/add telescopes, so ApproxBytes() ends where op-by-
  /// op application would), still one version bump per op. A record the run
  /// creates is reserved to the run length; an existing record is not,
  /// since reserving on every overwrite would reallocate it each time.
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
  int64_t Count() const { return static_cast<int64_t>(records_.size()); }

  /// Approximate RAM usage in bytes.
  int64_t ApproxBytes() const { return approx_bytes_; }

  /// Iterates all records (scan order is unspecified but deterministic for a
  /// given insertion history).
  void ForEach(const std::function<void(RecordKey, const Record&)>& fn) const;

  /// Removes everything.
  void Clear();

 private:
  void AccountRemove(const Record& r) { approx_bytes_ -= r.ApproxBytes(); }
  void AccountAdd(const Record& r) { approx_bytes_ += r.ApproxBytes(); }

  std::unordered_map<RecordKey, Record> records_;
  int64_t approx_bytes_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_STORE_H_
