// Convenience builder for replicated write sets. Higher layers (LDAP modify,
// provisioning) assemble their transactions through this instead of spelling
// out WriteOp structs.

#ifndef UDR_REPLICATION_WRITE_BUILDER_H_
#define UDR_REPLICATION_WRITE_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "storage/commit_log.h"

namespace udr::replication {

/// Fluent builder producing a vector of WriteOps for ReplicaSet::Write.
class WriteBuilder {
 public:
  /// Sets an attribute on a record (name interned into the pool).
  WriteBuilder& Set(storage::RecordKey key, std::string_view attr,
                    storage::Value value) {
    return Set(key, storage::InternAttr(attr), std::move(value));
  }

  /// Sets an attribute on a record by interned id.
  WriteBuilder& Set(storage::RecordKey key, storage::AttrId attr_id,
                    storage::Value value) {
    storage::WriteOp op;
    op.kind = storage::WriteKind::kUpsertAttr;
    op.key = key;
    op.attr_id = attr_id;
    op.attribute.value = std::move(value);
    ops_.push_back(std::move(op));
    return *this;
  }

  /// Removes an attribute from a record.
  WriteBuilder& Remove(storage::RecordKey key, std::string_view attr) {
    storage::WriteOp op;
    op.kind = storage::WriteKind::kRemoveAttr;
    op.key = key;
    op.attr_id = storage::InternAttr(attr);
    ops_.push_back(std::move(op));
    return *this;
  }

  /// Deletes a whole record.
  WriteBuilder& Delete(storage::RecordKey key) {
    storage::WriteOp op;
    op.kind = storage::WriteKind::kDeleteRecord;
    op.key = key;
    ops_.push_back(std::move(op));
    return *this;
  }

  /// Sets every attribute of `record` on `key` (used for record creation).
  WriteBuilder& PutRecord(storage::RecordKey key,
                          const storage::Record& record) {
    for (const storage::PackedAttr& e : record.entries()) {
      Set(key, e.name_id, e.attr.value);
    }
    return *this;
  }

  /// Reserves room for `n` ops (one allocation for a known-size write).
  WriteBuilder& Reserve(size_t n) {
    ops_.reserve(n);
    return *this;
  }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Consumes the builder.
  std::vector<storage::WriteOp> Build() && { return std::move(ops_); }
  /// Copies out the ops without consuming.
  const std::vector<storage::WriteOp>& ops() const { return ops_; }

 private:
  std::vector<storage::WriteOp> ops_;
};

}  // namespace udr::replication

#endif  // UDR_REPLICATION_WRITE_BUILDER_H_
