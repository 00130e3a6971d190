#include "storage/transaction.h"

#include <cassert>

namespace udr::storage {

Transaction::Transaction(Transaction&& o) noexcept
    : manager_(o.manager_),
      id_(o.id_),
      isolation_(o.isolation_),
      writes_(std::move(o.writes_)),
      locked_(std::move(o.locked_)) {
  o.manager_ = nullptr;
  if (manager_ != nullptr) manager_->active_[id_] = this;
}

Transaction& Transaction::operator=(Transaction&& o) noexcept {
  if (this != &o) {
    if (manager_ != nullptr) Abort();
    manager_ = o.manager_;
    id_ = o.id_;
    isolation_ = o.isolation_;
    writes_ = std::move(o.writes_);
    locked_ = std::move(o.locked_);
    o.manager_ = nullptr;
    if (manager_ != nullptr) manager_->active_[id_] = this;
  }
  return *this;
}

Transaction::~Transaction() {
  if (manager_ != nullptr) Abort();
}

Status Transaction::LockForWrite(RecordKey key) {
  assert(manager_ != nullptr && "transaction already finished");
  if (locked_.count(key) > 0) return Status::Ok();
  auto it = manager_->lock_table_.find(key);
  if (it != manager_->lock_table_.end() && it->second != id_) {
    ++manager_->conflicts_;
    return Status::Aborted("write-write conflict on record " +
                           std::to_string(key));
  }
  manager_->lock_table_[key] = id_;
  locked_.insert(key);
  return Status::Ok();
}

Status Transaction::SetAttribute(RecordKey key, const std::string& name,
                                 Value value) {
  UDR_RETURN_IF_ERROR(LockForWrite(key));
  WriteOp op;
  op.kind = WriteKind::kUpsertAttr;
  op.key = key;
  op.attr_id = InternAttr(name);
  op.attribute.value = std::move(value);
  writes_.push_back(std::move(op));
  return Status::Ok();
}

Status Transaction::RemoveAttribute(RecordKey key, const std::string& name) {
  UDR_RETURN_IF_ERROR(LockForWrite(key));
  WriteOp op;
  op.kind = WriteKind::kRemoveAttr;
  op.key = key;
  op.attr_id = InternAttr(name);
  writes_.push_back(std::move(op));
  return Status::Ok();
}

Status Transaction::DeleteRecord(RecordKey key) {
  UDR_RETURN_IF_ERROR(LockForWrite(key));
  WriteOp op;
  op.kind = WriteKind::kDeleteRecord;
  op.key = key;
  writes_.push_back(std::move(op));
  return Status::Ok();
}

StatusOr<Value> Transaction::GetAttribute(RecordKey key,
                                          const std::string& name) const {
  Record rec;
  if (!manager_->VisibleRecord(this, key, &rec)) {
    return Status::NotFound("record " + std::to_string(key));
  }
  auto v = rec.Get(name);
  if (!v.has_value()) {
    return Status::NotFound("attribute " + name + " of record " +
                            std::to_string(key));
  }
  return *v;
}

StatusOr<Record> Transaction::GetRecord(RecordKey key) const {
  Record rec;
  if (!manager_->VisibleRecord(this, key, &rec)) {
    return Status::NotFound("record " + std::to_string(key));
  }
  return rec;
}

bool Transaction::RecordExists(RecordKey key) const {
  Record rec;
  return manager_->VisibleRecord(this, key, &rec);
}

StatusOr<CommitSeq> Transaction::Commit(MicroTime commit_time) {
  assert(manager_ != nullptr && "transaction already finished");
  TransactionManager* mgr = manager_;
  CommitSeq seq = 0;
  if (!writes_.empty()) {
    // Stamp write metadata at commit time: serialization order == commit
    // order, which is what the replication layer relays to slaves.
    for (WriteOp& op : writes_) {
      if (op.kind == WriteKind::kUpsertAttr) {
        op.attribute.modified_at = commit_time;
        op.attribute.writer = mgr->replica_id_;
      }
    }
    ApplyWriteOps(mgr->store_, writes_);
    seq = mgr->log_->Append(commit_time, mgr->replica_id_, std::move(writes_));
  }
  for (RecordKey key : locked_) mgr->lock_table_.erase(key);
  mgr->active_.erase(id_);
  ++mgr->commits_;
  manager_ = nullptr;
  writes_.clear();
  locked_.clear();
  return seq;
}

void Transaction::Abort() {
  if (manager_ == nullptr) return;
  for (RecordKey key : locked_) manager_->lock_table_.erase(key);
  manager_->active_.erase(id_);
  ++manager_->aborts_;
  manager_ = nullptr;
  writes_.clear();
  locked_.clear();
}

Transaction TransactionManager::Begin(IsolationLevel isolation) {
  Transaction txn(this, next_txn_id_++, isolation);
  active_[txn.id()] = &txn;
  return txn;
}

void TransactionManager::ApplyOpToRecord(Record* rec, bool* exists,
                                         const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kUpsertAttr:
      rec->SetById(op.attr_id, op.attribute.value, op.attribute.modified_at,
               op.attribute.writer);
      *exists = true;
      break;
    case WriteKind::kRemoveAttr:
      if (*exists) rec->RemoveById(op.attr_id);
      break;
    case WriteKind::kDeleteRecord:
      *rec = Record();
      *exists = false;
      break;
  }
}

bool TransactionManager::VisibleRecord(const Transaction* txn, RecordKey key,
                                       Record* out) const {
  bool exists = false;
  const Record* committed = store_->Find(key);
  if (committed != nullptr) {
    *out = *committed;
    exists = true;
  } else {
    *out = Record();
  }
  // READ_UNCOMMITTED sees other transactions' buffered (dirty) writes, in
  // transaction-begin order. This is the anomaly surface the paper accepts
  // for multi-SE transactions.
  if (txn->isolation() == IsolationLevel::kReadUncommitted) {
    for (const auto& [other_id, other] : active_) {
      if (other_id == txn->id()) continue;
      for (const WriteOp& op : other->writes_) {
        if (op.key == key) ApplyOpToRecord(out, &exists, op);
      }
    }
  }
  // Both levels read their own buffered writes.
  for (const WriteOp& op : txn->writes_) {
    if (op.key == key) ApplyOpToRecord(out, &exists, op);
  }
  return exists;
}

}  // namespace udr::storage
