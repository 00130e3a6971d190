#include "storage/record_store.h"

namespace udr::storage {

const Record* RecordStore::Find(RecordKey key) const {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

bool RecordStore::MutateRecord(RecordKey key,
                               const std::function<void(Record&)>& fn) {
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  AccountRemove(it->second);
  fn(it->second);
  it->second.bump_version();
  AccountAdd(it->second);
  return true;
}

void RecordStore::SetAttribute(RecordKey key, std::string_view name,
                               Value value, MicroTime at, uint32_t writer) {
  SetAttribute(key, AttrPool::Global().Intern(name), std::move(value), at,
               writer);
}

void RecordStore::SetAttribute(RecordKey key, AttrId attr_id, Value value,
                               MicroTime at, uint32_t writer) {
  auto [it, inserted] = records_.try_emplace(key);
  Record& rec = it->second;
  if (!inserted) AccountRemove(rec);
  rec.SetById(attr_id, std::move(value), at, writer);
  rec.bump_version();
  AccountAdd(rec);
}

void RecordStore::ApplyUpsertRun(const WriteOp* ops, size_t n) {
  auto [it, inserted] = records_.try_emplace(ops[0].key);
  Record& rec = it->second;
  if (inserted) {
    rec.Reserve(n);
  } else {
    AccountRemove(rec);
  }
  for (size_t i = 0; i < n; ++i) {
    const Attribute& a = ops[i].attribute;
    rec.SetById(ops[i].attr_id, a.value, a.modified_at, a.writer);
    rec.bump_version();
  }
  AccountAdd(rec);
}

void RecordStore::RemoveAttribute(RecordKey key, std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  if (id != kInvalidAttrId) RemoveAttribute(key, id);
}

void RecordStore::RemoveAttribute(RecordKey key, AttrId attr_id) {
  auto it = records_.find(key);
  if (it == records_.end()) return;
  AccountRemove(it->second);
  it->second.RemoveById(attr_id);
  it->second.bump_version();
  AccountAdd(it->second);
}

const Attribute* RecordStore::FindAttribute(RecordKey key,
                                            std::string_view name) const {
  auto it = records_.find(key);
  if (it == records_.end()) return nullptr;
  return it->second.Find(name);
}

void RecordStore::PutRecord(RecordKey key, Record record) {
  auto it = records_.find(key);
  if (it != records_.end()) {
    AccountRemove(it->second);
    it->second = std::move(record);
    AccountAdd(it->second);
  } else {
    auto [pos, _] = records_.emplace(key, std::move(record));
    AccountAdd(pos->second);
  }
}

bool RecordStore::DeleteRecord(RecordKey key) {
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  AccountRemove(it->second);
  records_.erase(it);
  return true;
}

void RecordStore::ForEach(
    const std::function<void(RecordKey, const Record&)>& fn) const {
  for (const auto& [key, rec] : records_) fn(key, rec);
}

void RecordStore::Clear() {
  records_.clear();
  approx_bytes_ = 0;
}

}  // namespace udr::storage
