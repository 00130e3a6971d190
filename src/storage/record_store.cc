#include "storage/record_store.h"

#include <cassert>

namespace udr::storage {

std::pair<Record*, bool> RecordStore::FindOrInsert(RecordKey key) {
  const size_t found = SlotOf(key);
  if (found != Table::kNotFound) return {&table_.at(found).record, false};
  Slot& slot = table_.at(table_.Insert(Hash(key)));
  slot.key = key;
  approx_bytes_ += slot.record.ApproxBytes();
  return {&slot.record, true};
}

bool RecordStore::MutateRecord(RecordKey key,
                               const std::function<void(Record&)>& fn) {
  const size_t i = SlotOf(key);
  if (i == Table::kNotFound) return false;
  Record& rec = table_.at(i).record;
  approx_bytes_ -= rec.ApproxBytes();
  fn(rec);
  rec.bump_version();
  approx_bytes_ += rec.ApproxBytes();
  return true;
}

void RecordStore::SetAttribute(RecordKey key, std::string_view name,
                               Value value, MicroTime at, uint32_t writer) {
  SetAttribute(key, AttrPool::Global().Intern(name), std::move(value), at,
               writer);
}

void RecordStore::SetAttribute(RecordKey key, AttrId attr_id, Value value,
                               MicroTime at, uint32_t writer) {
  Record& rec = *FindOrInsert(key).first;
  approx_bytes_ += rec.SetById(attr_id, std::move(value), at, writer);
  rec.bump_version();
}

void RecordStore::ApplyUpsertRun(const WriteOp* ops, size_t n,
                                 uint64_t birth) {
  auto [rec, inserted] = FindOrInsert(ops[0].key);
  if (inserted) {
    rec->Reserve(n);
    rec->set_birth(birth);
  }
  int64_t delta = 0;
  for (size_t i = 0; i < n; ++i) {
    const Attribute& a = ops[i].attribute;
    delta += rec->SetById(ops[i].attr_id, a.value, a.modified_at, a.writer);
    rec->bump_version();
  }
  approx_bytes_ += delta;
}

void RecordStore::RemoveAttribute(RecordKey key, std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  if (id != kInvalidAttrId) RemoveAttribute(key, id);
}

void RecordStore::RemoveAttribute(RecordKey key, AttrId attr_id) {
  const size_t i = SlotOf(key);
  if (i == Table::kNotFound) return;
  Record& rec = table_.at(i).record;
  approx_bytes_ += rec.RemoveById(attr_id);
  rec.bump_version();
}

const Attribute* RecordStore::FindAttribute(RecordKey key,
                                            std::string_view name) const {
  const Record* rec = Find(key);
  return rec == nullptr ? nullptr : rec->Find(name);
}

void RecordStore::PutRecord(RecordKey key, Record record) {
  Record& rec = *FindOrInsert(key).first;
  approx_bytes_ -= rec.ApproxBytes();
  rec = std::move(record);
  approx_bytes_ += rec.ApproxBytes();
}

void RecordStore::AdoptRecord(RecordKey key, const Record& source) {
  auto [rec, inserted] = FindOrInsert(key);
  assert(inserted);
  (void)inserted;
  approx_bytes_ -= rec->ApproxBytes();
  *rec = source.Share();
  approx_bytes_ += rec->ApproxBytes();
}

bool RecordStore::DeleteRecord(RecordKey key) {
  const size_t i = SlotOf(key);
  if (i == Table::kNotFound) return false;
  approx_bytes_ -= table_.at(i).record.ApproxBytes();
  table_.EraseAt(i);
  return true;
}

void RecordStore::ForEach(
    const std::function<void(RecordKey, const Record&)>& fn) const {
  table_.ForEach([&fn](const Slot& s) { fn(s.key, s.record); });
}

}  // namespace udr::storage
