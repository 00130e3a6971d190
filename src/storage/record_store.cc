#include "storage/record_store.h"

namespace udr::storage {

std::pair<Record*, bool> RecordStore::FindOrInsert(RecordKey key) {
  const size_t found = SlotOf(key);
  if (found != kNoSlot) return {&slots_[found].record, false};
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Rebuild(slots_.empty() ? 8 : slots_.size() * 2);
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(key) & mask;
  while (used_[i] != 0) i = (i + 1) & mask;
  used_[i] = 1;
  slots_[i].key = key;
  ++size_;
  approx_bytes_ += slots_[i].record.ApproxBytes();
  return {&slots_[i].record, true};
}

void RecordStore::EraseSlot(size_t hole) {
  --size_;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it before its home slot.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; used_[j] != 0; j = (j + 1) & mask) {
    size_t home = Hash(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
  }
  used_[hole] = 0;
  slots_[hole] = Slot{};
}

void RecordStore::Rebuild(size_t slot_count) {
  std::vector<Slot> old_slots(slot_count);
  old_slots.swap(slots_);
  std::vector<uint8_t> old_used(slot_count, 0);
  old_used.swap(used_);
  const size_t mask = slot_count - 1;
  for (size_t j = 0; j < old_slots.size(); ++j) {
    if (old_used[j] == 0) continue;
    size_t i = Hash(old_slots[j].key) & mask;
    while (used_[i] != 0) i = (i + 1) & mask;
    used_[i] = 1;
    slots_[i] = std::move(old_slots[j]);
  }
}

bool RecordStore::MutateRecord(RecordKey key,
                               const std::function<void(Record&)>& fn) {
  const size_t i = SlotOf(key);
  if (i == kNoSlot) return false;
  Record& rec = slots_[i].record;
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

void RecordStore::ApplyUpsertRun(const WriteOp* ops, size_t n) {
  auto [rec, inserted] = FindOrInsert(ops[0].key);
  if (inserted) rec->Reserve(n);
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
  if (i == kNoSlot) return;
  Record& rec = slots_[i].record;
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

bool RecordStore::DeleteRecord(RecordKey key) {
  const size_t i = SlotOf(key);
  if (i == kNoSlot) return false;
  approx_bytes_ -= slots_[i].record.ApproxBytes();
  EraseSlot(i);
  return true;
}

void RecordStore::ForEach(
    const std::function<void(RecordKey, const Record&)>& fn) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (used_[i] != 0) fn(slots_[i].key, slots_[i].record);
  }
}

}  // namespace udr::storage
