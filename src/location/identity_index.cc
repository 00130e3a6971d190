#include "location/identity_index.h"

#include <cstdio>
#include <cstdlib>

namespace udr::location {

void IdentityIndex::Put(std::string_view value, const LocationEntry& entry) {
  uint32_t hash = Hash(value);
  size_t i = slots_.empty() ? 0 : Probe(value, hash);
  if (slots_.empty() || slots_[i].offset == kEmpty) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rebuild(slots_.empty() ? 8 : slots_.size() * 2);
      i = Probe(value, hash);
    }
    if (bytes_.size() + value.size() >= kEmpty) {
      // Slots address the arena with 32-bit offsets and lengths.
      std::fprintf(stderr, "[udr] IdentityIndex arena exceeds 4 GiB\n");
      std::abort();
    }
    Slot& s = slots_[i];
    s.hash = hash;
    s.offset = static_cast<uint32_t>(bytes_.size());
    s.length = static_cast<uint32_t>(value.size());
    bytes_.append(value);
    ++size_;
  }
  slots_[i].record_key = entry.key;
  slots_[i].partition = entry.partition;
}

bool IdentityIndex::Erase(std::string_view value) {
  if (slots_.empty()) return false;
  size_t hole = Probe(value, Hash(value));
  if (slots_[hole].offset == kEmpty) return false;
  dead_bytes_ += slots_[hole].length;
  --size_;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it before its home slot.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].offset != kEmpty;
       j = (j + 1) & mask) {
    size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  if (dead_bytes_ > static_cast<size_t>(key_bytes())) Rebuild(slots_.size());
  return true;
}

void IdentityIndex::Rebuild(size_t slot_count) {
  std::vector<Slot> old_slots(slot_count);
  old_slots.swap(slots_);
  std::string old_bytes;
  old_bytes.swap(bytes_);
  bytes_.reserve(old_bytes.size() - dead_bytes_);
  dead_bytes_ = 0;
  const size_t mask = slot_count - 1;
  for (const Slot& s : old_slots) {
    if (s.offset == kEmpty) continue;
    size_t i = s.hash & mask;
    while (slots_[i].offset != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
    slots_[i].offset = static_cast<uint32_t>(bytes_.size());
    bytes_.append(old_bytes, s.offset, s.length);
  }
}

}  // namespace udr::location
