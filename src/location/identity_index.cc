#include "location/identity_index.h"

#include <cstdio>
#include <cstdlib>

namespace udr::location {

void IdentityIndex::Put(std::string_view value, const LocationEntry& entry) {
  const uint32_t hash = Hash(value);
  size_t i = SlotOf(value, hash);
  if (i == Table::kNotFound) {
    // Grow here rather than inside Insert, so that growth compacts the arena.
    const size_t grown = table_.GrownSlotCount();
    if (grown != table_.slot_count()) Rebuild(grown);
    if (bytes_.size() + value.size() >= 0xFFFFFFFFu) {
      // Slots address the arena with 32-bit offsets and lengths.
      std::fprintf(stderr, "[udr] IdentityIndex arena exceeds 4 GiB\n");
      std::abort();
    }
    i = table_.Insert(hash);
    Slot& s = table_.at(i);
    s.hash = hash;
    s.offset = static_cast<uint32_t>(bytes_.size());
    s.length = static_cast<uint32_t>(value.size());
    bytes_.append(value);
  }
  table_.at(i).record_key = entry.key;
  table_.at(i).partition = entry.partition;
}

bool IdentityIndex::Erase(std::string_view value) {
  const size_t i = SlotOf(value, Hash(value));
  if (i == Table::kNotFound) return false;
  dead_bytes_ += table_.at(i).length;
  table_.EraseAt(i);
  if (dead_bytes_ > static_cast<size_t>(key_bytes())) {
    Rebuild(table_.slot_count());
  }
  return true;
}

void IdentityIndex::Rebuild(size_t slot_count) {
  std::string old_bytes;
  old_bytes.swap(bytes_);
  bytes_.reserve(old_bytes.size() - dead_bytes_);
  dead_bytes_ = 0;
  table_.Rebuild(slot_count, [&](Slot& s) {
    const auto offset = static_cast<uint32_t>(bytes_.size());
    bytes_.append(old_bytes, s.offset, s.length);
    s.offset = offset;
  });
}

}  // namespace udr::location
