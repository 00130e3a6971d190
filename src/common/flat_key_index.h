// Flat map from 64-bit keys to 32-bit slot numbers: the index behind the
// routing layer's fixed-slot structures (the PoA cache's entry array, the
// heat sketch's top-K slots). Those structures own their entries in one
// slot array; this table only finds a key's slot.
//
// Layout: one power-of-two array of (key, slot) pairs with linear probing,
// at most 3/4 full, plus a control-byte array for occupancy (RecordStore's
// layout, storage/record_store.h). Keys are hashed with a splitmix64
// finalizer because record keys are sequential under least-loaded
// placement. Erase is backward-shift deletion, so there are no tombstones
// and a table that only sees insert/erase churn at a stable size never
// grows or allocates. Reserve() sizes it up front for a known bound.

#ifndef UDR_COMMON_FLAT_KEY_INDEX_H_
#define UDR_COMMON_FLAT_KEY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace udr {

class FlatKeyIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Slot number stored under `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    if (entries_.empty()) return kNone;
    const size_t mask = entries_.size() - 1;
    for (size_t i = Hash(key) & mask; used_[i] != 0; i = (i + 1) & mask) {
      if (entries_[i].key == key) return entries_[i].slot;
    }
    return kNone;
  }

  /// Stores `slot` under `key`, which must be absent.
  void Insert(uint64_t key, uint32_t slot) {
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      Rebuild(entries_.empty() ? 8 : entries_.size() * 2);
    }
    const size_t mask = entries_.size() - 1;
    size_t i = Hash(key) & mask;
    while (used_[i] != 0) i = (i + 1) & mask;
    used_[i] = 1;
    entries_[i] = Entry{key, slot};
    ++size_;
  }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    if (entries_.empty()) return false;
    const size_t mask = entries_.size() - 1;
    size_t hole = Hash(key) & mask;
    while (true) {
      if (used_[hole] == 0) return false;
      if (entries_[hole].key == key) break;
      hole = (hole + 1) & mask;
    }
    --size_;
    // Backward-shift deletion: pull each later member of the probe run into
    // the hole unless that would move it before its home position.
    for (size_t j = (hole + 1) & mask; used_[j] != 0; j = (j + 1) & mask) {
      const size_t home = Hash(entries_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        entries_[hole] = entries_[j];
        hole = j;
      }
    }
    used_[hole] = 0;
    return true;
  }

  /// Sizes the table so that `n` keys fit without a rebuild.
  void Reserve(size_t n) {
    size_t want = 8;
    while (want * 3 < n * 4) want *= 2;
    if (want > entries_.size()) Rebuild(want);
  }

  void Clear() {
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = 0;
  };

  static uint64_t Hash(uint64_t key) {
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ULL;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBULL;
    key ^= key >> 31;
    return key;
  }

  void Rebuild(size_t count) {
    std::vector<Entry> old_entries(count);
    old_entries.swap(entries_);
    std::vector<uint8_t> old_used(count, 0);
    old_used.swap(used_);
    const size_t mask = count - 1;
    for (size_t j = 0; j < old_entries.size(); ++j) {
      if (old_used[j] == 0) continue;
      size_t i = Hash(old_entries[j].key) & mask;
      while (used_[i] != 0) i = (i + 1) & mask;
      used_[i] = 1;
      entries_[i] = old_entries[j];
    }
  }

  std::vector<Entry> entries_;  ///< Power-of-two sized; at most 3/4 full.
  std::vector<uint8_t> used_;   ///< 1 = entries_[i] occupied.
  size_t size_ = 0;
};

}  // namespace udr

#endif  // UDR_COMMON_FLAT_KEY_INDEX_H_
