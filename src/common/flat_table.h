// One open-addressing hash table for every flat map in src/: the record
// store, the identity index, FlatKeyIndex below, the commit log's range
// tally and the attribute pool's snapshot. Each is a thin user that picks a
// slot layout, a hash and a key compare.
//
// Layout: one power-of-two slot array with linear probing, plus a
// control-byte array for occupancy so the flag costs no slot padding. The
// table starts at 8 slots and doubles when an insert would pass 3/4 load.
// Erase is backward-shift deletion (no tombstones), so insert/erase churn at
// a stable size never grows or allocates. A free slot always holds Slot{}.
//
// Slot order (ForEach, and the index Insert returns) is a deterministic
// function of the insert/erase history, since a rebuild re-inserts the old
// slots in index order; storage::CatchUpRange relies on it.

#ifndef UDR_COMMON_FLAT_TABLE_H_
#define UDR_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace udr {

/// splitmix64 finalizer. Keys that differ only in their low bits (sequential
/// record keys, numbering-plan identities) spread over the whole table.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Hash of a byte string: word-wise FNV-1a seeded with the length, finished
/// by Mix64. Hashing 8-byte words keeps a short name or identity to a few
/// multiplies; plain FNV leaves trailing-digit differences in the high bits
/// a mask drops, which the finish spreads.
inline uint64_t HashBytes(std::string_view bytes) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^
               (static_cast<uint64_t>(bytes.size()) * kPrime);
  const char* p = bytes.data();
  size_t n = bytes.size();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  if (n != 0) std::memcpy(&tail, p, n);
  h = (h ^ tail) * kPrime;
  return Mix64(h);
}

/// Open-addressing table of Traits::Slot. Traits gives the slot type and
/// `static uint64_t HashOf(const Slot&)`, the hash the slot's key was
/// inserted under. Users find slots with their own key compare.
template <typename Traits>
class FlatTable {
 public:
  using Slot = typename Traits::Slot;
  static constexpr size_t kNotFound = ~size_t{0};

  /// Index of the first slot in `hash`'s probe run with eq(slot), or
  /// kNotFound.
  template <typename Eq>
  size_t Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNotFound;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask; used_[i] != 0; i = (i + 1) & mask) {
      if (eq(slots_[i])) return i;
    }
    return kNotFound;
  }

  /// Claims the free slot that ends `hash`'s probe run, growing first to
  /// GrownSlotCount(). The caller fills the slot so that HashOf gives `hash`;
  /// its key must be absent.
  size_t Insert(uint64_t hash) {
    const size_t grown = GrownSlotCount();
    if (grown != slots_.size()) Rebuild(grown, [](Slot&) {});
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (used_[i] != 0) i = (i + 1) & mask;
    used_[i] = 1;
    ++size_;
    return i;
  }

  /// Slot count the next Insert runs at. A user whose slots point into
  /// storage of its own rebuilds at this count first (see Rebuild).
  size_t GrownSlotCount() const {
    if ((size_ + 1) * 4 <= slots_.size() * 3) return slots_.size();
    return slots_.empty() ? 8 : slots_.size() * 2;
  }

  /// Empties slot `hole`: each later member of the probe run moves back into
  /// the hole unless that would put it before its home slot.
  void EraseAt(size_t hole) {
    --size_;
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; used_[j] != 0; j = (j + 1) & mask) {
      const size_t home = Traits::HashOf(slots_[j]) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    slots_[hole] = Slot{};
  }

  /// Re-inserts every slot, in index order, into `count` slots (a power of
  /// two above size() * 4/3) and calls fix(slot) on each at its new index.
  template <typename Fix>
  void Rebuild(size_t count, Fix&& fix) {
    std::vector<Slot> old_slots(count);
    old_slots.swap(slots_);
    std::vector<uint8_t> old_used(count, 0);
    old_used.swap(used_);
    const size_t mask = count - 1;
    for (size_t j = 0; j < old_slots.size(); ++j) {
      if (old_used[j] == 0) continue;
      size_t i = Traits::HashOf(old_slots[j]) & mask;
      while (used_[i] != 0) i = (i + 1) & mask;
      used_[i] = 1;
      slots_[i] = std::move(old_slots[j]);
      fix(slots_[i]);
    }
  }

  /// Sizes the table so that `n` keys fit without a rebuild.
  void Reserve(size_t n) {
    size_t want = 8;
    while (want * 3 < n * 4) want *= 2;
    if (want > slots_.size()) Rebuild(want, [](Slot&) {});
  }

  /// Empties every slot; the slot array keeps its size.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }

  /// Calls fn(slot) for every occupied slot, in index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] != 0) fn(slots_[i]);
    }
  }

  Slot& at(size_t i) { return slots_[i]; }
  const Slot& at(size_t i) const { return slots_[i]; }
  size_t size() const { return size_; }

  /// Slots in the table (a power of two, or 0 before the first insert).
  size_t slot_count() const { return slots_.size(); }

 private:
  std::vector<Slot> slots_;    ///< Power-of-two sized; at most 3/4 full.
  std::vector<uint8_t> used_;  ///< Control bytes: 1 = slots_[i] occupied.
  size_t size_ = 0;
};

/// Map from 64-bit keys to 32-bit slot numbers, for structures that own
/// their entries in a slot array of their own: the PoA cache's entries, the
/// heat sketch's top-K slots and the event pipeline's parked record keys
/// (key -> cluster). Reserve() sizes it once for a known bound.
class FlatKeyIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Slot number stored under `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    const size_t i = IndexOf(key);
    return i == Table::kNotFound ? kNone : table_.at(i).slot;
  }

  /// Stores `slot` under `key`, which must be absent.
  void Insert(uint64_t key, uint32_t slot) {
    table_.at(table_.Insert(Mix64(key))) = Entry{key, slot};
  }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    const size_t i = IndexOf(key);
    if (i == Table::kNotFound) return false;
    table_.EraseAt(i);
    return true;
  }

  void Reserve(size_t n) { table_.Reserve(n); }
  void Clear() { table_.Clear(); }
  size_t size() const { return table_.size(); }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = 0;
  };
  struct Traits {
    using Slot = Entry;
    static uint64_t HashOf(const Entry& e) { return Mix64(e.key); }
  };
  using Table = FlatTable<Traits>;

  size_t IndexOf(uint64_t key) const {
    return table_.Find(Mix64(key),
                       [key](const Entry& e) { return e.key == key; });
  }

  Table table_;
};

}  // namespace udr

#endif  // UDR_COMMON_FLAT_TABLE_H_
