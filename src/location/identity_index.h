// Flat identity index: the host-side hash table behind every identity ->
// location map. A BindingSet holds one per identity type; a UDR keeps one
// physical BindingSet (its router's), which every location stage reads. A
// cache-on-miss stage keeps only a second set of the bindings it has not
// seen yet, empty unless it joined a populated UDR or was invalidated.
//
// One index holds the identities of one type. Slots are 24 bytes in one
// power-of-two array with linear probing; the identity bytes live in a
// shared arena, so a binding costs one slot plus its bytes instead of a tree
// node, a std::string and their allocations. A lookup is one hash and
// usually one probe (p4db's PartitionInfo::location is the same O(1) form).
// The paper's O(log N) descent survives only in the cost model, which reads
// size(); nothing modelled depends on the host layout.

#ifndef UDR_LOCATION_IDENTITY_INDEX_H_
#define UDR_LOCATION_IDENTITY_INDEX_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "location/identity.h"
#include "storage/record.h"

namespace udr::location {

/// Where one subscriber's data lives.
struct LocationEntry {
  storage::RecordKey key = 0;  ///< Record key inside the partition.
  uint32_t partition = 0;      ///< Data partition / replica-set id.

  bool operator==(const LocationEntry& o) const {
    return key == o.key && partition == o.partition;
  }
};

/// Open-addressing map from identity bytes to LocationEntry. Lookups compare
/// the stored bytes in full, so distinct identities never alias. Erase uses
/// backward-shift deletion (no tombstones); the arena is compacted once
/// unbound bytes outweigh bound ones. Iteration order is a deterministic
/// function of the bind/unbind history.
class IdentityIndex {
 public:
  /// Location bound to `value`; empty when unbound.
  std::optional<LocationEntry> Find(std::string_view value) const {
    if (slots_.empty()) return std::nullopt;
    const Slot& s = slots_[Probe(value, Hash(value))];
    if (s.offset == kEmpty) return std::nullopt;
    return LocationEntry{s.record_key, s.partition};
  }

  /// Binds `value`, or rebinds it when already bound.
  void Put(std::string_view value, const LocationEntry& entry);

  /// Unbinds `value`; false when it was not bound.
  bool Erase(std::string_view value);

  /// Number of bound identities.
  size_t size() const { return size_; }

  /// Total length of the bound identities in bytes.
  int64_t key_bytes() const {
    return static_cast<int64_t>(bytes_.size() - dead_bytes_);
  }

  /// Calls fn(value, entry) for every binding.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.offset != kEmpty) {
        fn(KeyOf(s), LocationEntry{s.record_key, s.partition});
      }
    }
  }

  /// Slots in the table (a power of two, or 0 before the first bind).
  size_t slot_count() const { return slots_.size(); }

  /// Hash of identity bytes; a binding's home slot is Hash & (slot_count-1).
  /// Word-wise FNV-1a with a splitmix64 finish: identities of one numbering
  /// plan differ only in their trailing digits, which plain FNV leaves in
  /// the high bits the mask drops.
  static uint32_t Hash(std::string_view value) {
    uint64_t h = 0xcbf29ce484222325ULL ^
                 (static_cast<uint64_t>(value.size()) * 0x100000001b3ULL);
    const char* p = value.data();
    size_t n = value.size();
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 0x100000001b3ULL;
      p += 8;
      n -= 8;
    }
    uint64_t tail = 0;
    if (n != 0) std::memcpy(&tail, p, n);
    h = (h ^ tail) * 0x100000001b3ULL;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return static_cast<uint32_t>(h);
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  struct Slot {
    storage::RecordKey record_key = 0;
    uint32_t partition = 0;
    uint32_t hash = 0;        ///< Hash(value); home slot = hash & mask.
    uint32_t offset = kEmpty; ///< Arena offset of the bytes; kEmpty = free.
    uint32_t length = 0;
  };
  static_assert(sizeof(Slot) == 24, "keep slots small: slack is RSS");

  std::string_view KeyOf(const Slot& s) const {
    return std::string_view(bytes_.data() + s.offset, s.length);
  }

  /// Slot holding `value`, or the free slot that ends its probe sequence.
  /// Requires a non-empty table.
  size_t Probe(std::string_view value, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.offset == kEmpty) return i;
      if (s.hash == hash && KeyOf(s) == value) return i;
    }
  }

  /// Re-inserts every binding into `slot_count` slots and a compacted arena.
  void Rebuild(size_t slot_count);

  std::vector<Slot> slots_;  ///< Power-of-two sized; at most 3/4 full.
  std::string bytes_;        ///< Arena of identity bytes.
  size_t size_ = 0;
  size_t dead_bytes_ = 0;    ///< Arena bytes of unbound identities.
};

/// Identity -> location bindings of every identity type.
class BindingSet {
 public:
  const IdentityIndex& of(IdentityType type) const {
    return index_[static_cast<int>(type)];
  }
  std::optional<LocationEntry> Find(const Identity& id) const {
    return of(id.type).Find(id.value);
  }
  void Put(const Identity& id, const LocationEntry& entry) {
    index_[static_cast<int>(id.type)].Put(id.value, entry);
  }
  /// Unbinds `id`; false when it was not bound.
  bool Erase(const Identity& id) {
    return index_[static_cast<int>(id.type)].Erase(id.value);
  }
  /// Unbinds everything and releases the tables.
  void Clear() { *this = BindingSet(); }

  /// Bindings, and their identity bytes, over every type.
  int64_t size() const {
    int64_t total = 0;
    for (const IdentityIndex& i : index_) {
      total += static_cast<int64_t>(i.size());
    }
    return total;
  }
  int64_t key_bytes() const {
    int64_t total = 0;
    for (const IdentityIndex& i : index_) total += i.key_bytes();
    return total;
  }

 private:
  IdentityIndex index_[kIdentityTypeCount];
};

}  // namespace udr::location

#endif  // UDR_LOCATION_IDENTITY_INDEX_H_
