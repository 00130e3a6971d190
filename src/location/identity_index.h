// Flat identity index: the host-side hash table behind every identity ->
// location map. A BindingSet holds one per identity type; a UDR keeps one
// physical BindingSet (its router's), which every location stage reads. A
// cache-on-miss stage keeps only a second set of the bindings it has not
// seen yet, empty unless it joined a populated UDR or was invalidated.
//
// One index holds the identities of one type, in a FlatTable
// (common/flat_table.h) of 24-byte slots; the identity bytes live in a
// shared arena, so a binding costs one slot plus its bytes instead of a tree
// node, a std::string and their allocations. A lookup is one hash and
// usually one probe (p4db's PartitionInfo::location is the same O(1) form).
// The paper's O(log N) descent survives only in the cost model, which reads
// size(); nothing modelled depends on the host layout.

#ifndef UDR_LOCATION_IDENTITY_INDEX_H_
#define UDR_LOCATION_IDENTITY_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/flat_table.h"
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
/// the stored bytes in full, so distinct identities never alias. The arena
/// is compacted when the table grows and once unbound bytes outweigh bound
/// ones. Iteration order is a deterministic function of the bind/unbind
/// history.
class IdentityIndex {
 public:
  /// Location bound to `value`; empty when unbound.
  std::optional<LocationEntry> Find(std::string_view value) const {
    const size_t i = SlotOf(value, Hash(value));
    if (i == Table::kNotFound) return std::nullopt;
    const Slot& s = table_.at(i);
    return LocationEntry{s.record_key, s.partition};
  }

  /// Binds `value`, or rebinds it when already bound.
  void Put(std::string_view value, const LocationEntry& entry);

  /// Unbinds `value`; false when it was not bound.
  bool Erase(std::string_view value);

  /// Number of bound identities.
  size_t size() const { return table_.size(); }

  /// Total length of the bound identities in bytes.
  int64_t key_bytes() const {
    return static_cast<int64_t>(bytes_.size() - dead_bytes_);
  }

  /// Calls fn(value, entry) for every binding.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    table_.ForEach([&](const Slot& s) {
      fn(KeyOf(s), LocationEntry{s.record_key, s.partition});
    });
  }

  /// Slots in the table (a power of two, or 0 before the first bind).
  size_t slot_count() const { return table_.slot_count(); }

  /// Hash of identity bytes; a binding's home slot is Hash & (slot_count-1).
  static uint32_t Hash(std::string_view value) {
    return static_cast<uint32_t>(HashBytes(value));
  }

 private:
  struct Slot {
    storage::RecordKey record_key = 0;
    uint32_t partition = 0;
    uint32_t hash = 0;    ///< Hash(value); home slot = hash & mask.
    uint32_t offset = 0;  ///< Arena offset of the bytes.
    uint32_t length = 0;
  };
  static_assert(sizeof(Slot) == 24, "keep slots small: slack is RSS");
  struct Traits {
    using Slot = IdentityIndex::Slot;
    static uint64_t HashOf(const Slot& s) { return s.hash; }
  };
  using Table = FlatTable<Traits>;

  std::string_view KeyOf(const Slot& s) const {
    return std::string_view(bytes_.data() + s.offset, s.length);
  }

  /// Slot holding `value`, or Table::kNotFound.
  size_t SlotOf(std::string_view value, uint32_t hash) const {
    return table_.Find(hash, [&](const Slot& s) {
      return s.hash == hash && KeyOf(s) == value;
    });
  }

  /// Re-inserts every binding into `slot_count` slots and a compacted arena.
  void Rebuild(size_t slot_count);

  Table table_;
  std::string bytes_;        ///< Arena of identity bytes.
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
