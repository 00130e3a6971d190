// Subscriber data records. A record is a set of named attributes, each with a
// value plus the modification metadata (time + writing replica) needed by the
// multi-master consistency-restoration process of the paper's §5.
//
// Storage layout: attributes live in a small vector of (AttrId, Attribute)
// entries kept sorted by interned-name id — not in a std::map keyed by
// std::string. Names are shared through the process-wide AttrPool (they
// repeat across millions of subscribers), entries are contiguous (one
// allocation per record instead of one red-black-tree node per attribute),
// and lookups binary-search the packed vector after resolving the name
// through the pool with zero per-call std::string construction. ApproxBytes()
// models this packed footprint; MapLayoutBytes() models what the legacy
// std::map<std::string, Attribute> layout would cost, for the bytes/
// subscriber comparison benchmark (bench_record_layout).

#ifndef UDR_STORAGE_RECORD_H_
#define UDR_STORAGE_RECORD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/time.h"
#include "storage/attr_pool.h"

namespace udr::storage {

/// Internal record key. The UDR addresses subscriber data by identity via the
/// data location stage; inside a storage element records live under a
/// stable 64-bit key.
using RecordKey = uint64_t;

/// Attribute value: telecom subscriber profiles mix integers (flags,
/// counters), strings (identities, addresses) and multi-valued strings
/// (IMPU lists, service triggers).
using Value = std::variant<int64_t, bool, std::string, std::vector<std::string>>;

/// Renders a value for logs and examples.
std::string ValueToString(const Value& v);

/// Approximate serialized payload size of a value in bytes (wire/estimate
/// model, used by log shipping and capacity planning).
int64_t ValueBytes(const Value& v);

/// Heap bytes a value holds beyond its inline variant storage (0 for
/// integers, booleans and small-string-optimized strings). The packed
/// layout's RAM model = inline entry size + this.
int64_t ValueHeapBytes(const Value& v);

/// True when two values are equal (same alternative and payload).
bool ValueEquals(const Value& a, const Value& b);

/// One attribute version: the value and who wrote it when. `writer` is a
/// replica identifier used for last-writer-wins tie-breaking during
/// consistency restoration.
struct Attribute {
  Value value;
  MicroTime modified_at = 0;
  uint32_t writer = 0;

  bool operator==(const Attribute& o) const {
    return ValueEquals(value, o.value) && modified_at == o.modified_at &&
           writer == o.writer;
  }
};

/// One packed entry: interned name id + attribute version. Entries sort by
/// `name_id` inside a record.
struct PackedAttr {
  AttrId name_id = 0;
  Attribute attr;

  bool operator==(const PackedAttr& o) const {
    return name_id == o.name_id && attr == o.attr;
  }
};

/// A subscriber data record: named attributes plus a record version that
/// increments on every committed write.
class Record {
 public:
  Record() = default;

  /// Sets (or overwrites) an attribute by name (interned on first use).
  void Set(std::string_view name, Value value, MicroTime at, uint32_t writer);
  /// Sets (or overwrites) an attribute by interned id (the log-replay path).
  /// Returns the change in ApproxBytes(), so a store can keep its byte
  /// count without re-summing the record.
  int64_t SetById(AttrId id, Value value, MicroTime at, uint32_t writer);

  /// Removes an attribute. Returns true if it existed.
  bool Remove(std::string_view name);
  /// Removes an attribute by interned id. Returns the change in
  /// ApproxBytes(): negative when it existed, 0 when absent.
  int64_t RemoveById(AttrId id);

  /// Attribute lookup; nullptr when absent. Resolves the name through the
  /// intern pool (no per-call std::string construction), then binary-searches
  /// the packed entries.
  const Attribute* Find(std::string_view name) const;
  const Attribute* FindById(AttrId id) const;

  /// Value lookup; empty when absent.
  std::optional<Value> Get(std::string_view name) const;

  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  /// Copy of just the attributes named by `ids` that this record holds
  /// (version 0; unknown and duplicate ids are harmless).
  Record Projected(const std::vector<AttrId>& ids) const;

  /// Packed entries, sorted by interned name id.
  const std::vector<PackedAttr>& entries() const { return attrs_; }
  size_t attribute_count() const { return attrs_.size(); }

  /// Reserves room for `n` attributes. A record built by one write run gets
  /// exact capacity instead of growing one doubling at a time; ApproxBytes()
  /// charges entries, not capacity, so the model is unaffected.
  void Reserve(size_t n) { attrs_.reserve(n); }

  /// Iterates attributes as (name, attribute) pairs, resolving names through
  /// the pool (replaces the old std::map accessor for serialization layers).
  void ForEachAttribute(
      const std::function<void(std::string_view, const Attribute&)>& fn) const;

  /// Unpacks into the legacy map form (tests / equivalence checks): a
  /// deliberate boundary shim — the packed layout's equivalence tests
  /// round-trip through the legacy form; no storage data path stores it.
  // lint:allow(storage-string-map): boundary shim, see doc comment above.
  std::map<std::string, Attribute> ToMap() const;
  /// Packs a legacy map form back into a record (version 0).
  // lint:allow(storage-string-map): same boundary shim as ToMap().
  static Record FromMap(const std::map<std::string, Attribute>& attrs);

  uint64_t version() const { return version_; }
  void set_version(uint64_t v) { version_ = v; }
  void bump_version() { ++version_; }

  /// Most recent attribute modification time (0 for empty records).
  MicroTime LastModified() const;

  /// Approximate RAM footprint in bytes of the packed layout (used for SE
  /// capacity accounting). Interned names are charged to the shared pool,
  /// not to individual records.
  int64_t ApproxBytes() const;

  /// Bytes the PoA read-through cache charges for holding a copy of this
  /// record: the packed payload plus the cache's per-entry bookkeeping (LRU
  /// node, index slot, epoch tag). The cache's byte budget is denominated in
  /// this, so capacity maps to real RAM and not just payload bytes.
  int64_t CacheFootprintBytes() const;

  /// What the legacy std::map<std::string, Attribute> layout would cost for
  /// this record's content: per-attribute red-black-tree node + allocation
  /// header + name string object (+ its heap spill) on top of the same
  /// attribute payload. The baseline for bench_record_layout.
  int64_t MapLayoutBytes() const;

  bool operator==(const Record& o) const {
    return attrs_ == o.attrs_;  // Version excluded: content equality.
  }

 private:
  /// First entry with name_id >= id (insertion/search position).
  size_t LowerBound(AttrId id) const;

  std::vector<PackedAttr> attrs_;  ///< Sorted by name_id.
  uint64_t version_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_H_
