// Subscriber data records. A record is a set of named attributes, each with a
// value plus the modification metadata (time + writing replica) needed by the
// multi-master consistency-restoration process of the paper's §5.
//
// Storage layout: a Record is 16 bytes: a payload pointer, the entry count
// and the record version. The count lives in the handle so that a lookup's
// binary search does not wait on a load of the block header. The payload is
// one heap block: a reference count, the capacity, the cached heap bytes of
// the values, the birth tag (which commit-log entry created the record, see
// birth()), then the (AttrId, Attribute) entries sorted by interned-name id —
// not a std::map keyed by std::string. Names are shared through the
// process-wide AttrPool (they repeat across millions of subscribers), entries
// are contiguous (one allocation per record instead of one red-black-tree
// node per attribute), and lookups binary-search the entries after resolving
// the name through the pool with zero per-call std::string construction.
//
// Copy versus share: copying a Record is a deep copy (its own block, birth
// tag 0), as a full-record read or a side store needs. Only Share() hands
// out a second holder of the same block. There are two kinds of sharer:
//   * replica catch-up adopts the master's record instead of rebuilding it
//     from the log (see storage::CatchUpRange);
//   * a PoA cache holds a share of a read result (itself a deep copy the
//     replica made) and hands out further shares on unprojected hits
//     (routing::PoaCache). A cache-held payload never enters a
//     RecordStore: the store side only adopts from another store.
// A write to a shared block clones it first, so the other holders never see
// the change; a write to an unshared block mutates it in place at the cost
// of a std::vector of the same entries. Every holder of a block lives on the
// thread that drives its UdrNf (one replica set's stores, one PoA's cache
// and the results it serves), so the reference count is not atomic.
//
// Pointer lifetime: an Attribute pointer or an entries() view stays valid
// until the record it came from is next written, moved or destroyed. A write
// through another holder of a shared block does not invalidate it (that
// holder clones first).
//
// ApproxBytes() is O(1): the block caches the heap bytes of its values, and
// the result equals the packed footprint re-summed entry by entry.
// MapLayoutBytes() models what the legacy std::map<std::string, Attribute>
// layout would cost, for the bytes/subscriber comparison benchmark
// (bench_record_layout).

#ifndef UDR_STORAGE_RECORD_H_
#define UDR_STORAGE_RECORD_H_

#include <cstddef>
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

/// Read-only view of a record's packed entries (sorted by interned name id).
/// Valid until the record it came from is next written or destroyed.
class PackedAttrSpan {
 public:
  PackedAttrSpan(const PackedAttr* data, size_t size)
      : data_(data), size_(size) {}
  const PackedAttr* begin() const { return data_; }
  const PackedAttr* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PackedAttr& front() const { return data_[0]; }
  const PackedAttr& operator[](size_t i) const { return data_[i]; }

 private:
  const PackedAttr* data_;
  size_t size_;
};

/// A subscriber data record: named attributes plus a record version that
/// increments on every committed write.
class Record {
 public:
  Record() = default;
  /// Deep copy: the copy owns its own payload block.
  Record(const Record& other);
  Record& operator=(const Record& other);
  Record(Record&& other) noexcept
      : payload_(other.payload_), size_(other.size_),
        version_(other.version_) {
    other.payload_ = nullptr;
    other.size_ = 0;
  }
  Record& operator=(Record&& other) noexcept;
  ~Record() { Release(); }

  /// A second holder of this record's payload (same entries and version, no
  /// copy). The first write through either holder clones the payload.
  Record Share() const;
  /// True when both records hold the same payload block.
  bool SharesPayloadWith(const Record& other) const {
    return payload_ != nullptr && payload_ == other.payload_;
  }
  /// True when another record holds this record's payload block too.
  bool payload_shared() const {
    return payload_ != nullptr && payload_->refs > 1;
  }

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
  PackedAttrSpan entries() const { return {data(), attribute_count()}; }
  size_t attribute_count() const { return size_; }

  /// Reserves room for `n` attributes. A record built by one write run gets
  /// exact capacity instead of growing one doubling at a time; ApproxBytes()
  /// charges entries, not capacity, so the model is unaffected.
  void Reserve(size_t n);

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
  void set_version(uint64_t v) { version_ = static_cast<uint32_t>(v); }
  void bump_version() { ++version_; }

  /// Birth tag: the CommitLog::BirthTag of the log entry whose apply
  /// created this record in its store, or 0 when unknown (created outside
  /// a log apply, deep-copied, or empty). Share() and the clone a write to a
  /// shared payload makes keep it. Catch-up adoption reads it to prove that
  /// the master's record was created by the op it is about to replay.
  uint64_t birth() const { return payload_ == nullptr ? 0 : payload_->birth; }
  /// Sets the birth tag; the record must hold a payload (see Reserve).
  void set_birth(uint64_t tag) { payload_->birth = tag; }

  /// Most recent attribute modification time (0 for empty records).
  MicroTime LastModified() const;

  /// Approximate RAM footprint in bytes of the packed layout (used for SE
  /// capacity accounting). Interned names are charged to the shared pool,
  /// not to individual records. O(1); equal to the entry-by-entry sum.
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

  bool operator==(const Record& o) const;  // Version excluded: content.

 private:
  /// The heap block: this header, then `capacity` entry slots of which the
  /// first Record::size_ are constructed (every holder has the same count:
  /// a write to a shared block clones it first).
  struct alignas(PackedAttr) Payload {
    uint32_t refs;
    uint32_t capacity;
    int64_t heap_bytes;  ///< Sum of ValueHeapBytes over the entries.
    uint64_t birth;      ///< See Record::birth().

    PackedAttr* entries() { return reinterpret_cast<PackedAttr*>(this + 1); }
  };

  const PackedAttr* data() const {
    return payload_ == nullptr ? nullptr : payload_->entries();
  }

  /// First entry with name_id >= id (insertion/search position).
  size_t LowerBound(AttrId id) const;

  /// A new block with room for `capacity` entries, none constructed.
  static Payload* Allocate(size_t capacity);

  /// Moves this record onto a new block of `capacity` (>= size + 1 when
  /// `gap` < size) entries that it alone holds: entries are copied out of a
  /// shared block and moved out of an unshared one. Entry i lands at i, or
  /// at i + 1 when i >= `gap`, leaving slot `gap` unconstructed for an
  /// insert; `gap` >= size leaves no hole.
  void Relocate(size_t capacity, size_t gap);

  /// Drops this record's hold on its payload (freeing it if last).
  void Release();

  Payload* payload_ = nullptr;
  uint32_t size_ = 0;     ///< Constructed entries in the payload.
  uint32_t version_ = 0;  ///< Writes since creation; 2^32 is out of reach.
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_H_
