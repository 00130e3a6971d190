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
// not a std::map keyed by std::string. An entry is 40 bytes: the 4-byte id,
// 4 bytes of padding and a 32-byte Attribute whose `writer` sits in the
// 24-byte Value variant's tail padding. A string value keeps up to 15 chars
// inline and a longer one in one exact-size block (CompactString); a list
// keeps all of its strings in one block (StringList). Both blocks carry a
// reference count, and a copy of a value shares its block. Names are shared
// through the process-wide AttrPool (they repeat across millions of
// subscribers), entries are contiguous (one allocation per record instead of
// one red-black-tree node per attribute), and lookups binary-search the
// entries after resolving the name through the pool with zero per-call
// std::string construction.
//
// Copy versus share: copying a Record copies its entry block (its own
// block, birth tag 0), as a full-record read or a side store needs; the
// values in the copied entries share their blocks with the source's. Only
// Share() hands out a second holder of the same entry block. There are two
// kinds of sharer:
//   * replica catch-up adopts the master's record instead of rebuilding it
//     from the log (see storage::CatchUpRange);
//   * a PoA cache holds a share of a read result (itself a copy the
//     replica made) and hands out further shares on unprojected hits
//     (routing::PoaCache). A cache-held payload never enters a
//     RecordStore: the store side only adopts from another store.
// A write to a shared block clones it first, so the other holders never see
// the change; a write to an unshared block mutates it in place at the cost
// of a std::vector of the same entries.
//
// Value blocks: a long value is immutable, so every holder of it shares
// one block — the create's commit-log op, the master's store entry, each
// slave's (the synchronous apply and the log replay copy the op's value),
// Projected() and ReadAttrOn results, full-record read copies, PoA cache
// entries and WriteBuilder ops. A write replaces a value, never writes
// through its block.
//
// Thread confinement: every holder of an entry block or a value block lives
// on the thread that drives its UdrNf (one replica set's stores and log,
// one PoA's cache and the results it serves), so neither reference count is
// atomic. Nothing hands a value or a record to another thread while a
// holder stays behind.
//
// Host bytes and modelled bytes differ only in layout: the model charges
// every holder its own copy of a value (each SE of a deployment keeps one in
// its own RAM), while the host, running every SE in one process, keeps one
// block for all of them.
//
// Pointer lifetime: an Attribute pointer or an entries() view stays valid
// until the record it came from is next written, moved or destroyed. A write
// through another holder of a shared block does not invalidate it (that
// holder clones first).
//
// ApproxBytes() is O(1): the block caches the heap bytes of its values, and
// the result equals the modelled footprint re-summed entry by entry. The
// model charges kPackedAttrModelBytes (64) per entry, not the host's 40, and
// each value's heap bytes as a std::string or std::vector<std::string> would
// hold them (ValueHeapBytes), so modelled bytes (capacity, cache budget,
// every bench table) do not depend on how tightly the host packs an entry.
//
// Growth: an insert into a full block moves the record to one of
// size + 1 + size/4 entries (records are built to exact size and most gain
// a few attributes at most).

#ifndef UDR_STORAGE_RECORD_H_
#define UDR_STORAGE_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/attributes.h"
#include "common/time.h"
#include "storage/attr_pool.h"

namespace udr::storage {

/// Internal record key. The UDR addresses subscriber data by identity via the
/// data location stage; inside a storage element records live under a
/// stable 64-bit key.
using RecordKey = uint64_t;

// GCC 12 reports -Wmaybe-uninitialized in the inlined special members of
// the two string types below when a Value holding an int64_t or a bool is
// moved or destroyed: it does not resolve the variant's index through the
// visit table, so it walks the string alternatives' paths over bytes the
// integer never wrote (std::string alternatives drew the same report). The
// suppression covers these two definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// The heap block behind a long CompactString or a non-empty StringList: a
/// 4-byte reference count, then the value's bytes. The holders pass around
/// a pointer to the bytes; the count sits just before them. The count is not
/// atomic (see CompactString for who may hold a block).
namespace value_block {

inline constexpr size_t kHeaderBytes = sizeof(uint32_t);

/// A block with room for `bytes` bytes and one holder; returns the bytes.
char* Allocate(size_t bytes);

inline uint32_t& Count(char* bytes) {
  return *reinterpret_cast<uint32_t*>(bytes - kHeaderBytes);
}
inline void Hold(char* bytes) { ++Count(bytes); }
/// Drops one holder, freeing the block with the last.
inline void Drop(char* bytes) {
  if (--Count(bytes) == 0) ::operator delete(bytes - kHeaderBytes);
}

}  // namespace value_block

/// An immutable string in 16 bytes: up to kInlineMax (15) chars inline,
/// else a pointer to a shared heap block of exactly size() chars behind a
/// reference count (no terminating NUL in either form). Byte 15 tags the
/// form: the length when inline, kHeapTag when the first 8 bytes point at
/// the chars and the next 4 hold their size.
///
/// A copy shares the block (count + 1) and never copies the chars, so one
/// long value has one copy in RAM whoever holds it: the create's commit-log
/// op, the master's and every slave's store entry (the log replay and the
/// synchronous apply copy the op's value), a projected or whole-record read
/// result and a PoA cache entry all hold the block the client's value was
/// built into. The count is not atomic: like Record's payload count, it
/// relies on every holder of a block living on the thread that drives its
/// UdrNf. A value must not be copied or destroyed on two threads at once;
/// one that crosses threads (an SPSC handoff) moves, or is copied only
/// while no other thread holds its block. ValueHeapBytes still charges each
/// holder a std::string's heap bytes: host and modelled bytes differ only in
/// layout.
class CompactString {
 public:
  static constexpr size_t kInlineMax = 15;

  CompactString() noexcept : rep_{} {}
  // Implicit, as std::string's are: Value("imsi-...") holds a string.
  CompactString(std::string_view s);  // NOLINT(google-explicit-constructor)
  CompactString(const char* s)        // NOLINT(google-explicit-constructor)
      : CompactString(std::string_view(s)) {}
  CompactString(const std::string& s)  // NOLINT(google-explicit-constructor)
      : CompactString(std::string_view(s)) {}
  CompactString(const CompactString& other) noexcept : rep_(other.rep_) {
    if (on_heap()) value_block::Hold(heap_ptr());
  }
  CompactString(CompactString&& other) noexcept : rep_(other.rep_) {
    other.rep_ = Rep{};
  }
  CompactString& operator=(const CompactString& other) {
    if (this != &other) *this = CompactString(other);
    return *this;
  }
  CompactString& operator=(CompactString&& other) noexcept {
    if (this != &other) {
      Free();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }
  ~CompactString() { Free(); }

  size_t size() const { return on_heap() ? heap_size() : tag(); }
  bool empty() const { return size() == 0; }
  const char* data() const { return on_heap() ? heap_ptr() : rep_.bytes; }
  std::string_view view() const { return {data(), size()}; }
  operator std::string_view() const { return view(); }  // NOLINT
  std::string str() const { return std::string(view()); }
  /// True when the chars live in a heap block (size() > kInlineMax).
  bool on_heap() const { return tag() == kHeapTag; }

  friend bool operator==(const CompactString& a, const CompactString& b) {
    return a.view() == b.view();
  }
  friend bool operator!=(const CompactString& a, const CompactString& b) {
    return !(a == b);
  }
  /// Against anything a std::string_view converts from (const char*,
  /// std::string, std::string_view).
  template <typename S, typename = std::enable_if_t<
                            std::is_convertible_v<const S&, std::string_view>>>
  friend bool operator==(const CompactString& a, const S& b) {
    return a.view() == std::string_view(b);
  }
  template <typename S, typename = std::enable_if_t<
                            std::is_convertible_v<const S&, std::string_view>>>
  friend bool operator==(const S& a, const CompactString& b) {
    return std::string_view(a) == b.view();
  }
  template <typename S, typename = std::enable_if_t<
                            std::is_convertible_v<const S&, std::string_view>>>
  friend bool operator!=(const CompactString& a, const S& b) {
    return !(a == b);
  }
  template <typename S, typename = std::enable_if_t<
                            std::is_convertible_v<const S&, std::string_view>>>
  friend bool operator!=(const S& a, const CompactString& b) {
    return !(a == b);
  }

 private:
  static constexpr unsigned char kHeapTag = 0xFF;
  struct alignas(char*) Rep {
    char bytes[16];
  };

  unsigned char tag() const { return static_cast<unsigned char>(rep_.bytes[15]); }
  char* heap_ptr() const {
    char* p = nullptr;
    std::memcpy(&p, rep_.bytes, sizeof(p));
    return p;
  }
  uint32_t heap_size() const {
    uint32_t n = 0;
    std::memcpy(&n, rep_.bytes + sizeof(char*), sizeof(n));
    return n;
  }
  void Free() {
    if (on_heap()) value_block::Drop(heap_ptr());
  }

  Rep rep_;
};

/// An immutable list of strings in 16 bytes and one heap block: the block
/// holds size() 32-bit end offsets, then every string's chars back to back
/// (an empty list holds no block). A copy shares the block, as a
/// CompactString's does, under the same thread-confinement contract.
class StringList {
 public:
  /// Iterates the strings as std::string_view.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    const_iterator(const StringList* list, size_t i) : list_(list), i_(i) {}
    std::string_view operator*() const { return (*list_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const StringList* list_;
    size_t i_;
  };

  StringList() noexcept = default;
  StringList(std::initializer_list<std::string_view> items)
      : StringList(items.begin(), items.end()) {}
  explicit StringList(const std::vector<std::string>& items)
      : StringList(items.begin(), items.end()) {}
  StringList(const StringList& other) noexcept
      : block_(other.block_), count_(other.count_), chars_(other.chars_) {
    if (block_ != nullptr) value_block::Hold(block_);
  }
  StringList(StringList&& other) noexcept
      : block_(other.block_), count_(other.count_), chars_(other.chars_) {
    other.block_ = nullptr;
    other.count_ = 0;
    other.chars_ = 0;
  }
  StringList& operator=(const StringList& other) {
    if (this != &other) *this = StringList(other);
    return *this;
  }
  StringList& operator=(StringList&& other) noexcept {
    if (this != &other) {
      Free();
      block_ = other.block_;
      count_ = other.count_;
      chars_ = other.chars_;
      other.block_ = nullptr;
      other.count_ = 0;
      other.chars_ = 0;
    }
    return *this;
  }
  ~StringList() { Free(); }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::string_view operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : End(i - 1);
    return {chars() + begin, End(i) - begin};
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, count_}; }

  friend bool operator==(const StringList& a, const StringList& b);
  friend bool operator!=(const StringList& a, const StringList& b) {
    return !(a == b);
  }

 private:
  /// From a range of things a std::string_view converts from.
  template <typename It>
  StringList(It first, It last);

  size_t block_bytes() const { return count_ * sizeof(uint32_t) + chars_; }
  uint32_t End(size_t i) const {
    uint32_t end = 0;
    std::memcpy(&end, block_ + i * sizeof(uint32_t), sizeof(end));
    return end;
  }
  const char* chars() const { return block_ + count_ * sizeof(uint32_t); }
  void Free() {
    if (block_ != nullptr) value_block::Drop(block_);
  }

  char* block_ = nullptr;  ///< The offsets, after the block's count.
  uint32_t count_ = 0;
  uint32_t chars_ = 0;  ///< Sum of the strings' sizes.
};

template <typename It>
StringList::StringList(It first, It last) {
  size_t count = 0;
  size_t chars = 0;
  for (It it = first; it != last; ++it) {
    ++count;
    chars += std::string_view(*it).size();
  }
  if (count == 0) return;
  count_ = static_cast<uint32_t>(count);
  chars_ = static_cast<uint32_t>(chars);
  block_ = value_block::Allocate(block_bytes());
  char* ends = block_;
  char* out = block_ + count * sizeof(uint32_t);
  uint32_t end = 0;
  for (It it = first; it != last; ++it) {
    const std::string_view s(*it);
    if (!s.empty()) std::memcpy(out + end, s.data(), s.size());
    end += static_cast<uint32_t>(s.size());
    std::memcpy(ends, &end, sizeof(end));
    ends += sizeof(end);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Prints the chars (for test diagnostics).
std::ostream& operator<<(std::ostream& os, const CompactString& s);

static_assert(sizeof(CompactString) == 16, "pointer + size, or 15 chars + tag");
static_assert(sizeof(StringList) == 16, "block pointer, count, char bytes");

/// Attribute value: telecom subscriber profiles mix integers (flags,
/// counters), strings (identities, addresses) and multi-valued strings
/// (IMPU lists, service triggers). 24 bytes: a 16-byte payload, then the
/// one-byte index and 7 bytes of tail padding (see Attribute).
using Value = std::variant<int64_t, bool, CompactString, StringList>;
static_assert(sizeof(Value) == 24, "16-byte alternatives + index");

/// Renders a value for logs and examples.
std::string ValueToString(const Value& v);

/// Approximate serialized payload size of a value in bytes (wire/estimate
/// model, used by log shipping and capacity planning).
int64_t ValueBytes(const Value& v);

/// Heap bytes the RAM model charges a value beyond its inline storage: what
/// a std::string (15-char short-string buffer) and a std::vector of them
/// would hold, not what CompactString and StringList hold. 0 for integers,
/// booleans and strings of up to 15 chars. The packed layout's RAM model =
/// kPackedAttrModelBytes per entry + this.
int64_t ValueHeapBytes(const Value& v);

/// True when two values are equal (same alternative and payload).
bool ValueEquals(const Value& a, const Value& b);

/// One attribute version: the value and who wrote it when. `writer` is a
/// replica identifier used for last-writer-wins tie-breaking during
/// consistency restoration.
///
/// Layout: `writer` sits in the Value variant's tail padding (the 7 bytes
/// after its one-byte index), so the struct is 32 bytes instead of 40. The
/// constructor takes (value, modified_at, writer), the order positional
/// inits use, which differs from the member order.
struct Attribute {
  Attribute() = default;
  Attribute(Value v, MicroTime at, uint32_t w)
      : value(std::move(v)), writer(w), modified_at(at) {}

  UDR_NO_UNIQUE_ADDRESS Value value;
  uint32_t writer = 0;
  MicroTime modified_at = 0;

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

static_assert(sizeof(Attribute) == 32, "writer must sit in Value's padding");
static_assert(sizeof(PackedAttr) == 40, "4-byte id, 4 pad, 32-byte Attribute");

/// Bytes the RAM model (Record::ApproxBytes, hence SE capacity and the PoA
/// cache budget) charges per packed entry: the entry of a layout that keeps
/// `writer` after `modified_at` and a 40-byte Value of std::string and
/// std::vector<std::string> alternatives (4-byte id, 4 pad, 40, 8, 4, 4
/// pad). The host entry is sizeof(PackedAttr), 24 bytes less; the model does
/// not follow the host layout, so packing it tighter moves no modelled byte.
inline constexpr int64_t kPackedAttrModelBytes = 64;

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
  /// exact capacity instead of growing a quarter at a time; ApproxBytes()
  /// charges entries, not capacity, so the model is unaffected.
  void Reserve(size_t n);

  /// Iterates attributes as (name, attribute) pairs, resolving names through
  /// the pool (for serialization layers).
  void ForEachAttribute(
      const std::function<void(std::string_view, const Attribute&)>& fn) const;

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
  /// capacity accounting), at kPackedAttrModelBytes per entry. Interned
  /// names are charged to the shared pool, not to individual records. O(1);
  /// equal to the entry-by-entry sum.
  int64_t ApproxBytes() const;

  /// Bytes the PoA read-through cache charges for holding a copy of this
  /// record: the packed payload plus the cache's per-entry bookkeeping (LRU
  /// node, index slot, epoch tag). The cache's byte budget is denominated in
  /// this, so capacity maps to real RAM and not just payload bytes.
  int64_t CacheFootprintBytes() const;

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
