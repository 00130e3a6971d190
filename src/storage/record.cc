#include "storage/record.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <ostream>

namespace udr::storage {
namespace {

// Byte-model constants (contiguous entries amortize one allocation; an entry
// itself is charged kPackedAttrModelBytes, see record.h).
constexpr int64_t kAllocHeader = 16;   // malloc bookkeeping per allocation.
constexpr int64_t kStringObject = 32;  // sizeof(std::string), SSO buffer.
constexpr int64_t kStringSso = 15;     // chars held inline by SSO.
// Packed record: vector object + version + hash-index slot share. Entry
// storage is charged per entry below.
constexpr int64_t kPackedRecordOverhead = 48;
// PoA read-through cache bookkeeping per cached record: doubly-linked LRU
// node + unordered_map index slot + (partition, epoch) tag, alloc headers in.
constexpr int64_t kCacheEntryOverhead = 96;

int64_t StringHeapBytes(std::string_view s) {
  return static_cast<int64_t>(s.size()) <= kStringSso
             ? 0
             : static_cast<int64_t>(s.size()) + 1 + kAllocHeader;
}

}  // namespace

char* value_block::Allocate(size_t bytes) {
  char* block = static_cast<char*>(::operator new(kHeaderBytes + bytes));
  new (block) uint32_t(1);
  return block + kHeaderBytes;
}

CompactString::CompactString(std::string_view s) : rep_{} {
  if (s.size() <= kInlineMax) {
    if (!s.empty()) std::memcpy(rep_.bytes, s.data(), s.size());
    rep_.bytes[15] = static_cast<char>(s.size());
    return;
  }
  char* p = value_block::Allocate(s.size());
  std::memcpy(p, s.data(), s.size());
  const uint32_t n = static_cast<uint32_t>(s.size());
  std::memcpy(rep_.bytes, &p, sizeof(p));
  std::memcpy(rep_.bytes + sizeof(p), &n, sizeof(n));
  rep_.bytes[15] = static_cast<char>(kHeapTag);
}

std::ostream& operator<<(std::ostream& os, const CompactString& s) {
  return os << s.view();
}

bool operator==(const StringList& a, const StringList& b) {
  // Equal offsets and equal chars are equal strings, and the converse.
  return a.count_ == b.count_ && a.chars_ == b.chars_ &&
         (a.block_ == b.block_ ||
          std::memcmp(a.block_, b.block_, a.block_bytes()) == 0);
}

std::string ValueToString(const Value& v) {
  struct Visitor {
    std::string operator()(int64_t x) const { return std::to_string(x); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const CompactString& s) const { return s.str(); }
    std::string operator()(const StringList& xs) const {
      std::string out = "[";
      for (size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ", ";
        out += xs[i];
      }
      out += "]";
      return out;
    }
  };
  return std::visit(Visitor{}, v);
}

// The wire and RAM models below charge the std::string / std::vector layout
// whatever the host holds: a list is a 24-byte vector of 16-byte-overhead
// strings on the wire and, in RAM, a vector block of 32-byte string objects
// plus a block per string longer than the short-string buffer.
int64_t ValueBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 8; }
    int64_t operator()(bool) const { return 1; }
    int64_t operator()(const CompactString& s) const {
      return static_cast<int64_t>(s.size()) + 16;
    }
    int64_t operator()(const StringList& xs) const {
      int64_t total = 24;
      for (std::string_view s : xs) total += static_cast<int64_t>(s.size()) + 16;
      return total;
    }
  };
  return std::visit(Visitor{}, v);
}

int64_t ValueHeapBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 0; }
    int64_t operator()(bool) const { return 0; }
    int64_t operator()(const CompactString& s) const {
      return StringHeapBytes(s);
    }
    int64_t operator()(const StringList& xs) const {
      if (xs.empty()) return 0;
      int64_t total =
          kAllocHeader + static_cast<int64_t>(xs.size()) * kStringObject;
      for (std::string_view s : xs) total += StringHeapBytes(s);
      return total;
    }
  };
  return std::visit(Visitor{}, v);
}

bool ValueEquals(const Value& a, const Value& b) { return a == b; }

static_assert(sizeof(Record) == 16, "payload pointer, entry count, version");

Record::Payload* Record::Allocate(size_t capacity) {
  static_assert(sizeof(Payload) % alignof(PackedAttr) == 0,
                "entries follow the header without padding");
  void* mem = ::operator new(sizeof(Payload) + capacity * sizeof(PackedAttr));
  Payload* p = static_cast<Payload*>(mem);
  p->refs = 1;
  p->capacity = static_cast<uint32_t>(capacity);
  p->heap_bytes = 0;
  p->birth = 0;
  return p;
}

void Record::Release() {
  if (payload_ == nullptr) return;
  if (--payload_->refs == 0) {
    PackedAttr* e = payload_->entries();
    for (uint32_t i = 0; i < size_; ++i) e[i].~PackedAttr();
    ::operator delete(payload_);
  }
  payload_ = nullptr;
  size_ = 0;
}

void Record::Relocate(size_t capacity, size_t gap) {
  Payload* old = payload_;
  Payload* p = Allocate(capacity);
  if (old != nullptr) {
    PackedAttr* src = old->entries();
    PackedAttr* dst = p->entries();
    const bool shared = old->refs > 1;
    const uint32_t size = size_;
    for (uint32_t i = 0; i < size; ++i) {
      PackedAttr* to = dst + i + (i >= gap ? 1 : 0);
      if (shared) {
        new (to) PackedAttr(src[i]);
      } else {
        new (to) PackedAttr(std::move(src[i]));
      }
    }
    p->heap_bytes = old->heap_bytes;
    p->birth = old->birth;
    Release();
    size_ = size;
  }
  payload_ = p;
}

Record::Record(const Record& other) : version_(other.version_) {
  const uint32_t n = other.size_;
  if (n == 0) return;
  payload_ = Allocate(n);
  const PackedAttr* src = other.payload_->entries();
  PackedAttr* dst = payload_->entries();
  for (uint32_t i = 0; i < n; ++i) new (dst + i) PackedAttr(src[i]);
  size_ = n;
  payload_->heap_bytes = other.payload_->heap_bytes;
}

Record& Record::operator=(const Record& other) {
  if (this != &other) *this = Record(other);
  return *this;
}

Record& Record::operator=(Record&& other) noexcept {
  if (this != &other) {
    Release();
    payload_ = other.payload_;
    size_ = other.size_;
    version_ = other.version_;
    other.payload_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Record Record::Share() const {
  Record out;
  out.payload_ = payload_;
  out.size_ = size_;
  out.version_ = version_;
  if (payload_ != nullptr) ++payload_->refs;
  return out;
}

void Record::Reserve(size_t n) {
  if (n == 0) return;
  if (payload_ == nullptr || payload_->refs > 1 || payload_->capacity < n) {
    const size_t size = attribute_count();
    Relocate(std::max(n, size), size);
  }
}

size_t Record::LowerBound(AttrId id) const {
  const PackedAttr* begin = data();
  const PackedAttr* end = begin + attribute_count();
  const PackedAttr* it = std::lower_bound(
      begin, end, id,
      [](const PackedAttr& e, AttrId target) { return e.name_id < target; });
  return static_cast<size_t>(it - begin);
}

void Record::Set(std::string_view name, Value value, MicroTime at,
                 uint32_t writer) {
  SetById(AttrPool::Global().Intern(name), std::move(value), at, writer);
}

int64_t Record::SetById(AttrId id, Value value, MicroTime at,
                       uint32_t writer) {
  const int64_t new_heap = ValueHeapBytes(value);
  const size_t size = attribute_count();
  const size_t pos = LowerBound(id);
  if (pos < size && payload_->entries()[pos].name_id == id) {
    if (payload_->refs > 1) Relocate(size, size);
    Attribute& attr = payload_->entries()[pos].attr;
    const int64_t delta = new_heap - ValueHeapBytes(attr.value);
    attr.value = std::move(value);
    attr.modified_at = at;
    attr.writer = writer;
    payload_->heap_bytes += delta;
    return delta;
  }
  const int64_t delta =
      (size == 0 ? kAllocHeader : 0) + kPackedAttrModelBytes + new_heap;
  PackedAttr entry;
  entry.name_id = id;
  entry.attr.value = std::move(value);
  entry.attr.modified_at = at;
  entry.attr.writer = writer;
  if (payload_ == nullptr || payload_->refs > 1 ||
      payload_->capacity == size) {
    // A new block: the entries land around the insert position. A full
    // block grows by a quarter, not by doubling: a provisioned record is
    // built to exact size and most gain a few attributes at most.
    const size_t capacity =
        payload_ != nullptr && payload_->refs > 1 && payload_->capacity > size
            ? size + 1
            : size + 1 + size / 4;
    Relocate(capacity, pos);
    new (payload_->entries() + pos) PackedAttr(std::move(entry));
  } else {
    // Room in place: shift the tail up one, as std::vector::insert does.
    PackedAttr* e = payload_->entries();
    if (pos == size) {
      new (e + size) PackedAttr(std::move(entry));
    } else {
      new (e + size) PackedAttr(std::move(e[size - 1]));
      std::move_backward(e + pos, e + size - 1, e + size);
      e[pos] = std::move(entry);
    }
  }
  ++size_;
  payload_->heap_bytes += new_heap;
  return delta;
}

bool Record::Remove(std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  return id != kInvalidAttrId && RemoveById(id) != 0;
}

int64_t Record::RemoveById(AttrId id) {
  const size_t size = attribute_count();
  const size_t pos = LowerBound(id);
  if (pos >= size || payload_->entries()[pos].name_id != id) return 0;
  if (payload_->refs > 1) Relocate(size, size);
  PackedAttr* e = payload_->entries();
  const int64_t heap = ValueHeapBytes(e[pos].attr.value);
  const int64_t delta =
      -(kPackedAttrModelBytes + heap + (size == 1 ? kAllocHeader : 0));
  std::move(e + pos + 1, e + size, e + pos);
  e[size - 1].~PackedAttr();
  --size_;
  payload_->heap_bytes -= heap;
  return delta;
}

const Attribute* Record::Find(std::string_view name) const {
  AttrId id = AttrPool::Global().Lookup(name);
  return id == kInvalidAttrId ? nullptr : FindById(id);
}

const Attribute* Record::FindById(AttrId id) const {
  const size_t pos = LowerBound(id);
  if (pos >= attribute_count() || payload_->entries()[pos].name_id != id) {
    return nullptr;
  }
  return &payload_->entries()[pos].attr;
}

Record Record::Projected(const std::vector<AttrId>& ids) const {
  Record out;
  out.Reserve(ids.size());
  for (AttrId id : ids) {
    if (const Attribute* a = FindById(id)) {
      out.SetById(id, a->value, a->modified_at, a->writer);
    }
  }
  return out;
}

std::optional<Value> Record::Get(std::string_view name) const {
  const Attribute* attr = Find(name);
  if (attr == nullptr) return std::nullopt;
  return attr->value;
}

void Record::ForEachAttribute(
    const std::function<void(std::string_view, const Attribute&)>& fn) const {
  for (const PackedAttr& e : entries()) {
    fn(AttrPool::Global().NameOf(e.name_id), e.attr);
  }
}

MicroTime Record::LastModified() const {
  MicroTime latest = 0;
  for (const PackedAttr& e : entries()) {
    latest = std::max(latest, e.attr.modified_at);
  }
  return latest;
}

// SetById and RemoveById return their change to this value and keep the
// cached heap bytes in step; storage_test re-sums it entry by entry.
int64_t Record::ApproxBytes() const {
  const size_t size = attribute_count();
  if (size == 0) return kPackedRecordOverhead;
  return kPackedRecordOverhead + kAllocHeader +
         static_cast<int64_t>(size) * kPackedAttrModelBytes +
         payload_->heap_bytes;
}

bool Record::operator==(const Record& o) const {
  // Holders of one payload (a share, an adopted catch-up) hold one content.
  if (payload_ == o.payload_) return true;
  const PackedAttrSpan a = entries();
  const PackedAttrSpan b = o.entries();
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

int64_t Record::CacheFootprintBytes() const {
  // The cached copy pays the record's own packed footprint plus the cache's
  // per-entry bookkeeping (LRU list node + hash index slot + epoch tag).
  return ApproxBytes() + kCacheEntryOverhead;
}

}  // namespace udr::storage
