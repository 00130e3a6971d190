#include "storage/record.h"

#include <algorithm>
#include <new>

namespace udr::storage {
namespace {

// Byte-model constants. The packed side charges what the structures actually
// occupy (sizeof-based, contiguous entries amortize one allocation); the map
// side charges what libstdc++'s std::map<std::string, Attribute> costs per
// attribute: a red-black-tree node header (parent/left/right + color, padded)
// plus its allocation header, plus the std::string name object — the per-
// attribute overheads the packed layout eliminates.
constexpr int64_t kAllocHeader = 16;       // malloc bookkeeping per allocation.
constexpr int64_t kRbNodeHeader = 40;      // _Rb_tree_node_base + padding.
constexpr int64_t kStringObject = 32;      // sizeof(std::string), SSO buffer.
constexpr int64_t kStringSso = 15;         // chars held inline by SSO.
constexpr int64_t kMapRecordOverhead = 64; // map object + version + index slot.
// Packed record: vector object + version + hash-index slot share. Entry
// storage is charged per entry below.
constexpr int64_t kPackedRecordOverhead = 48;
// PoA read-through cache bookkeeping per cached record: doubly-linked LRU
// node + unordered_map index slot + (partition, epoch) tag, alloc headers in.
constexpr int64_t kCacheEntryOverhead = 96;

int64_t StringHeapBytes(const std::string& s) {
  return static_cast<int64_t>(s.size()) <= kStringSso
             ? 0
             : static_cast<int64_t>(s.size()) + 1 + kAllocHeader;
}

}  // namespace

std::string ValueToString(const Value& v) {
  struct Visitor {
    std::string operator()(int64_t x) const { return std::to_string(x); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const std::vector<std::string>& xs) const {
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

int64_t ValueBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 8; }
    int64_t operator()(bool) const { return 1; }
    int64_t operator()(const std::string& s) const {
      return static_cast<int64_t>(s.size()) + 16;
    }
    int64_t operator()(const std::vector<std::string>& xs) const {
      int64_t total = 24;
      for (const auto& s : xs) total += static_cast<int64_t>(s.size()) + 16;
      return total;
    }
  };
  return std::visit(Visitor{}, v);
}

int64_t ValueHeapBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 0; }
    int64_t operator()(bool) const { return 0; }
    int64_t operator()(const std::string& s) const {
      return StringHeapBytes(s);
    }
    int64_t operator()(const std::vector<std::string>& xs) const {
      if (xs.empty()) return 0;
      int64_t total =
          kAllocHeader + static_cast<int64_t>(xs.size()) * kStringObject;
      for (const auto& s : xs) total += StringHeapBytes(s);
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
  const int64_t delta = (size == 0 ? kAllocHeader : 0) +
                        static_cast<int64_t>(sizeof(PackedAttr)) + new_heap;
  PackedAttr entry;
  entry.name_id = id;
  entry.attr.value = std::move(value);
  entry.attr.modified_at = at;
  entry.attr.writer = writer;
  if (payload_ == nullptr || payload_->refs > 1 ||
      payload_->capacity == size) {
    // A new block: the entries land around the insert position.
    const size_t capacity =
        payload_ != nullptr && payload_->refs > 1 && payload_->capacity > size
            ? size + 1
            : std::max<size_t>(1, 2 * size);
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
  const int64_t delta = -(static_cast<int64_t>(sizeof(PackedAttr)) + heap +
                          (size == 1 ? kAllocHeader : 0));
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

// lint:allow(storage-string-map): legacy-form shim, see record.h.
std::map<std::string, Attribute> Record::ToMap() const {
  // lint:allow(storage-string-map): legacy-form shim, see record.h.
  std::map<std::string, Attribute> out;
  for (const PackedAttr& e : entries()) {
    out.emplace(std::string(AttrPool::Global().NameOf(e.name_id)), e.attr);
  }
  return out;
}

// lint:allow(storage-string-map): legacy-form shim, see record.h.
Record Record::FromMap(const std::map<std::string, Attribute>& attrs) {
  Record r;
  for (const auto& [name, attr] : attrs) {
    r.Set(name, attr.value, attr.modified_at, attr.writer);
  }
  return r;
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
         static_cast<int64_t>(size * sizeof(PackedAttr)) +
         payload_->heap_bytes;
}

bool Record::operator==(const Record& o) const {
  const PackedAttrSpan a = entries();
  const PackedAttrSpan b = o.entries();
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

int64_t Record::CacheFootprintBytes() const {
  // The cached copy pays the record's own packed footprint plus the cache's
  // per-entry bookkeeping (LRU list node + hash index slot + epoch tag).
  return ApproxBytes() + kCacheEntryOverhead;
}

int64_t Record::MapLayoutBytes() const {
  int64_t total = kMapRecordOverhead;
  for (const PackedAttr& e : entries()) {
    std::string_view name = AttrPool::Global().NameOf(e.name_id);
    total += kRbNodeHeader + kAllocHeader + kStringObject;
    if (static_cast<int64_t>(name.size()) > kStringSso) {
      total += static_cast<int64_t>(name.size()) + 1 + kAllocHeader;
    }
    total += static_cast<int64_t>(sizeof(Attribute));
    total += ValueHeapBytes(e.attr.value);
  }
  return total;
}

}  // namespace udr::storage
