// Process-wide attribute-name intern pool. Telecom subscriber profiles use a
// small closed vocabulary of attribute names (msisdn, cfu-number, auth-key,
// ...) repeated across millions of records; storing each name once and
// referencing it by a 32-bit AttrId is what makes the packed record layout
// (record.h) memory-lean, and resolving lookups through the pool by
// std::string_view is what removes per-call std::string construction from
// the attribute hot path.
//
// Thread safety: the pool is shared by every shard of the multi-threaded
// execution mode (src/exec/), and attribute lookup is THE data-path hot
// path, so the read side is lock-free: Lookup()/NameOf() probe an immutable
// FlatTable snapshot published through an atomic pointer (no mutex, no
// refcount, no allocation per call). First-time interning builds a new
// snapshot under a mutex and publishes it with release semantics; retired
// snapshots are parked until the pool dies, so a reader can never touch a
// freed table. Interned names are never freed and their ids are dense and
// stable for the process lifetime.

#ifndef UDR_STORAGE_ATTR_POOL_H_
#define UDR_STORAGE_ATTR_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace udr::storage {

/// Dense id of an interned attribute name.
using AttrId = uint32_t;

/// Sentinel returned by Lookup() for a never-interned name.
inline constexpr AttrId kInvalidAttrId = 0xFFFFFFFFu;

class AttrPool {
 public:
  /// The process-wide pool every record layout references into. Leaked on
  /// purpose: ids and name views are valid for the process lifetime. Inline
  /// so the hot path pays a guard check, not a cross-TU call.
  static AttrPool& Global() {
    static AttrPool* pool = new AttrPool();
    return *pool;
  }

  AttrPool();

  /// Id of `name`, interning it on first use.
  AttrId Intern(std::string_view name) EXCLUDES(write_mu_);

  /// Id of `name` if already interned, kInvalidAttrId otherwise. Lock-free
  /// and allocation-free — the read-side hot path for attribute lookups
  /// (inline, header-defined, so callers pay no cross-TU call).
  AttrId Lookup(std::string_view name) const {
    const Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    const size_t i = snap->table.Find(
        HashBytes(name), [name](const Slot& s) { return s.key == name; });
    return i == NameTable::kNotFound ? kInvalidAttrId : snap->table.at(i).id;
  }

  /// Name of an interned id. Lock-free; the view stays valid forever (names
  /// are never freed or moved).
  std::string_view NameOf(AttrId id) const {
    const Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    return id < snap->names.size() ? snap->names[id]
                                   : std::string_view("<unknown-attr>");
  }

  /// Number of distinct interned names.
  size_t size() const {
    return snapshot_.load(std::memory_order_acquire)->names.size();
  }

 private:
  /// One immutable snapshot: a table over the interned names plus the
  /// id -> name view. Readers acquire-load the pointer and probe; writers
  /// build a fresh one.
  struct Slot {
    std::string_view key;
    AttrId id = kInvalidAttrId;
  };
  struct Traits {
    using Slot = AttrPool::Slot;
    static uint64_t HashOf(const Slot& s) { return HashBytes(s.key); }
  };
  using NameTable = FlatTable<Traits>;
  struct Snapshot {
    NameTable table;
    std::vector<std::string_view> names;  ///< names[id], dense.
  };

  static Snapshot* BuildSnapshot(const std::deque<std::string>& names);

  /// The atomic-snapshot publication point. Deliberately NOT GUARDED_BY:
  /// readers acquire-load it lock-free (the hot path), and ONLY writers —
  /// who hold write_mu_ — store it. The analysis cannot express a
  /// "lock-free read / locked write" atomic, so the store-side discipline
  /// is documented here and enforced by Intern() being the sole store site.
  std::atomic<const Snapshot*> snapshot_;

  mutable common::Mutex write_mu_{
      "storage.attr_pool.write"};  ///< Serializes interning only.
  /// Stable storage: deque never moves existing strings on growth, so every
  /// snapshot's views and the views NameOf() hands out stay valid.
  std::deque<std::string> names_ GUARDED_BY(write_mu_);
  /// Superseded snapshots, parked until the pool dies (readers may still be
  /// probing them; the attr vocabulary is tiny, so this is bytes, not megs).
  std::vector<std::unique_ptr<const Snapshot>> retired_ GUARDED_BY(write_mu_);
};

/// Convenience wrappers over AttrPool::Global().
inline AttrId InternAttr(std::string_view name) {
  return AttrPool::Global().Intern(name);
}
inline AttrId LookupAttr(std::string_view name) {
  return AttrPool::Global().Lookup(name);
}
inline std::string_view AttrNameOf(AttrId id) {
  return AttrPool::Global().NameOf(id);
}

}  // namespace udr::storage

#endif  // UDR_STORAGE_ATTR_POOL_H_
