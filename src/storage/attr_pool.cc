#include "storage/attr_pool.h"

namespace udr::storage {

AttrPool::AttrPool() { snapshot_.store(BuildSnapshot({})); }

AttrPool::Snapshot* AttrPool::BuildSnapshot(const std::deque<std::string>& names) {
  auto* snap = new Snapshot();
  snap->table.Reserve(names.size());
  snap->names.reserve(names.size());
  for (size_t id = 0; id < names.size(); ++id) {
    std::string_view name(names[id]);
    snap->names.push_back(name);
    snap->table.at(snap->table.Insert(HashBytes(name))) =
        Slot{name, static_cast<AttrId>(id)};
  }
  return snap;
}

AttrId AttrPool::Intern(std::string_view name) {
  AttrId id = Lookup(name);
  if (id != kInvalidAttrId) return id;
  common::MutexLock lock(write_mu_);
  id = Lookup(name);  // Raced with another interner?
  if (id != kInvalidAttrId) return id;
  id = static_cast<AttrId>(names_.size());
  names_.emplace_back(name);
  const Snapshot* fresh = BuildSnapshot(names_);
  retired_.emplace_back(snapshot_.load(std::memory_order_relaxed));
  snapshot_.store(fresh, std::memory_order_release);
  return id;
}

}  // namespace udr::storage
