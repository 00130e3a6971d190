#include "location/location_stage.h"

#include <algorithm>
#include <cmath>

namespace udr::location {

namespace {

/// log2(n) rounded up, minimum 1 (cost model for tree descent).
double Log2Ceil(int64_t n) {
  if (n <= 2) return 1.0;
  return std::ceil(std::log2(static_cast<double>(n)));
}

}  // namespace

// ---------------------------------------------------------------------------
// ProvisionedLocationStage
// ---------------------------------------------------------------------------

ProvisionedLocationStage::ProvisionedLocationStage(const BindingSet* bindings,
                                                   LocationCostModel model)
    : bindings_(bindings), model_(model) {}

ResolveResult ProvisionedLocationStage::Resolve(const Identity& id,
                                                MicroTime now) {
  ResolveResult out;
  if (Syncing(now)) {
    // §3.4.2: operations issued on the PoA realized by the new blade cluster
    // cannot be handled during the initial identity-map sync.
    out.status = Status::Unavailable(
        "location stage syncing identity maps (scale-out in progress)");
    return out;
  }
  const IdentityIndex& index = bindings_->of(id.type);
  out.cost = model_.map_base +
             static_cast<MicroDuration>(
                 static_cast<double>(model_.map_per_log2) *
                 Log2Ceil(static_cast<int64_t>(index.size())));
  std::optional<LocationEntry> found = index.Find(id.value);
  if (!found) {
    out.status = Status::NotFound("identity " + id.ToString());
    return out;
  }
  out.status = Status::Ok();
  out.entry = *found;
  return out;
}

int64_t ProvisionedLocationStage::ApproxBytes() const {
  return bindings_->size() * model_.bytes_per_entry + bindings_->key_bytes();
}

MicroDuration ProvisionedLocationStage::BeginSyncFrom(
    const ProvisionedLocationStage& peer, MicroTime now) {
  MicroDuration window = peer.EntryCount() * model_.sync_per_entry;
  sync_done_at_ = now + window;
  return window;
}

// ---------------------------------------------------------------------------
// CachedLocationStage
// ---------------------------------------------------------------------------

CachedLocationStage::CachedLocationStage(
    std::function<StatusOr<LocationEntry>(const Identity&)> authoritative,
    std::function<int()> se_count_fn, LocationCostModel model)
    : authoritative_(std::move(authoritative)),
      se_count_fn_(std::move(se_count_fn)),
      model_(model) {}

ResolveResult CachedLocationStage::Resolve(const Identity& id, MicroTime now) {
  (void)now;
  ResolveResult out;
  if (std::optional<LocationEntry> hit = cache_.Find(id)) {
    ++hits_;
    out.status = Status::Ok();
    out.entry = *hit;
    out.cost = model_.map_base;
    return out;
  }
  // Miss: broadcast a location query to every SE in the system (§3.5: "every
  // cache miss implies locating the subscriber by querying multiple or even
  // all the SE in the system").
  ++misses_;
  out.cache_miss = true;
  int se_count = se_count_fn_();
  out.cost = model_.broadcast_rtt + se_count * model_.broadcast_per_se;
  auto found = authoritative_(id);
  if (!found.ok()) {
    out.status = found.status();
    return out;
  }
  cache_.Put(id, *found);
  out.status = Status::Ok();
  out.entry = *found;
  return out;
}

int64_t CachedLocationStage::ApproxBytes() const {
  return cache_.size() * model_.bytes_per_entry + cache_.key_bytes();
}

// ---------------------------------------------------------------------------
// ConsistentHashLocationStage
// ---------------------------------------------------------------------------

ConsistentHashLocationStage::ConsistentHashLocationStage(
    uint32_t partitions, int vnodes_per_partition, LocationCostModel model)
    : model_(model), partitions_(partitions), ring_(vnodes_per_partition) {
  ring_.AddNodes(0, partitions);
}

uint32_t ConsistentHashLocationStage::PartitionOf(const Identity& id) const {
  return ring_.NodeOfHash(HashIdentity(id));
}

ResolveResult ConsistentHashLocationStage::Resolve(const Identity& id,
                                                   MicroTime now) {
  (void)now;
  ResolveResult out;
  out.status = Status::Ok();
  out.entry.key = HashIdentity(id);
  out.entry.partition = PartitionOf(id);
  out.cost = model_.hash_lookup;
  return out;
}

Status ConsistentHashLocationStage::Bind(const Identity& id,
                                         const LocationEntry& entry) {
  if (entry.partition != PartitionOf(id)) {
    return Status::FailedPrecondition(
        "consistent hashing cannot honor selective placement for " +
        id.ToString());
  }
  return Status::Ok();
}

int64_t ConsistentHashLocationStage::ApproxBytes() const {
  // Ring points only: (8-byte hash + 4-byte partition) per vnode.
  return static_cast<int64_t>(ring_.point_count()) * 12;
}

}  // namespace udr::location
