// The data location stage: resolves subscriber identities to the partition
// (replica set) and record key holding the subscriber's data.
//
// The paper discusses three realizations (§3.3.1, §3.4.2, §3.5):
//   * ProvisionedLocationStage — identity-location maps provisioned by the
//     PS, one copy per PoA. State-full, modelled O(log N) lookups, supports
//     multiple indexes and selective placement; on scale-out a new stage
//     instance must copy every map entry from a peer, during which its PoA
//     cannot serve (S-R link). The host keeps one physical BindingSet per
//     UDR (the router's) and every provisioned stage reads it: the per-PoA
//     copy, its RAM and its sync window exist only in the cost model.
//   * CachedLocationStage — maps built on the fly: a miss broadcasts a
//     location query to every storage element (cost grows with #SE), but
//     scale-out needs no sync window. It too reads the UDR's one
//     BindingSet; its only per-PoA state is the set of bindings it has not
//     seen yet (its cache is the shared set minus those).
//   * ConsistentHashLocationStage — O(1) lookups, but each identity type
//     needs its own ring/replica of the data and selective placement is
//     impossible; the paper deems it impractical.

#ifndef UDR_LOCATION_LOCATION_STAGE_H_
#define UDR_LOCATION_LOCATION_STAGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hash_ring.h"
#include "common/status.h"
#include "common/time.h"
#include "location/identity.h"
#include "location/identity_index.h"

namespace udr::location {

/// Cost-model constants for the location stage realizations.
struct LocationCostModel {
  MicroDuration map_base = Micros(2);        ///< Fixed per-lookup cost.
  MicroDuration map_per_log2 = Micros(1);    ///< Per-comparison (tree descent).
  MicroDuration hash_lookup = Micros(2);     ///< O(1) consistent-hash lookup.
  MicroDuration broadcast_per_se = Micros(40); ///< Per-SE cost of a miss probe.
  MicroDuration broadcast_rtt = Millis(30);  ///< Worst backbone RTT of a probe.
  int64_t bytes_per_entry = 64;  ///< RAM per identity-map entry (+ its bytes).
  MicroDuration sync_per_entry = Micros(2);  ///< Scale-out copy cost per entry.
};

/// Result of a resolution, including the modelled processing cost.
struct ResolveResult {
  Status status;
  LocationEntry entry;
  MicroDuration cost = 0;
  bool cache_miss = false;
};

/// Abstract data location stage.
class LocationStage {
 public:
  virtual ~LocationStage() = default;

  /// Resolves an identity at virtual time `now`.
  virtual ResolveResult Resolve(const Identity& id, MicroTime now) = 0;

  /// Told of each identity -> location binding the provisioning path makes
  /// or removes. A stage with no per-PoA binding state ignores both.
  virtual Status Bind(const Identity&, const LocationEntry&) {
    return Status::Ok();
  }
  virtual Status Unbind(const Identity&) { return Status::Ok(); }

  /// Number of bound identities.
  virtual int64_t EntryCount() const = 0;

  /// Approximate RAM consumed by the stage (paper: identity-location maps
  /// "deprive storage elements from memory they could use to store data").
  virtual int64_t ApproxBytes() const = 0;

  /// True when the stage honors explicitly provisioned placements (§3.5).
  virtual bool SupportsSelectivePlacement() const = 0;

  /// Human-readable realization name.
  virtual std::string Name() const = 0;
};

/// A PoA's identity-location maps, read from the UDR's one BindingSet. The
/// host lookup is O(1); the modelled cost is still the paper's O(log N)
/// descent (map_base + map_per_log2 * ceil(log2 N), N = entries of that
/// type). Every bind reaches every PoA, so EntryCount and ApproxBytes read
/// the shared set's size() and key_bytes() as a private copy's.
class ProvisionedLocationStage : public LocationStage {
 public:
  /// `bindings` (not owned) must outlive the stage.
  explicit ProvisionedLocationStage(const BindingSet* bindings,
                                    LocationCostModel model = {});

  ResolveResult Resolve(const Identity& id, MicroTime now) override;
  int64_t EntryCount() const override { return bindings_->size(); }
  int64_t ApproxBytes() const override;
  bool SupportsSelectivePlacement() const override { return true; }
  std::string Name() const override { return "provisioned-maps"; }

  // -- Scale-out synchronization (§3.4.2) -------------------------------------

  /// Starts the modelled copy of every entry from `peer`; the stage is
  /// unavailable until it completes. Nothing is copied on the host (both
  /// stages read the same BindingSet). Returns the sync window duration.
  MicroDuration BeginSyncFrom(const ProvisionedLocationStage& peer,
                              MicroTime now);

  /// True while the initial sync is still running at `now`.
  bool Syncing(MicroTime now) const { return now < sync_done_at_; }
  MicroTime sync_done_at() const { return sync_done_at_; }

 private:
  const BindingSet* bindings_;
  LocationCostModel model_;
  MicroTime sync_done_at_ = 0;
};

/// Cache-on-miss stage: a miss broadcasts a probe to every storage element.
/// The PoA's cache is the UDR's BindingSet minus `absent_`: the bindings
/// made before this stage joined (or before InvalidateAll) that no resolve
/// has filled in since. Every bind and unbind writes the shared set first
/// and then reaches every stage, so that difference always equals what a
/// private cache filled by binds and misses would hold. A stage that joins
/// a populated UDR starts with `absent_` a copy of the set, which misses
/// and rebinds drain; one that joins before provisioning starts empty.
class CachedLocationStage : public LocationStage {
 public:
  /// `bindings` (not owned) must outlive the stage; `se_count_fn` reports
  /// how many SEs a probe must visit.
  CachedLocationStage(const BindingSet* bindings,
                      std::function<int()> se_count_fn,
                      LocationCostModel model = LocationCostModel());

  ResolveResult Resolve(const Identity& id, MicroTime now) override;
  Status Bind(const Identity& id, const LocationEntry&) override {
    MarkSeen(id);
    return Status::Ok();
  }
  Status Unbind(const Identity& id) override {
    MarkSeen(id);
    return Status::Ok();
  }
  int64_t EntryCount() const override {
    return bindings_->size() - absent_.size();
  }
  int64_t ApproxBytes() const override;
  bool SupportsSelectivePlacement() const override { return true; }
  std::string Name() const override { return "cached-maps"; }

  int64_t cache_hits() const { return hits_; }
  int64_t cache_misses() const { return misses_; }
  /// Drops the whole cache (e.g. a freshly deployed stage instance).
  void InvalidateAll() { absent_ = *bindings_; }

 private:
  /// `id` is cached (or unbound) from now on; releases the table once the
  /// last absent binding is filled.
  void MarkSeen(const Identity& id) {
    if (absent_.Erase(id) && absent_.size() == 0) absent_.Clear();
  }

  const BindingSet* bindings_;
  std::function<int()> se_count_fn_;
  LocationCostModel model_;
  BindingSet absent_;  ///< Bound in *bindings_ but not cached here.
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Consistent-hashing alternative (§3.5): O(1), no per-subscriber state, but
/// one ring (and in the paper's terms, one full data replica) per identity
/// type, and no selective placement.
class ConsistentHashLocationStage : public LocationStage {
 public:
  /// `partitions` is the number of data partitions; `vnodes_per_partition`
  /// controls ring smoothness.
  ConsistentHashLocationStage(uint32_t partitions, int vnodes_per_partition = 64,
                              LocationCostModel model = LocationCostModel());

  ResolveResult Resolve(const Identity& id, MicroTime now) override;
  /// Bind is a no-op check: consistent hashing cannot honor an explicit
  /// placement; returns FailedPrecondition when the requested placement
  /// disagrees with the hash.
  Status Bind(const Identity& id, const LocationEntry& entry) override;
  int64_t EntryCount() const override { return 0; }
  int64_t ApproxBytes() const override;
  bool SupportsSelectivePlacement() const override { return false; }
  std::string Name() const override { return "consistent-hash"; }

  /// Partition an identity hashes to.
  uint32_t PartitionOf(const Identity& id) const;

  /// Number of full data replicas the paper says this approach needs (one
  /// per identity type the UDR must index).
  int RequiredDataReplicas() const { return kIdentityTypeCount; }

 private:
  LocationCostModel model_;
  uint32_t partitions_;
  HashRing ring_;  ///< Shared vnode ring (same primitive as routing::PartitionMap).
};

}  // namespace udr::location

#endif  // UDR_LOCATION_LOCATION_STAGE_H_
