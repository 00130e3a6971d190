// PoA-local read-through cache for the hottest subscriber records.
//
// Signaling reads tolerate "fresh enough" (the FE read preference is
// kNearest, not kMasterOnly), but this cache is built to a stricter policy so
// it never widens the staleness window the replica set already has:
//
//   * it serves only reads that asked for kNearest — master-only reads
//     (provisioning, delete preconditions) always go to the primary;
//   * it is populated only from NON-stale read results, so an entry always
//     equals the newest committed master state at insert time;
//   * every committed write/delete for a key synchronously invalidates the
//     key (the router's batched write flush and the UdrNf direct-write sites
//     both call through), so an entry keeps equaling master state;
//   * every entry is tagged with the (partition, epoch) it was resolved
//     under; the router bumps a partition's epoch on migration cutover and
//     on runtime split/merge, so entries cached across a re-home can never
//     be served — the same defense-in-depth shape as the bypass-exception
//     list on the hash-routing path.
//
// Net effect: a cache hit is indistinguishable from a fresh non-stale
// kNearest read, at PoA-local cost instead of a PoA->SE round trip.
//
// Capacity is bounded in BYTES (Record::CacheFootprintBytes — payload plus
// per-entry bookkeeping), evicting least-recently-used entries.
//
// Layout: entries live in one slot array; the LRU order is a doubly linked
// list threaded through the slots by index, freed slots go on a free list,
// and a FlatKeyIndex maps a record key to its slot (the flat pattern of
// RecordStore and IdentityIndex). Once the slot array and the index have
// grown to the working set, no insert, hit, eviction or invalidation
// allocates a node. An entry holds a share of the read result's payload
// (Record::Share), not a deep copy; see the sharing rule in record.h.
//
// Thread safety: all state is guarded by mu_ (annotated common::Mutex).
// Today each PoA's cache is shard-confined so the lock is uncontended; the
// guard makes the structure safe to share when the multi-master replication
// path starts invalidating keys across threads. Lookup() hands out a pointer
// into the cache — see its contract note.

#ifndef UDR_ROUTING_POA_CACHE_H_
#define UDR_ROUTING_POA_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/flat_key_index.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/time.h"
#include "storage/record.h"

namespace udr::routing {

struct PoaCacheConfig {
  /// Byte budget for cached records (CacheFootprintBytes accounting).
  int64_t capacity_bytes = 256 * 1024;
  /// PoA-local cost charged per cache hit (no PoA->SE transit, no SE
  /// service slot — that is the whole point).
  MicroDuration hit_cost = Micros(2);
};

class PoaCache {
 public:
  explicit PoaCache(PoaCacheConfig config);

  /// Returns the cached record iff the entry was inserted under the same
  /// (partition, epoch) the caller resolved `key` to right now; an entry
  /// from an older epoch or a different partition is silently dropped and
  /// the lookup misses. A hit refreshes LRU position. The pointer stays
  /// valid until the next mutating call — callers must consume it before
  /// touching the cache again (the shard-confined dispatch stage does), and
  /// a future cross-thread sharer must copy under its own coordination.
  const storage::Record* Lookup(storage::RecordKey key, uint32_t partition,
                                uint64_t epoch) EXCLUDES(mu_);

  /// Inserts (or refreshes) `record` tagged (partition, epoch), evicting
  /// LRU entries until the byte budget holds. A record bigger than the whole
  /// budget is not admitted. The router passes a Share() of the read result,
  /// so the entry and the reader hold one payload.
  void Insert(storage::RecordKey key, uint32_t partition, uint64_t epoch,
              storage::Record record) EXCLUDES(mu_);

  /// Drops `key`; returns true when an entry existed. The write path calls
  /// this synchronously for every committed write/delete.
  bool Invalidate(storage::RecordKey key) EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

  /// Cached keys, most recently used first (introspection for tests).
  std::vector<storage::RecordKey> KeysByRecency() const EXCLUDES(mu_);

  int64_t bytes() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return bytes_;
  }
  size_t size() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return index_.size();
  }
  int64_t capacity_bytes() const { return config_.capacity_bytes; }
  MicroDuration hit_cost() const { return config_.hit_cost; }

  int64_t hits() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return hits_;
  }
  int64_t misses() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return misses_;
  }
  int64_t insertions() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return insertions_;
  }
  int64_t invalidations() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return invalidations_;
  }
  int64_t evictions() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return evictions_;
  }
  int64_t epoch_drops() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return epoch_drops_;
  }

 private:
  static constexpr uint32_t kNil = FlatKeyIndex::kNone;

  /// One entry; `prev`/`next` link the LRU list (or, for a free slot,
  /// `next` links the free list).
  struct Slot {
    storage::RecordKey key = 0;
    uint64_t epoch = 0;
    int64_t bytes = 0;
    storage::Record record;
    uint32_t partition = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  /// Drops the entry in slot `i` and frees the slot.
  void Erase(uint32_t i) REQUIRES(mu_);
  void Unlink(uint32_t i) REQUIRES(mu_);
  void PushFront(uint32_t i) REQUIRES(mu_);

  PoaCacheConfig config_;  ///< Immutable after construction.
  mutable common::Mutex mu_{"routing.poa_cache"};
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  uint32_t head_ GUARDED_BY(mu_) = kNil;  ///< Most recently used.
  uint32_t tail_ GUARDED_BY(mu_) = kNil;  ///< Least recently used.
  uint32_t free_ GUARDED_BY(mu_) = kNil;  ///< First free slot.
  FlatKeyIndex index_ GUARDED_BY(mu_);    ///< key -> slot.
  int64_t bytes_ GUARDED_BY(mu_) = 0;
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  int64_t insertions_ GUARDED_BY(mu_) = 0;
  int64_t invalidations_ GUARDED_BY(mu_) = 0;
  int64_t evictions_ GUARDED_BY(mu_) = 0;
  int64_t epoch_drops_ GUARDED_BY(mu_) = 0;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_POA_CACHE_H_
