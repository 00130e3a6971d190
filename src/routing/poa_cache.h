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
// and a FlatKeyIndex (common/flat_table.h, the table RecordStore and
// IdentityIndex use too) maps a record key to its slot. Once the slot array
// and the index have grown to the working set, no insert, hit, eviction or
// invalidation allocates a node. An entry holds a share of the read
// result's payload (Record::Share), not a deep copy; see record.h.
//
// Thread confinement: a cache belongs to the thread that first uses it, and
// every public call checks that (common::ThreadOwner, thread_owner.h);
// RebindToThisThread() hands it to another thread after a join. Lookup()
// hands out a pointer into the cache — see its contract note.

#ifndef UDR_ROUTING_POA_CACHE_H_
#define UDR_ROUTING_POA_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/attributes.h"
#include "common/flat_table.h"
#include "common/thread_owner.h"
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
  /// touching the cache again (the dispatch stage does).
  const storage::Record* Lookup(storage::RecordKey key, uint32_t partition,
                                uint64_t epoch);

  /// Inserts (or refreshes) `record` tagged (partition, epoch), evicting
  /// LRU entries until the byte budget holds. A record bigger than the whole
  /// budget is not admitted. The router passes a Share() of the read result,
  /// so the entry and the reader hold one payload.
  void Insert(storage::RecordKey key, uint32_t partition, uint64_t epoch,
              storage::Record record);

  /// Drops `key`; returns true when an entry existed. The write path calls
  /// this synchronously for every committed write/delete.
  bool Invalidate(storage::RecordKey key);

  void Clear();

  /// Cached keys, most recently used first (introspection for tests).
  std::vector<storage::RecordKey> KeysByRecency() const;

  /// Hands the cache to the calling thread (after a join).
  void RebindToThisThread() { owner_.Rebind(); }

  int64_t bytes() const { owner_.Check(); return bytes_; }
  size_t size() const { owner_.Check(); return index_.size(); }
  int64_t capacity_bytes() const {
    owner_.Check();
    return config_.capacity_bytes;
  }
  MicroDuration hit_cost() const { owner_.Check(); return config_.hit_cost; }

  int64_t hits() const { owner_.Check(); return hits_; }
  int64_t misses() const { owner_.Check(); return misses_; }
  int64_t insertions() const { owner_.Check(); return insertions_; }
  int64_t invalidations() const { owner_.Check(); return invalidations_; }
  int64_t evictions() const { owner_.Check(); return evictions_; }
  int64_t epoch_drops() const { owner_.Check(); return epoch_drops_; }

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
  void Erase(uint32_t i);
  void Unlink(uint32_t i);
  void PushFront(uint32_t i);

  UDR_NO_UNIQUE_ADDRESS common::ThreadOwner owner_{"PoaCache"};
  PoaCacheConfig config_;  ///< Immutable after construction.
  std::vector<Slot> slots_;
  uint32_t head_ = kNil;  ///< Most recently used.
  uint32_t tail_ = kNil;  ///< Least recently used.
  uint32_t free_ = kNil;  ///< First free slot.
  FlatKeyIndex index_;    ///< key -> slot.
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t insertions_ = 0;
  int64_t invalidations_ = 0;
  int64_t evictions_ = 0;
  int64_t epoch_drops_ = 0;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_POA_CACHE_H_
