// Access-heat tracking for the routing layer. Telecom signaling traffic is
// extremely read-skewed (mass events, roaming waves concentrate on a handful
// of subscribers), so the router samples every resolved operation into two
// cheap structures:
//
//   * a per-partition exponentially-decayed access count ("heat") — the
//     signal the runtime split/merge controller acts on, and
//   * a space-saving top-K sketch over record keys — the admission filter
//     for the PoA read-through cache (only records the sketch has seen
//     often enough are worth caching).
//
// Both are cheap per access and fully deterministic: decay runs on the
// simulation clock, never on wall time. The sketch keeps its K slots in one
// array, finds a key's slot through a FlatKeyIndex (common/flat_table.h)
// sized once for K, and keeps the slots in a binary min-heap ordered by
// (count, slot index), so a full sketch's victim sits at the root instead
// of a scan of all K slots: the lowest-index slot among the minimum
// counts. Nothing is allocated per access after construction.
//
// Thread confinement: a tracker belongs to the thread that first uses it,
// and every public call checks that (common::ThreadOwner,
// thread_owner.h); RebindToThisThread() hands it to another thread after a
// join.

#ifndef UDR_ROUTING_HEAT_TRACKER_H_
#define UDR_ROUTING_HEAT_TRACKER_H_

#include <cstdint>
#include <vector>

#include "common/attributes.h"
#include "common/flat_table.h"
#include "common/thread_owner.h"
#include "common/time.h"
#include "storage/record.h"

namespace udr::routing {

struct HeatTrackerConfig {
  /// Half-life of the per-partition decayed access count. After this much
  /// idle sim-time a partition's heat halves.
  MicroDuration halflife_us = Millis(500);
  /// Capacity of the space-saving per-key sketch. Keys beyond the K hottest
  /// are approximated (classic space-saving overestimate, bounded by the
  /// evicted slot's count).
  int top_k = 128;
};

class HeatTracker {
 public:
  explicit HeatTracker(HeatTrackerConfig config = {});

  /// Samples one routed access. Called from the router's resolve stage on
  /// every op of Route/RouteBatch — must stay cheap.
  void RecordAccess(uint32_t partition, storage::RecordKey key, MicroTime now);

  /// Decayed access count of `partition` as of `now` (0 for partitions never
  /// seen). Does not mutate state.
  double PartitionHeat(uint32_t partition, MicroTime now) const;

  /// Estimated access count of `key`; 0 when the sketch is not tracking it.
  /// The space-saving guarantee: any key with true count above the smallest
  /// tracked count is present.
  int64_t KeyCount(storage::RecordKey key) const;

  struct HotKey {
    storage::RecordKey key = 0;
    int64_t count = 0;  ///< Estimated accesses (upper bound).
    int64_t error = 0;  ///< Max overestimate inherited from evictions.
  };

  /// Up to `n` hottest keys, descending by estimated count.
  std::vector<HotKey> TopKeys(size_t n) const;

  /// Hands the tracker to the calling thread (after a join).
  void RebindToThisThread() { owner_.Rebind(); }

  int64_t total_accesses() const { owner_.Check(); return total_; }
  size_t tracked_keys() const { owner_.Check(); return sketch_.size(); }

 private:
  struct PartitionState {
    double heat = 0.0;
    MicroTime last = 0;
  };

  /// 2^(-dt/halflife); 1.0 for dt <= 0.
  double Decay(MicroDuration dt) const;

  /// Heap order: fewer accesses first, then the lower slot index.
  bool Colder(uint32_t a, uint32_t b) const {
    if (sketch_[a].count != sketch_[b].count) {
      return sketch_[a].count < sketch_[b].count;
    }
    return a < b;
  }
  /// Restores the heap after heap_[pos]'s slot got colder / hotter.
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  UDR_NO_UNIQUE_ADDRESS common::ThreadOwner owner_{"HeatTracker"};
  HeatTrackerConfig config_;  ///< Immutable after construction.
  std::vector<PartitionState> partitions_;
  /// Slot array; at most config_.top_k entries, never reordered.
  std::vector<HotKey> sketch_;
  FlatKeyIndex index_;  ///< key -> slot.
  /// Slot numbers as a min-heap under Colder(); heap_pos_[slot] is the
  /// slot's position in heap_.
  std::vector<uint32_t> heap_;
  std::vector<uint32_t> heap_pos_;
  int64_t total_ = 0;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_HEAT_TRACKER_H_
