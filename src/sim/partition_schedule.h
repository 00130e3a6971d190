// Partition and crash schedules: time-interval sets describing when backbone
// links between site pairs are severed and when nodes are down. Replication
// links consult DeliveryTime() to defer log shipping across an outage, which
// is what produces honest CAP behaviour (stale slaves, failed writes on the
// minority side) without threads or sockets.

#ifndef UDR_SIM_PARTITION_SCHEDULE_H_
#define UDR_SIM_PARTITION_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "sim/topology.h"

namespace udr::sim {

/// An ordered, merged set of half-open outage intervals.
class IntervalSet {
 public:
  /// Adds [begin, end), merging with overlapping/adjacent intervals.
  void Add(MicroTime begin, MicroTime end);

  /// True if `t` falls inside an outage interval.
  bool Covers(MicroTime t) const;

  /// Earliest time >= t that is outside every interval (t itself if clear).
  MicroTime NextClear(MicroTime t) const;

  /// Total outage duration overlapping [begin, end).
  MicroDuration OutageWithin(MicroTime begin, MicroTime end) const;

  const std::vector<TimeInterval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }

 private:
  std::vector<TimeInterval> intervals_;  // Sorted, non-overlapping.
};

/// Time-varying reachability between sites.
class PartitionSchedule {
 public:
  /// Severs the (symmetric) backbone link between sites a and b for
  /// [begin, end).
  void CutLink(SiteId a, SiteId b, MicroTime begin, MicroTime end);

  /// Severs every link between the two site groups (a full network
  /// partition separating `group_a` from `group_b`).
  void CutBetween(const std::vector<SiteId>& group_a,
                  const std::vector<SiteId>& group_b, MicroTime begin,
                  MicroTime end);

  /// Isolates one site from all others for [begin, end).
  void IsolateSite(SiteId site, uint32_t site_count, MicroTime begin,
                   MicroTime end);

  /// True if a message can be sent from a to b at time t (same-site traffic
  /// is never partitioned: the paper treats site LANs as reliable).
  bool Reachable(SiteId a, SiteId b, MicroTime t) const;

  /// Earliest time >= t at which a->b traffic flows again.
  MicroTime HealTime(SiteId a, SiteId b, MicroTime t) const;

  /// Delivery time of a message sent at `send_time` with one-way latency
  /// `latency`, for stream-style transport (replication): if the link is down
  /// at send time, delivery is deferred until heal + latency.
  MicroTime DeliveryTime(SiteId a, SiteId b, MicroTime send_time,
                         MicroDuration latency) const;

  /// Total severed duration for the a-b link inside [begin, end).
  MicroDuration OutageWithin(SiteId a, SiteId b, MicroTime begin,
                             MicroTime end) const;

  bool HasAnyPartition() const { return !links_.empty(); }

 private:
  static uint64_t Key(SiteId a, SiteId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::map<uint64_t, IntervalSet> links_;
};

/// Time-varying up/down state of named nodes (storage elements, servers).
class CrashSchedule {
 public:
  /// Marks the node down for [begin, end). A crash destroys RAM contents;
  /// recovery semantics live in the storage layer.
  void AddOutage(const std::string& node, MicroTime begin, MicroTime end);

  /// Permanently fails the node from `begin` on.
  void FailForever(const std::string& node, MicroTime begin);

  bool IsUp(const std::string& node, MicroTime t) const;

  /// Earliest time >= t when the node is up again (kTimeInfinity if never).
  MicroTime RecoveryTime(const std::string& node, MicroTime t) const;

 private:
  std::map<std::string, IntervalSet> nodes_;
};

}  // namespace udr::sim

#endif  // UDR_SIM_PARTITION_SCHEDULE_H_
