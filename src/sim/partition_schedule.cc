#include "sim/partition_schedule.h"

#include <algorithm>
#include <cassert>

namespace udr::sim {

void IntervalSet::Add(MicroTime begin, MicroTime end) {
  if (end <= begin) return;
  TimeInterval nv{begin, end};
  std::vector<TimeInterval> merged;
  merged.reserve(intervals_.size() + 1);
  bool inserted = false;
  for (const auto& iv : intervals_) {
    if (iv.end < nv.begin) {
      merged.push_back(iv);
    } else if (nv.end < iv.begin) {
      if (!inserted) {
        merged.push_back(nv);
        inserted = true;
      }
      merged.push_back(iv);
    } else {
      nv.begin = std::min(nv.begin, iv.begin);
      nv.end = std::max(nv.end, iv.end);
    }
  }
  if (!inserted) merged.push_back(nv);
  intervals_ = std::move(merged);
}

bool IntervalSet::Covers(MicroTime t) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](MicroTime v, const TimeInterval& iv) { return v < iv.begin; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->Contains(t);
}

MicroTime IntervalSet::NextClear(MicroTime t) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](MicroTime v, const TimeInterval& iv) { return v < iv.begin; });
  if (it == intervals_.begin()) return t;
  --it;
  return it->Contains(t) ? it->end : t;
}

MicroDuration IntervalSet::OutageWithin(MicroTime begin, MicroTime end) const {
  MicroDuration total = 0;
  for (const auto& iv : intervals_) {
    MicroTime b = std::max(begin, iv.begin);
    MicroTime e = std::min(end, iv.end);
    if (e > b) total += e - b;
  }
  return total;
}

void PartitionSchedule::CutLink(SiteId a, SiteId b, MicroTime begin,
                                MicroTime end) {
  if (a == b) return;  // Site LANs are never partitioned.
  links_[Key(a, b)].Add(begin, end);
}

void PartitionSchedule::CutBetween(const std::vector<SiteId>& group_a,
                                   const std::vector<SiteId>& group_b,
                                   MicroTime begin, MicroTime end) {
  for (SiteId a : group_a) {
    for (SiteId b : group_b) CutLink(a, b, begin, end);
  }
}

void PartitionSchedule::IsolateSite(SiteId site, uint32_t site_count,
                                    MicroTime begin, MicroTime end) {
  for (SiteId other = 0; other < site_count; ++other) {
    if (other != site) CutLink(site, other, begin, end);
  }
}

bool PartitionSchedule::Reachable(SiteId a, SiteId b, MicroTime t) const {
  if (a == b) return true;
  auto it = links_.find(Key(a, b));
  if (it == links_.end()) return true;
  return !it->second.Covers(t);
}

MicroTime PartitionSchedule::HealTime(SiteId a, SiteId b, MicroTime t) const {
  if (a == b) return t;
  auto it = links_.find(Key(a, b));
  if (it == links_.end()) return t;
  return it->second.NextClear(t);
}

MicroTime PartitionSchedule::DeliveryTime(SiteId a, SiteId b,
                                          MicroTime send_time,
                                          MicroDuration latency) const {
  MicroTime effective_send = HealTime(a, b, send_time);
  return effective_send + latency;
}

MicroDuration PartitionSchedule::OutageWithin(SiteId a, SiteId b,
                                              MicroTime begin,
                                              MicroTime end) const {
  if (a == b) return 0;
  auto it = links_.find(Key(a, b));
  if (it == links_.end()) return 0;
  return it->second.OutageWithin(begin, end);
}

void CrashSchedule::AddOutage(const std::string& node, MicroTime begin,
                              MicroTime end) {
  nodes_[node].Add(begin, end);
}

void CrashSchedule::FailForever(const std::string& node, MicroTime begin) {
  nodes_[node].Add(begin, kTimeInfinity);
}

bool CrashSchedule::IsUp(const std::string& node, MicroTime t) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return true;
  return !it->second.Covers(t);
}

MicroTime CrashSchedule::RecoveryTime(const std::string& node,
                                      MicroTime t) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return t;
  return it->second.NextClear(t);
}

}  // namespace udr::sim
