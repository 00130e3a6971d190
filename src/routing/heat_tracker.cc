#include "routing/heat_tracker.h"

#include <algorithm>
#include <cmath>

namespace udr::routing {

HeatTracker::HeatTracker(HeatTrackerConfig config) : config_(config) {
  if (config_.halflife_us < 1) config_.halflife_us = 1;
  if (config_.top_k < 1) config_.top_k = 1;
  const size_t k = static_cast<size_t>(config_.top_k);
  sketch_.reserve(k);
  heap_.reserve(k);
  heap_pos_.reserve(k);
  index_.Reserve(k);
}

double HeatTracker::Decay(MicroDuration dt) const {
  if (dt <= 0) return 1.0;
  return std::exp2(-static_cast<double>(dt) /
                   static_cast<double>(config_.halflife_us));
}

void HeatTracker::RecordAccess(uint32_t partition, storage::RecordKey key,
                               MicroTime now) {
  owner_.Check();
  ++total_;

  if (partitions_.size() <= partition) partitions_.resize(partition + 1);
  PartitionState& p = partitions_[partition];
  p.heat = p.heat * Decay(now - p.last) + 1.0;
  p.last = now;

  // Space-saving sketch: a hit bumps the slot; a miss with a full sketch
  // replaces the coldest slot (the heap root), inheriting its count as the
  // error bound. A bump only makes a slot hotter, so it sifts down.
  const uint32_t hit = index_.Find(key);
  if (hit != FlatKeyIndex::kNone) {
    ++sketch_[hit].count;
    SiftDown(heap_pos_[hit]);
    return;
  }
  if (sketch_.size() < static_cast<size_t>(config_.top_k)) {
    const uint32_t slot = static_cast<uint32_t>(sketch_.size());
    index_.Insert(key, slot);
    sketch_.push_back(HotKey{key, 1, 0});
    heap_pos_.push_back(static_cast<uint32_t>(heap_.size()));
    heap_.push_back(slot);
    SiftUp(heap_.size() - 1);
    return;
  }
  const uint32_t coldest = heap_.front();
  HotKey& slot = sketch_[coldest];
  index_.Erase(slot.key);
  index_.Insert(key, coldest);
  slot.error = slot.count;
  slot.count = slot.count + 1;
  slot.key = key;
  SiftDown(0);
}

void HeatTracker::SiftUp(size_t pos) {
  const uint32_t slot = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Colder(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<uint32_t>(pos);
}

void HeatTracker::SiftDown(size_t pos) {
  const uint32_t slot = heap_[pos];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Colder(heap_[child + 1], heap_[child])) ++child;
    if (!Colder(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<uint32_t>(pos);
}

double HeatTracker::PartitionHeat(uint32_t partition, MicroTime now) const {
  owner_.Check();
  if (partition >= partitions_.size()) return 0.0;
  const PartitionState& p = partitions_[partition];
  return p.heat * Decay(now - p.last);
}

int64_t HeatTracker::KeyCount(storage::RecordKey key) const {
  owner_.Check();
  const uint32_t slot = index_.Find(key);
  return slot == FlatKeyIndex::kNone ? 0 : sketch_[slot].count;
}

std::vector<HeatTracker::HotKey> HeatTracker::TopKeys(size_t n) const {
  owner_.Check();
  std::vector<HotKey> out = sketch_;
  std::sort(out.begin(), out.end(), [](const HotKey& a, const HotKey& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;  // Deterministic tie-break.
  });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace udr::routing
