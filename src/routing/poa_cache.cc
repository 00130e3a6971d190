#include "routing/poa_cache.h"

#include <utility>

namespace udr::routing {

PoaCache::PoaCache(PoaCacheConfig config) : config_(config) {
  if (config_.capacity_bytes < 0) config_.capacity_bytes = 0;
  if (config_.hit_cost < 0) config_.hit_cost = 0;
}

const storage::Record* PoaCache::Lookup(storage::RecordKey key,
                                        uint32_t partition, uint64_t epoch) {
  owner_.Check();
  const uint32_t i = index_.Find(key);
  if (i == kNil) {
    ++misses_;
    return nullptr;
  }
  Slot& slot = slots_[i];
  if (slot.partition != partition || slot.epoch != epoch) {
    // Cached under an owner/epoch that has since moved on (split, merge,
    // migration cutover). Never serve across the boundary.
    ++epoch_drops_;
    ++misses_;
    Erase(i);
    return nullptr;
  }
  if (head_ != i) {
    Unlink(i);
    PushFront(i);
  }
  ++hits_;
  return &slot.record;
}

void PoaCache::Insert(storage::RecordKey key, uint32_t partition,
                      uint64_t epoch, storage::Record record) {
  owner_.Check();
  const int64_t cost = record.CacheFootprintBytes();
  if (cost > config_.capacity_bytes) return;

  const uint32_t existing = index_.Find(key);
  if (existing != kNil) Erase(existing);

  while (bytes_ + cost > config_.capacity_bytes && tail_ != kNil) {
    ++evictions_;
    Erase(tail_);
  }

  uint32_t i = free_;
  if (i != kNil) {
    free_ = slots_[i].next;
  } else {
    i = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[i];
  slot.key = key;
  slot.partition = partition;
  slot.epoch = epoch;
  slot.bytes = cost;
  slot.record = std::move(record);
  PushFront(i);
  index_.Insert(key, i);
  bytes_ += cost;
  ++insertions_;
}

bool PoaCache::Invalidate(storage::RecordKey key) {
  owner_.Check();
  const uint32_t i = index_.Find(key);
  if (i == kNil) return false;
  ++invalidations_;
  Erase(i);
  return true;
}

void PoaCache::Clear() {
  owner_.Check();
  slots_.clear();
  index_.Clear();
  head_ = tail_ = free_ = kNil;
  bytes_ = 0;
}

std::vector<storage::RecordKey> PoaCache::KeysByRecency() const {
  owner_.Check();
  std::vector<storage::RecordKey> keys;
  keys.reserve(index_.size());
  for (uint32_t i = head_; i != kNil; i = slots_[i].next) {
    keys.push_back(slots_[i].key);
  }
  return keys;
}

void PoaCache::Erase(uint32_t i) {
  Slot& slot = slots_[i];
  bytes_ -= slot.bytes;
  index_.Erase(slot.key);
  Unlink(i);
  slot.record = storage::Record();
  slot.next = free_;
  free_ = i;
}

void PoaCache::Unlink(uint32_t i) {
  Slot& slot = slots_[i];
  if (slot.prev != kNil) {
    slots_[slot.prev].next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNil) {
    slots_[slot.next].prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
  slot.prev = slot.next = kNil;
}

void PoaCache::PushFront(uint32_t i) {
  Slot& slot = slots_[i];
  slot.prev = kNil;
  slot.next = head_;
  if (head_ != kNil) slots_[head_].prev = i;
  head_ = i;
  if (tail_ == kNil) tail_ = i;
}

}  // namespace udr::routing
