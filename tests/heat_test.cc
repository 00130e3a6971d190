// Tests for the heat-aware data path: the Zipf workload generator
// (distribution shape + determinism + uniform passthrough), the HeatTracker
// EWMA/space-saving sketch, the PoaCache byte-LRU and epoch policy, the
// router's read-through cache (populate on miss, synchronous invalidation on
// writes/deletes — read-your-writes never violated), a property test that
// cache-served reads always equal committed master state under concurrent
// writes/deletes/split/merge churn, and the runtime split/merge controller
// end to end (population conservation, zero acked-write loss).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "routing/batch.h"
#include "routing/heat_tracker.h"
#include "routing/poa_cache.h"
#include "routing/router.h"
#include "storage/record.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"
#include "workload/zipf.h"

namespace udr::routing {
namespace {

using location::Identity;
using replication::ReadPreference;

workload::TestbedOptions BaseOptions(int64_t subscribers = 0) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = subscribers;
  return o;
}

/// Hash placement plus the PoA record cache: every subscriber record is
/// hot enough to admit after one access (admit_min = 1) unless a test
/// overrides it.
workload::TestbedOptions HeatOptions(int64_t subscribers) {
  workload::TestbedOptions o = BaseOptions(subscribers);
  o.udr.placement = PlacementKind::kHash;
  o.udr.heat_tracking = true;
  o.udr.poa_cache_bytes = 256 * 1024;
  o.udr.poa_cache_admit_min = 1;
  return o;
}

/// Lets asynchronous replication drain so nearest-replica reads see the
/// provisioned population (slave copies apply on delivery, not at commit).
void Settle(workload::Testbed& bed) {
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
}

// ---------------------------------------------------------------------------
// Zipf generator
// ---------------------------------------------------------------------------

TEST(ZipfGeneratorTest, ThetaZeroIsAnExactUniformPassthrough) {
  // theta <= 0 must be byte-identical to rng.Uniform(n): every pre-existing
  // uniform workload keeps its historical key stream.
  workload::ZipfGenerator gen(1000, 0.0);
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(gen.Next(a), b.Uniform(1000)) << "draw " << i;
  }
}

TEST(ZipfGeneratorTest, SameSeedReproducesTheKeySequence) {
  workload::ZipfGenerator gen1(1000, 0.99);
  workload::ZipfGenerator gen2(1000, 0.99);
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(gen1.Next(a), gen2.Next(b)) << "draw " << i;
  }
}

TEST(ZipfGeneratorTest, SkewedDrawMatchesTheDiscreteDistribution) {
  const uint64_t n = 1000;
  const int64_t draws = 200000;
  workload::ZipfGenerator gen(n, 0.99);
  Rng rng(7);
  std::vector<int64_t> counts(n, 0);
  for (int64_t i = 0; i < draws; ++i) {
    uint64_t k = gen.Next(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  // Rank 0 frequency within 15% of the exact P(0) (sampling noise at 200k
  // draws is well under 1%).
  const double p0 = gen.ProbabilityOfRank(0);
  const double f0 = static_cast<double>(counts[0]) / draws;
  EXPECT_GT(f0, 0.85 * p0);
  EXPECT_LT(f0, 1.15 * p0);
  // The head carries the mass: at theta 0.99 the ten hottest of 1000 keys
  // draw over 30% of accesses (uniform would give them 1%).
  int64_t top10 = 0;
  for (int k = 0; k < 10; ++k) top10 += counts[k];
  EXPECT_GT(static_cast<double>(top10) / draws, 0.30);
  // Monotone head: rank 0 beats deep ranks decisively.
  EXPECT_GT(counts[0], 2 * counts[50]);
}

// ---------------------------------------------------------------------------
// HeatTracker
// ---------------------------------------------------------------------------

TEST(HeatTrackerTest, PartitionHeatDecaysWithTheConfiguredHalflife) {
  HeatTrackerConfig cfg;
  cfg.halflife_us = Millis(100);
  HeatTracker tracker(cfg);
  const MicroTime t0 = Seconds(1);
  for (int i = 0; i < 10; ++i) tracker.RecordAccess(3, 42, t0);
  EXPECT_DOUBLE_EQ(tracker.PartitionHeat(3, t0), 10.0);
  // One half-life later the count has halved; two, quartered.
  EXPECT_NEAR(tracker.PartitionHeat(3, t0 + Millis(100)), 5.0, 1e-9);
  EXPECT_NEAR(tracker.PartitionHeat(3, t0 + Millis(200)), 2.5, 1e-9);
  // Partitions never seen read as cold, not as an error.
  EXPECT_DOUBLE_EQ(tracker.PartitionHeat(99, t0), 0.0);
  EXPECT_EQ(tracker.total_accesses(), 10);
}

TEST(HeatTrackerTest, SpaceSavingSketchKeepsTheHotKeys) {
  HeatTrackerConfig cfg;
  cfg.top_k = 2;
  HeatTracker tracker(cfg);
  for (int i = 0; i < 5; ++i) tracker.RecordAccess(0, 10, 0);
  for (int i = 0; i < 3; ++i) tracker.RecordAccess(0, 20, 0);
  EXPECT_EQ(tracker.KeyCount(10), 5);
  EXPECT_EQ(tracker.KeyCount(20), 3);

  // A new key on a full sketch replaces the coldest slot and inherits its
  // count as the overestimate bound (classic space-saving).
  tracker.RecordAccess(0, 30, 0);
  EXPECT_EQ(tracker.KeyCount(20), 0);
  EXPECT_EQ(tracker.KeyCount(30), 4);

  auto top = tracker.TopKeys(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 10u);
  EXPECT_EQ(top[0].count, 5);
  EXPECT_EQ(top[0].error, 0);
  EXPECT_EQ(top[1].key, 30u);
  EXPECT_EQ(top[1].error, 3);
}

// ---------------------------------------------------------------------------
// PoaCache
// ---------------------------------------------------------------------------

storage::Record CacheRecord(const std::string& value) {
  storage::Record r;
  r.Set("cfu-number", value, 0, 0);
  return r;
}

TEST(PoaCacheTest, EvictsLeastRecentlyUsedWhenOverTheByteBudget) {
  storage::Record r = CacheRecord("payload");
  const int64_t fp = r.CacheFootprintBytes();
  PoaCacheConfig cfg;
  cfg.capacity_bytes = 2 * fp;  // Room for exactly two entries.
  PoaCache cache(cfg);

  cache.Insert(1, 0, 0, r);
  cache.Insert(2, 0, 0, r);
  EXPECT_EQ(cache.size(), 2u);
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(1, 0, 0), nullptr);
  cache.Insert(3, 0, 0, r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_LE(cache.bytes(), cfg.capacity_bytes);
  EXPECT_NE(cache.Lookup(1, 0, 0), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0, 0), nullptr);
}

TEST(PoaCacheTest, RecordBiggerThanTheBudgetIsNotAdmitted) {
  PoaCacheConfig cfg;
  cfg.capacity_bytes = 8;
  PoaCache cache(cfg);
  cache.Insert(1, 0, 0, CacheRecord("too-big-to-cache"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(PoaCacheTest, EpochOrPartitionMismatchDropsTheEntry) {
  PoaCache cache(PoaCacheConfig{});
  cache.Insert(7, /*partition=*/1, /*epoch=*/0, CacheRecord("v"));

  // Same key resolved under a newer epoch: the stale entry is dropped, not
  // served — exactly the migration-cutover defense.
  EXPECT_EQ(cache.Lookup(7, 1, 1), nullptr);
  EXPECT_EQ(cache.epoch_drops(), 1);
  EXPECT_EQ(cache.size(), 0u);

  // Same story when the key now resolves to a different partition.
  cache.Insert(7, 1, 0, CacheRecord("v"));
  EXPECT_EQ(cache.Lookup(7, 2, 0), nullptr);
  EXPECT_EQ(cache.epoch_drops(), 2);

  // Matching tag serves.
  cache.Insert(7, 1, 0, CacheRecord("v"));
  EXPECT_NE(cache.Lookup(7, 1, 0), nullptr);
}

TEST(PoaCacheTest, InvalidateDropsTheKeySynchronously) {
  PoaCache cache(PoaCacheConfig{});
  cache.Insert(5, 0, 0, CacheRecord("v"));
  EXPECT_TRUE(cache.Invalidate(5));
  EXPECT_EQ(cache.Lookup(5, 0, 0), nullptr);
  EXPECT_FALSE(cache.Invalidate(5));
  EXPECT_EQ(cache.invalidations(), 1);
}

// ---------------------------------------------------------------------------
// Differential tests: the flat PoaCache and HeatTracker against the
// node-based structures they replaced, kept here as oracles.
// ---------------------------------------------------------------------------

/// The std::list + std::unordered_map byte-LRU cache the flat PoaCache
/// replaced, reduced to its observable behavior.
class ListPoaCache {
 public:
  explicit ListPoaCache(int64_t capacity) : capacity_(capacity) {}

  const storage::Record* Lookup(storage::RecordKey key, uint32_t partition,
                                uint64_t epoch) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses;
      return nullptr;
    }
    Entry& entry = *it->second;
    if (entry.partition != partition || entry.epoch != epoch) {
      ++epoch_drops;
      ++misses;
      Erase(it->second);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits;
    return &lru_.front().record;
  }

  void Insert(storage::RecordKey key, uint32_t partition, uint64_t epoch,
              const storage::Record& record) {
    const int64_t cost = record.CacheFootprintBytes();
    if (cost > capacity_) return;
    auto it = index_.find(key);
    if (it != index_.end()) Erase(it->second);
    while (bytes + cost > capacity_ && !lru_.empty()) {
      ++evictions;
      Erase(std::prev(lru_.end()));
    }
    lru_.push_front(Entry{key, partition, epoch, cost, record});
    index_[key] = lru_.begin();
    bytes += cost;
    ++insertions;
  }

  bool Invalidate(storage::RecordKey key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    ++invalidations;
    Erase(it->second);
    return true;
  }

  void Clear() {
    lru_.clear();
    index_.clear();
    bytes = 0;
  }

  size_t size() const { return index_.size(); }
  std::vector<storage::RecordKey> KeysByRecency() const {
    std::vector<storage::RecordKey> keys;
    for (const Entry& e : lru_) keys.push_back(e.key);
    return keys;
  }

  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t invalidations = 0;
  int64_t evictions = 0;
  int64_t epoch_drops = 0;

 private:
  struct Entry {
    storage::RecordKey key = 0;
    uint32_t partition = 0;
    uint64_t epoch = 0;
    int64_t bytes = 0;
    storage::Record record;
  };

  void Erase(std::list<Entry>::iterator it) {
    bytes -= it->bytes;
    index_.erase(it->key);
    lru_.erase(it);
  }

  int64_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<storage::RecordKey, std::list<Entry>::iterator> index_;
};

/// The linear-scan space-saving sketch the heap-ordered HeatTracker
/// replaced: a miss on a full sketch takes the first slot of minimum count.
class ScanSketch {
 public:
  explicit ScanSketch(size_t top_k) : top_k_(top_k) {}

  void RecordAccess(storage::RecordKey key) {
    ++total;
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++sketch_[it->second].count;
      return;
    }
    if (sketch_.size() < top_k_) {
      index_[key] = sketch_.size();
      sketch_.push_back(HeatTracker::HotKey{key, 1, 0});
      return;
    }
    size_t coldest = 0;
    for (size_t i = 1; i < sketch_.size(); ++i) {
      if (sketch_[i].count < sketch_[coldest].count) coldest = i;
    }
    HeatTracker::HotKey& slot = sketch_[coldest];
    index_.erase(slot.key);
    index_[key] = coldest;
    slot.error = slot.count;
    slot.count = slot.count + 1;
    slot.key = key;
  }

  int64_t KeyCount(storage::RecordKey key) const {
    auto it = index_.find(key);
    return it == index_.end() ? 0 : sketch_[it->second].count;
  }

  std::vector<HeatTracker::HotKey> TopKeys(size_t n) const {
    std::vector<HeatTracker::HotKey> out = sketch_;
    std::sort(out.begin(), out.end(),
              [](const HeatTracker::HotKey& a, const HeatTracker::HotKey& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.key < b.key;
              });
    if (out.size() > n) out.resize(n);
    return out;
  }

  size_t tracked() const { return sketch_.size(); }
  int64_t total = 0;

 private:
  size_t top_k_;
  std::vector<HeatTracker::HotKey> sketch_;
  std::unordered_map<storage::RecordKey, size_t> index_;
};

/// Records of increasing size, so inserts cost different byte amounts.
std::vector<storage::Record> RecordsOfVaryingSize() {
  std::vector<storage::Record> records;
  for (int n = 1; n <= 8; ++n) {
    storage::Record r;
    for (int a = 0; a < n; ++a) {
      r.Set("diff-attr-" + std::to_string(a),
            std::string(static_cast<size_t>(8 * n + a), 'x'), a, 0);
    }
    records.push_back(std::move(r));
  }
  return records;
}

void ExpectSameCacheState(const PoaCache& flat, const ListPoaCache& oracle,
                          int step) {
  ASSERT_EQ(flat.KeysByRecency(), oracle.KeysByRecency()) << "op " << step;
  ASSERT_EQ(flat.bytes(), oracle.bytes) << "op " << step;
  ASSERT_EQ(flat.size(), oracle.size()) << "op " << step;
  ASSERT_EQ(flat.hits(), oracle.hits) << "op " << step;
  ASSERT_EQ(flat.misses(), oracle.misses) << "op " << step;
  ASSERT_EQ(flat.insertions(), oracle.insertions) << "op " << step;
  ASSERT_EQ(flat.invalidations(), oracle.invalidations) << "op " << step;
  ASSERT_EQ(flat.evictions(), oracle.evictions) << "op " << step;
  ASSERT_EQ(flat.epoch_drops(), oracle.epoch_drops) << "op " << step;
}

TEST(FlatPoaCacheDifferentialTest, MatchesTheListCacheOnZipfStreams) {
  const std::vector<storage::Record> records = RecordsOfVaryingSize();
  for (uint64_t seed : {1u, 2u, 3u}) {
    // Budget for roughly a dozen mid-size records: inserts run over it
    // constantly, so eviction order is exercised on every seed.
    const int64_t capacity = 12 * records[3].CacheFootprintBytes();
    PoaCacheConfig cfg;
    cfg.capacity_bytes = capacity;
    PoaCache flat(cfg);
    ListPoaCache oracle(capacity);
    workload::ZipfGenerator keys(200, 0.99);
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      const storage::RecordKey key = keys.Next(rng);
      const uint32_t partition = static_cast<uint32_t>(key % 4);
      // One epoch in eight is a newer one: lookups then drop the entry.
      const uint64_t epoch = rng.Uniform(8) == 0 ? 1 : 0;
      const uint64_t pick = rng.Uniform(100);
      if (pick < 45) {
        const storage::Record* a = flat.Lookup(key, partition, epoch);
        const storage::Record* b = oracle.Lookup(key, partition, epoch);
        ASSERT_EQ(a == nullptr, b == nullptr) << "op " << step;
        if (a != nullptr) ASSERT_TRUE(*a == *b) << "op " << step;
      } else if (pick < 85) {
        const storage::Record& r = records[rng.Uniform(records.size())];
        flat.Insert(key, partition, epoch, r.Share());
        oracle.Insert(key, partition, epoch, r);
      } else if (pick < 99) {
        ASSERT_EQ(flat.Invalidate(key), oracle.Invalidate(key))
            << "op " << step;
      } else if (rng.Uniform(20) == 0) {
        flat.Clear();
        oracle.Clear();
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameCacheState(flat, oracle, step));
    }
    EXPECT_GT(oracle.evictions, 0) << "seed " << seed;
    EXPECT_GT(oracle.epoch_drops, 0) << "seed " << seed;
  }
}

TEST(HeapSketchDifferentialTest, MatchesTheLinearScanOnZipfStreams) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (int top_k : {1, 8, 32}) {
      HeatTrackerConfig cfg;
      cfg.top_k = top_k;
      HeatTracker heap(cfg);
      ScanSketch oracle(static_cast<size_t>(top_k));
      // A Zipf head plus a uniform tail: the tail keeps replacing cold
      // slots, many of them tied at the minimum count.
      workload::ZipfGenerator hot(300, 0.99);
      Rng rng(seed);
      std::vector<storage::RecordKey> seen;
      std::unordered_set<storage::RecordKey> seen_set;
      for (int step = 0; step < 6000; ++step) {
        const storage::RecordKey key =
            rng.Uniform(4) == 0 ? 1000 + rng.Uniform(700) : hot.Next(rng);
        if (seen_set.insert(key).second) seen.push_back(key);
        heap.RecordAccess(0, key, step);
        oracle.RecordAccess(key);
        ASSERT_EQ(heap.tracked_keys(), oracle.tracked()) << "op " << step;
        ASSERT_EQ(heap.total_accesses(), oracle.total) << "op " << step;
        ASSERT_EQ(heap.KeyCount(key), oracle.KeyCount(key)) << "op " << step;
        if (step % 64 == 0 || step > 5900) {
          for (storage::RecordKey k : seen) {
            ASSERT_EQ(heap.KeyCount(k), oracle.KeyCount(k))
                << "key " << k << " op " << step;
          }
          const auto a = heap.TopKeys(static_cast<size_t>(top_k));
          const auto b = oracle.TopKeys(static_cast<size_t>(top_k));
          ASSERT_EQ(a.size(), b.size()) << "op " << step;
          for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].key, b[i].key) << "op " << step << " rank " << i;
            ASSERT_EQ(a[i].count, b[i].count) << "op " << step;
            ASSERT_EQ(a[i].error, b[i].error) << "op " << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Router read-through cache
// ---------------------------------------------------------------------------

TEST(PoaCacheIntegrationTest, ReadThroughPopulatesOnMissAndServesHits) {
  workload::Testbed bed(HeatOptions(10));
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(4).ImsiId();

  // Seed an attribute so attribute reads have something to find.
  BatchRequest seed;
  seed.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("cached-town")}}));
  ASSERT_TRUE(udr.router().RouteBatch(seed, 0).ok());
  Settle(bed);

  // Miss populates.
  BatchRequest first;
  first.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  BatchResult r1 = udr.router().RouteBatch(first, 0);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.outcomes[0].from_cache);
  EXPECT_EQ(r1.cache_hits, 0);

  // Second whole-record read is a hit at PoA-local cost.
  BatchRequest second;
  second.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  BatchResult r2 = udr.router().RouteBatch(second, 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.outcomes[0].from_cache);
  EXPECT_FALSE(r2.outcomes[0].stale);
  EXPECT_EQ(r2.cache_hits, 1);
  ASSERT_TRUE(r2.outcomes[0].record.has_value());

  // Attribute reads serve from the cached record with exact replica-set
  // semantics: present attr -> value, absent attr -> NotFound.
  BatchRequest attr;
  attr.Add(Operation::ReadAttribute(id, "cfu-number", ReadPreference::kNearest));
  attr.Add(Operation::ReadAttribute(id, "no-such-attr",
                                    ReadPreference::kNearest));
  BatchResult r3 = udr.router().RouteBatch(attr, 0);
  ASSERT_EQ(r3.outcomes.size(), 2u);
  EXPECT_TRUE(r3.outcomes[0].from_cache);
  ASSERT_TRUE(r3.outcomes[0].value.has_value());
  EXPECT_EQ(storage::ValueToString(*r3.outcomes[0].value), "cached-town");
  EXPECT_TRUE(r3.outcomes[1].from_cache);
  EXPECT_FALSE(r3.outcomes[1].ok());

  // Master-only reads never touch the cache (provisioning semantics).
  BatchRequest master;
  master.Add(Operation::ReadRecord(id, ReadPreference::kMasterOnly));
  BatchResult r4 = udr.router().RouteBatch(master, 0);
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4.outcomes[0].from_cache);

  EXPECT_GT(udr.metrics().Get("router.cache.hits"), 0);
  EXPECT_GT(udr.metrics().Get("router.cache.insertions"), 0);
}

TEST(PoaCacheIntegrationTest, AdmissionFilterRequiresSketchHeat) {
  workload::TestbedOptions o = HeatOptions(10);
  o.udr.poa_cache_admit_min = 3;  // Cache only keys seen >= 3 times.
  workload::Testbed bed(o);
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(2).ImsiId();
  Settle(bed);

  for (int read = 1; read <= 4; ++read) {
    BatchRequest b;
    b.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
    BatchResult r = udr.router().RouteBatch(b, 0);
    ASSERT_TRUE(r.ok()) << "read " << read;
    // Reads 1 and 2 leave the sketch below the admission bar; read 3 is the
    // first whose flush populates, so read 4 is the first hit.
    EXPECT_EQ(r.outcomes[0].from_cache, read >= 4) << "read " << read;
  }
}

TEST(PoaCacheIntegrationTest, CommittedWritesInvalidateSynchronously) {
  workload::Testbed bed(HeatOptions(10));
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(1).ImsiId();

  BatchRequest seed;
  seed.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("before")}}));
  ASSERT_TRUE(udr.router().RouteBatch(seed, 0).ok());
  Settle(bed);

  // Populate, then verify the hit serves the pre-write value.
  BatchRequest warm;
  warm.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  warm.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  BatchResult w = udr.router().RouteBatch(warm, 0);
  ASSERT_TRUE(w.ok());

  // Write + read in ONE batch: the write's flush invalidates before the read
  // flush runs, so the read can never see the cached pre-write record.
  BatchRequest rw;
  rw.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("after")}}));
  rw.Add(Operation::ReadAttribute(id, "cfu-number",
                                  ReadPreference::kMasterOnly));
  BatchResult r = udr.router().RouteBatch(rw, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.outcomes[1].value.has_value());
  EXPECT_EQ(storage::ValueToString(*r.outcomes[1].value), "after");

  // The next nearest read must re-populate (miss), not serve "before".
  Settle(bed);
  BatchRequest again;
  again.Add(Operation::ReadAttribute(id, "cfu-number",
                                     ReadPreference::kNearest));
  BatchResult r2 = udr.router().RouteBatch(again, 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.outcomes[0].from_cache);
  ASSERT_TRUE(r2.outcomes[0].value.has_value());
  EXPECT_EQ(storage::ValueToString(*r2.outcomes[0].value), "after");
  EXPECT_GT(udr.metrics().Get("router.cache.invalidations"), 0);
}

TEST(PoaCacheIntegrationTest, DeleteInvalidatesBeforeTheNextRead) {
  // Under hash placement a read of a deleted subscriber still RESOLVES (the
  // ring is oblivious to deletion), so serving its cached record would
  // resurrect deleted state. The delete path must invalidate synchronously.
  workload::Testbed bed(HeatOptions(10));
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(6).ImsiId();
  Settle(bed);

  // Two batches: reads within one batch share a single read flush, so the
  // populate lands between batches, not between ops.
  BatchRequest miss;
  miss.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  ASSERT_TRUE(udr.router().RouteBatch(miss, 0).ok());
  BatchRequest hit;
  hit.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  BatchResult w = udr.router().RouteBatch(hit, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.outcomes[0].from_cache);

  ASSERT_TRUE(udr.DeleteSubscriber(id, 0).ok());

  BatchRequest after;
  after.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
  BatchResult r = udr.router().RouteBatch(after, 0);
  EXPECT_FALSE(r.outcomes[0].ok());
  EXPECT_FALSE(r.outcomes[0].from_cache);
}

// ---------------------------------------------------------------------------
// Property test: cache consistency under churn
// ---------------------------------------------------------------------------

// Random interleaving of writes, reads, deletes/recreates and runtime
// split/merge churn. Invariant under test (the cache staleness policy): a
// cache-served read ALWAYS equals the latest committed master state — the
// cache may never be staler than a fresh non-stale kNearest read. Non-cache
// slave reads may be stale (that window belongs to the replica set, not the
// cache) and are only checked when the outcome reports itself fresh.
TEST(CacheConsistencyPropertyTest, CacheNeverServesStaleUnderChurn) {
  const int64_t kSubs = 60;
  workload::Testbed bed(HeatOptions(kSubs));
  auto& udr = bed.udr();
  Settle(bed);

  Rng rng(11);
  // Oracle: committed value of the test attribute per subscriber (absent =>
  // a fresh read must be attribute-NotFound), plus liveness.
  std::unordered_map<uint64_t, std::string> oracle;
  std::unordered_set<uint64_t> dead;
  std::vector<uint32_t> merge_candidates;
  int64_t cache_checked = 0;

  for (int iter = 0; iter < 600; ++iter) {
    bed.clock().Advance(Millis(1));

    // Churn injections at fixed points: two runtime splits, one merge.
    if (iter == 150 || iter == 300) {
      uint32_t hottest = 0;
      int64_t best = -1;
      auto& map = udr.partition_map();
      for (uint32_t p = 0; p < map.partition_count(); ++p) {
        if (map.partition_retired(p) || map.partition_draining(p)) continue;
        if (map.population(p) > best) {
          best = map.population(p);
          hottest = p;
        }
      }
      auto sibling = udr.StartSplit(hottest);
      ASSERT_TRUE(sibling.ok()) << sibling.status().ToString();
      merge_candidates.push_back(*sibling);
      Settle(bed);
    }
    if (iter == 450) {
      ASSERT_FALSE(merge_candidates.empty());
      ASSERT_TRUE(udr.StartMerge(merge_candidates.front()).ok());
      udr.PumpEvents();  // Retires the drained sibling.
      Settle(bed);
    }

    const uint64_t s = rng.Uniform(kSubs);
    Identity id = bed.factory().Make(s).ImsiId();
    const double pick = rng.NextDouble();

    if (pick < 0.40) {
      // Write + immediate nearest read: read-your-writes through the cache.
      const std::string v = "v" + std::to_string(iter);
      BatchRequest b;
      b.Add(Operation::Write(
          id, {{Mutation::Kind::kSet, "heat-prop", v}}));
      b.Add(Operation::ReadAttribute(id, "heat-prop",
                                     ReadPreference::kNearest));
      BatchResult r = udr.router().RouteBatch(b, 0);
      if (dead.count(s)) {
        EXPECT_FALSE(r.outcomes[0].ok());
        continue;
      }
      ASSERT_TRUE(r.outcomes[0].ok()) << "acked-write loss at iter " << iter;
      oracle[s] = v;
      // The kNearest follow-up may land on a lagging slave — that staleness
      // belongs to the replica-set policy. But a cache-served or fresh
      // outcome MUST observe the write just committed in this batch.
      const OpOutcome& rr = r.outcomes[1];
      if (rr.from_cache || !rr.stale) {
        ASSERT_TRUE(rr.ok()) << "iter " << iter << ": "
                             << rr.status.ToString();
        EXPECT_EQ(storage::ValueToString(*rr.value), v)
            << "read-your-writes violated at iter " << iter
            << (rr.from_cache ? " (from cache)" : " (fresh replica)");
      }
    } else if (pick < 0.90) {
      // Whole-record read (populates) + attribute read (may hit).
      BatchRequest b;
      b.Add(Operation::ReadRecord(id, ReadPreference::kNearest));
      b.Add(Operation::ReadAttribute(id, "heat-prop",
                                     ReadPreference::kNearest));
      BatchResult r = udr.router().RouteBatch(b, 0);
      if (dead.count(s)) {
        // A lagging slave may still serve the deleted record — but only
        // flagged stale, and NEVER from the cache (the delete invalidated
        // it synchronously).
        for (const OpOutcome& out : r.outcomes) {
          EXPECT_FALSE(out.from_cache) << "cache resurrected a deleted "
                                          "record at iter " << iter;
          if (out.ok()) EXPECT_TRUE(out.stale) << "iter " << iter;
        }
        continue;
      }
      const OpOutcome& attr = r.outcomes[1];
      auto want = oracle.find(s);
      if (attr.from_cache) ++cache_checked;
      if (attr.from_cache || !attr.stale) {
        // Fresh (or cache-served, which must behave fresh): exact match.
        if (want == oracle.end()) {
          EXPECT_FALSE(attr.ok()) << "iter " << iter;
        } else {
          ASSERT_TRUE(attr.ok()) << "iter " << iter << ": "
                                 << attr.status.ToString();
          EXPECT_EQ(storage::ValueToString(*attr.value), want->second)
              << "stale read at iter " << iter
              << (attr.from_cache ? " (from cache)" : " (fresh replica)");
        }
      }
    } else {
      // Delete, then recreate on a later iteration (keeps population flat
      // across the run apart from the churn windows).
      if (dead.count(s) == 0) {
        ASSERT_TRUE(udr.DeleteSubscriber(id, 0).ok()) << "iter " << iter;
        oracle.erase(s);
        dead.insert(s);
      } else {
        ASSERT_TRUE(
            udr.CreateSubscriber(bed.factory().MakeSpec(s), 0).ok());
        dead.erase(s);
        bed.udr().CatchUpAllPartitions();
      }
    }
  }

  EXPECT_EQ(udr.runtime_splits(), 2);
  EXPECT_EQ(udr.runtime_merges(), 1);
  EXPECT_GT(cache_checked, 0) << "churn run never exercised a cache hit";
  EXPECT_GT(udr.metrics().Get("router.cache.hits"), 0);
}

// ---------------------------------------------------------------------------
// Runtime split / merge
// ---------------------------------------------------------------------------

int64_t TotalPopulation(workload::Testbed& bed) {
  auto& map = bed.udr().partition_map();
  int64_t total = 0;
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    total += map.population(p);
  }
  return total;
}

TEST(RuntimeSplitMergeTest, SplitConservesPopulationAndAckedWrites) {
  const int64_t kSubs = 200;
  workload::Testbed bed(HeatOptions(kSubs));
  auto& udr = bed.udr();
  auto& map = udr.partition_map();
  Settle(bed);

  // Ack a marker write on every subscriber BEFORE the split: the acceptance
  // bar is zero acked-write loss across the move.
  for (int64_t i = 0; i < kSubs; ++i) {
    BatchRequest b;
    b.Add(Operation::Write(
        bed.factory().Make(i).ImsiId(),
        {{Mutation::Kind::kSet, "split-marker",
          std::string("m") + std::to_string(i)}}));
    ASSERT_TRUE(udr.router().RouteBatch(b, 0).ok()) << "subscriber " << i;
  }

  const int64_t total_before = TotalPopulation(bed);
  EXPECT_EQ(total_before, kSubs);

  uint32_t parent = 0;
  int64_t best = -1;
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    if (map.population(p) > best) {
      best = map.population(p);
      parent = p;
    }
  }
  const int64_t parent_before = map.population(parent);

  auto sibling_or = udr.StartSplit(parent);
  ASSERT_TRUE(sibling_or.ok()) << sibling_or.status().ToString();
  const uint32_t sibling = *sibling_or;

  // Half the parent's ring arcs moved: population is conserved exactly and
  // the sibling actually received subscribers.
  EXPECT_EQ(TotalPopulation(bed), total_before);
  EXPECT_EQ(map.population(parent) + map.population(sibling), parent_before);
  EXPECT_GE(map.population(sibling), 1);
  EXPECT_EQ(map.parent_of(sibling), static_cast<int>(parent));
  EXPECT_EQ(udr.runtime_splits(), 1);
  Settle(bed);

  // Every subscriber still resolves, routes to its authoritative partition
  // and reads back its acked marker.
  for (int64_t i = 0; i < kSubs; ++i) {
    Identity id = bed.factory().Make(i).ImsiId();
    RouteResult route = udr.router().Route(id, 0, RouteIntent::kRead);
    ASSERT_TRUE(route.status.ok()) << id.ToString();
    auto loc = udr.AuthoritativeLookup(id);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(route.partition, loc->partition) << id.ToString();

    BatchRequest b;
    b.Add(Operation::ReadAttribute(id, "split-marker",
                                   ReadPreference::kMasterOnly));
    BatchResult r = udr.router().RouteBatch(b, 0);
    ASSERT_TRUE(r.ok()) << "subscriber " << i;
    EXPECT_EQ(storage::ValueToString(*r.outcomes[0].value),
              "m" + std::to_string(i))
        << "acked write lost across split, subscriber " << i;
  }

  // ---- Merge the sibling back: drain, retire, nothing lost. ----
  ASSERT_TRUE(udr.StartMerge(sibling).ok());
  udr.PumpEvents();  // Unthrottled drain emptied it; this retires it.

  EXPECT_TRUE(map.partition_retired(sibling));
  EXPECT_EQ(map.population(sibling), 0);
  EXPECT_EQ(TotalPopulation(bed), total_before);
  EXPECT_EQ(udr.runtime_merges(), 1);
  Settle(bed);

  for (int64_t i = 0; i < kSubs; ++i) {
    Identity id = bed.factory().Make(i).ImsiId();
    RouteResult route = udr.router().Route(id, 0, RouteIntent::kRead);
    ASSERT_TRUE(route.status.ok()) << id.ToString();
    EXPECT_NE(route.partition, sibling) << id.ToString();

    BatchRequest b;
    b.Add(Operation::ReadAttribute(id, "split-marker",
                                   ReadPreference::kMasterOnly));
    BatchResult r = udr.router().RouteBatch(b, 0);
    ASSERT_TRUE(r.ok()) << "subscriber " << i;
    EXPECT_EQ(storage::ValueToString(*r.outcomes[0].value),
              "m" + std::to_string(i))
        << "acked write lost across merge, subscriber " << i;
  }
}

TEST(RuntimeSplitMergeTest, SplitRequiresHashPlacement) {
  workload::Testbed bed(BaseOptions(10));  // Default least-loaded placement.
  auto result = bed.udr().StartSplit(0);
  EXPECT_FALSE(result.ok());
}

TEST(RuntimeSplitMergeTest, ControllerSplitsHotAndMergesCold) {
  workload::TestbedOptions o = HeatOptions(120);
  o.udr.heat_halflife_us = Millis(5);
  o.udr.heat_split_threshold = 30.0;
  o.udr.heat_merge_threshold = 2.0;
  o.udr.heat_split_cooldown_us = Millis(1);
  o.udr.heat_max_splits = 1;
  workload::Testbed bed(o);
  auto& udr = bed.udr();
  Settle(bed);

  // Hammer one subscriber: its partition's EWMA blows past the split
  // threshold well inside one half-life.
  Identity hot = bed.factory().Make(0).ImsiId();
  for (int i = 0; i < 100; ++i) {
    RouteResult r = udr.router().Route(hot, 0, RouteIntent::kRead);
    ASSERT_TRUE(r.status.ok());
  }
  udr.PumpEvents();
  EXPECT_EQ(udr.runtime_splits(), 1);
  ASSERT_EQ(udr.heat_siblings().size(), 1u);
  const uint32_t sibling = udr.heat_siblings()[0].sibling;

  // Traffic stops; a second of idle sim-time is 200 half-lives, so the
  // sibling reads stone cold and past its cooldown.
  bed.clock().Advance(Seconds(1));
  udr.PumpEvents();  // Begins the merge (and drains it, unthrottled).
  udr.PumpEvents();  // Retires the drained sibling.
  EXPECT_EQ(udr.runtime_merges(), 1);
  EXPECT_TRUE(udr.partition_map().partition_retired(sibling));
  EXPECT_GT(udr.metrics().Get("udr.heat.splits"), 0);
  EXPECT_GT(udr.metrics().Get("udr.heat.merges"), 0);
}

}  // namespace
}  // namespace udr::routing
