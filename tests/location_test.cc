// Unit tests for src/location: identities, the three location stage
// realizations and their cost/availability models.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "location/identity.h"
#include "location/identity_index.h"
#include "location/location_stage.h"

namespace udr::location {
namespace {

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

TEST(IdentityTest, TypeNames) {
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImsi), "IMSI");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kMsisdn), "MSISDN");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImpu), "IMPU");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImpi), "IMPI");
}

TEST(IdentityTest, EqualityAndOrdering) {
  Identity a{IdentityType::kImsi, "214"};
  Identity b{IdentityType::kImsi, "214"};
  Identity c{IdentityType::kMsisdn, "214"};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);  // Type ordering.
}

TEST(IdentityTest, HashDistinguishesTypeAndValue) {
  Identity a{IdentityType::kImsi, "214"};
  Identity b{IdentityType::kMsisdn, "214"};
  Identity c{IdentityType::kImsi, "215"};
  EXPECT_NE(HashIdentity(a), HashIdentity(b));
  EXPECT_NE(HashIdentity(a), HashIdentity(c));
  EXPECT_EQ(HashIdentity(a), HashIdentity(Identity{IdentityType::kImsi, "214"}));
}

TEST(IdentityTest, ToStringIncludesType) {
  Identity a{IdentityType::kImpu, "sip:x"};
  EXPECT_EQ(a.ToString(), "IMPU:sip:x");
}

// ---------------------------------------------------------------------------
// ProvisionedLocationStage
// ---------------------------------------------------------------------------

TEST(ProvisionedStageTest, BindResolveUnbind) {
  BindingSet bindings;
  ProvisionedLocationStage stage(&bindings);
  Identity id{IdentityType::kImsi, "214050000000001"};
  LocationEntry entry{42, 3};
  bindings.Put(id, entry);
  ResolveResult r = stage.Resolve(id, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.entry, entry);
  EXPECT_GT(r.cost, 0);
  ASSERT_TRUE(bindings.Erase(id));
  EXPECT_TRUE(stage.Resolve(id, 0).status.IsNotFound());
  EXPECT_FALSE(bindings.Erase(id));
}

TEST(ProvisionedStageTest, SupportsAllIdentityIndexes) {
  BindingSet bindings;
  ProvisionedLocationStage stage(&bindings);
  LocationEntry e{1, 0};
  bindings.Put({IdentityType::kImsi, "214"}, e);
  bindings.Put({IdentityType::kMsisdn, "+34600"}, e);
  bindings.Put({IdentityType::kImpu, "sip:a"}, e);
  bindings.Put({IdentityType::kImpi, "a@realm"}, e);
  EXPECT_EQ(stage.EntryCount(), 4);
  // Same value under different types resolves independently.
  EXPECT_TRUE(stage.Resolve({IdentityType::kImsi, "214"}, 0).status.ok());
  EXPECT_TRUE(
      stage.Resolve({IdentityType::kMsisdn, "214"}, 0).status.IsNotFound());
}

TEST(ProvisionedStageTest, LookupCostGrowsLogarithmically) {
  LocationCostModel model;
  model.map_base = Micros(2);
  model.map_per_log2 = Micros(1);
  BindingSet bindings;
  ProvisionedLocationStage stage(&bindings, model);
  LocationEntry e{1, 0};
  for (int i = 0; i < 1024; ++i) {
    bindings.Put({IdentityType::kImsi, "s" + std::to_string(i)}, e);
  }
  MicroDuration cost_1k = stage.Resolve({IdentityType::kImsi, "s5"}, 0).cost;
  for (int i = 1024; i < 65536; ++i) {
    bindings.Put({IdentityType::kImsi, "s" + std::to_string(i)}, e);
  }
  MicroDuration cost_64k = stage.Resolve({IdentityType::kImsi, "s5"}, 0).cost;
  // log2(64k)=16 vs log2(1k)=10: +6 comparisons at 1us each.
  EXPECT_EQ(cost_64k - cost_1k, Micros(6));
}

TEST(ProvisionedStageTest, MemoryGrowsPerEntry) {
  BindingSet bindings;
  ProvisionedLocationStage stage(&bindings);
  EXPECT_EQ(stage.ApproxBytes(), 0);
  bindings.Put({IdentityType::kImsi, "214050000000001"}, {1, 0});
  int64_t one = stage.ApproxBytes();
  EXPECT_GT(one, 64);
  bindings.Put({IdentityType::kMsisdn, "+34600000001"}, {1, 0});
  EXPECT_GT(stage.ApproxBytes(), one);
}

TEST(ProvisionedStageTest, ScaleOutSyncWindowBlocksResolution) {
  LocationCostModel model;
  model.sync_per_entry = Micros(2);
  BindingSet bindings;
  ProvisionedLocationStage peer(&bindings, model);
  for (int i = 0; i < 1000; ++i) {
    bindings.Put({IdentityType::kImsi, "s" + std::to_string(i)}, {1, 0});
  }
  ProvisionedLocationStage fresh(&bindings, model);
  MicroDuration window = fresh.BeginSyncFrom(peer, /*now=*/Seconds(10));
  EXPECT_EQ(window, 1000 * Micros(2));
  EXPECT_TRUE(fresh.Syncing(Seconds(10)));
  // During the window: Unavailable (the §3.4.2 R hit).
  EXPECT_TRUE(fresh.Resolve({IdentityType::kImsi, "s5"}, Seconds(10))
                  .status.IsUnavailable());
  // After: fully synced.
  MicroTime done = Seconds(10) + window;
  EXPECT_FALSE(fresh.Syncing(done));
  EXPECT_TRUE(fresh.Resolve({IdentityType::kImsi, "s5"}, done).status.ok());
  EXPECT_EQ(fresh.EntryCount(), 1000);
}

TEST(ProvisionedStageTest, SyncWindowScalesWithEntries) {
  BindingSet small_set, big_set;
  ProvisionedLocationStage small(&small_set), big(&big_set),
      fresh1(&small_set), fresh2(&big_set);
  for (int i = 0; i < 100; ++i) {
    small_set.Put({IdentityType::kImsi, "s" + std::to_string(i)}, {1, 0});
  }
  for (int i = 0; i < 10000; ++i) {
    big_set.Put({IdentityType::kImsi, "b" + std::to_string(i)}, {1, 0});
  }
  EXPECT_EQ(fresh2.BeginSyncFrom(big, 0) / fresh1.BeginSyncFrom(small, 0), 100);
}

// ---------------------------------------------------------------------------
// IdentityIndex (the flat host index behind every identity map)
// ---------------------------------------------------------------------------

/// Identity value `n` of `type`, shaped like the real numbering plans: 15
/// IMSI digits, a shorter MSISDN, SIP URIs past the 15-char SSO boundary,
/// and an IMPI that is empty for n == 0.
std::string IdentityValue(IdentityType type, uint64_t n) {
  switch (type) {
    case IdentityType::kImsi:
      return std::to_string(214050000000000ULL + n);
    case IdentityType::kMsisdn:
      return "+346" + std::to_string(10000000 + n);
    case IdentityType::kImpu:
      return "sip:+346" + std::to_string(n) + "@ims.mnc005.mcc214.org";
    case IdentityType::kImpi:
      return n == 0 ? std::string() : "u" + std::to_string(n) + "@realm";
  }
  return {};
}

TEST(IdentityIndexTest, StageMatchesMapOracleOnAllIdentityTypes) {
  Rng rng(1616);
  LocationCostModel model;
  BindingSet bindings;
  ProvisionedLocationStage stage(&bindings, model);
  std::map<Identity, LocationEntry> oracle;
  for (int step = 0; step < 40000; ++step) {
    const auto type =
        static_cast<IdentityType>(rng.Uniform(kIdentityTypeCount));
    const Identity id{type, IdentityValue(type, rng.Uniform(400))};
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // Bind, or rebind when already bound.
        LocationEntry entry{rng.Next(),
                            static_cast<uint32_t>(rng.Uniform(64))};
        bindings.Put(id, entry);
        oracle[id] = entry;
        break;
      }
      case 2:
        EXPECT_EQ(bindings.Erase(id), oracle.erase(id) == 1)
            << id.ToString();
        break;
      default: {
        ResolveResult r = stage.Resolve(id, 0);
        auto it = oracle.find(id);
        if (it == oracle.end()) {
          EXPECT_TRUE(r.status.IsNotFound()) << id.ToString();
        } else {
          ASSERT_TRUE(r.status.ok()) << id.ToString();
          EXPECT_EQ(r.entry, it->second) << id.ToString();
        }
        break;
      }
    }
    ASSERT_EQ(stage.EntryCount(), static_cast<int64_t>(oracle.size()));
  }

  // The modelled RAM is the unchanged per-binding formula.
  int64_t expected_bytes = 0;
  for (const auto& [id, entry] : oracle) {
    expected_bytes +=
        model.bytes_per_entry + static_cast<int64_t>(id.value.size());
  }
  EXPECT_EQ(stage.ApproxBytes(), expected_bytes);

  // A scale-out stage resolves exactly the peer's bindings once its
  // modelled copy window closes.
  ProvisionedLocationStage copy(&bindings, model);
  MicroDuration window = copy.BeginSyncFrom(stage, 0);
  EXPECT_EQ(copy.EntryCount(), stage.EntryCount());
  EXPECT_EQ(copy.ApproxBytes(), stage.ApproxBytes());
  for (int t = 0; t < kIdentityTypeCount; ++t) {
    const auto type = static_cast<IdentityType>(t);
    for (uint64_t n = 0; n < 400; ++n) {
      const Identity id{type, IdentityValue(type, n)};
      ResolveResult r = copy.Resolve(id, window);
      auto it = oracle.find(id);
      if (it == oracle.end()) {
        EXPECT_TRUE(r.status.IsNotFound()) << id.ToString();
      } else {
        ASSERT_TRUE(r.status.ok()) << id.ToString();
        EXPECT_EQ(r.entry, it->second) << id.ToString();
      }
    }
  }
}

/// Index content as a map, via ForEach.
std::map<std::string, LocationEntry> Contents(const IdentityIndex& index) {
  std::map<std::string, LocationEntry> out;
  index.ForEach([&out](std::string_view value, const LocationEntry& entry) {
    EXPECT_TRUE(out.emplace(std::string(value), entry).second);
  });
  return out;
}

TEST(IdentityIndexTest, BackwardShiftDeleteWrapsPastTheEnd) {
  // Eight slots hold up to six bindings. Pick values whose home is the last
  // slot and one whose home is slot 0, so their probe run wraps around.
  std::vector<std::string> last_home;
  std::string first_home;
  for (uint64_t n = 0; last_home.size() < 3 || first_home.empty(); ++n) {
    std::string v = IdentityValue(IdentityType::kImsi, n);
    uint32_t home = IdentityIndex::Hash(v) & 7;
    if (home == 7 && last_home.size() < 3) last_home.push_back(v);
    if (home == 0 && first_home.empty()) first_home = v;
  }
  IdentityIndex index;
  index.Put(last_home[0], {1, 0});   // Slot 7.
  index.Put(last_home[1], {2, 0});   // Wraps to slot 0.
  index.Put(first_home, {3, 0});     // Home 0, displaced to slot 1.
  index.Put(last_home[2], {4, 0});   // Wraps to slot 2.
  ASSERT_EQ(index.slot_count(), 8u);

  // Erasing the run's head shifts every wrapped member back across the end.
  ASSERT_TRUE(index.Erase(last_home[0]));
  EXPECT_FALSE(index.Find(last_home[0]));
  EXPECT_EQ(index.Find(last_home[1]), (LocationEntry{2, 0}));
  EXPECT_EQ(index.Find(first_home), (LocationEntry{3, 0}));
  EXPECT_EQ(index.Find(last_home[2]), (LocationEntry{4, 0}));
  ASSERT_TRUE(index.Erase(first_home));
  EXPECT_EQ(index.Find(last_home[1]), (LocationEntry{2, 0}));
  EXPECT_EQ(index.Find(last_home[2]), (LocationEntry{4, 0}));
  EXPECT_FALSE(index.Erase(first_home));
  EXPECT_EQ(index.size(), 2u);

  // Random churn that never outgrows the eight slots, against an oracle.
  Rng rng(77);
  std::map<std::string, LocationEntry> oracle = Contents(index);
  std::vector<std::string> universe = last_home;
  universe.push_back(first_home);
  universe.push_back(IdentityValue(IdentityType::kImpu, 1));
  universe.push_back(IdentityValue(IdentityType::kImpi, 0));  // Empty value.
  for (int step = 0; step < 5000; ++step) {
    const std::string& v = universe[rng.Uniform(universe.size())];
    if (rng.Uniform(2) == 0) {
      LocationEntry entry{rng.Next(), static_cast<uint32_t>(step)};
      index.Put(v, entry);
      oracle[v] = entry;
    } else {
      EXPECT_EQ(index.Erase(v), oracle.erase(v) == 1);
    }
    ASSERT_EQ(index.slot_count(), 8u);
    ASSERT_EQ(Contents(index), oracle) << "step " << step;
    int64_t key_bytes = 0;
    for (const auto& [value, entry] : oracle) {
      key_bytes += static_cast<int64_t>(value.size());
      EXPECT_EQ(index.Find(value), entry);
    }
    EXPECT_EQ(index.key_bytes(), key_bytes);
  }
}

// ---------------------------------------------------------------------------
// CachedLocationStage
// ---------------------------------------------------------------------------

class CachedStageTest : public ::testing::Test {
 protected:
  CachedStageTest()
      : stage_(
            [this](const Identity& id) -> StatusOr<LocationEntry> {
              auto it = truth_.find(id.value);
              if (it == truth_.end()) return Status::NotFound("no");
              return it->second;
            },
            [this]() { return se_count_; }, model_) {}

  LocationCostModel model_;
  std::map<std::string, LocationEntry> truth_;
  int se_count_ = 8;
  CachedLocationStage stage_;
};

TEST_F(CachedStageTest, MissBroadcastsThenCaches) {
  truth_["214"] = {7, 2};
  ResolveResult miss = stage_.Resolve({IdentityType::kImsi, "214"}, 0);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_TRUE(miss.cache_miss);
  EXPECT_EQ(miss.entry.key, 7u);
  EXPECT_EQ(miss.cost, model_.broadcast_rtt + 8 * model_.broadcast_per_se);
  ResolveResult hit = stage_.Resolve({IdentityType::kImsi, "214"}, 0);
  EXPECT_FALSE(hit.cache_miss);
  EXPECT_EQ(hit.cost, model_.map_base);
  EXPECT_EQ(stage_.cache_hits(), 1);
  EXPECT_EQ(stage_.cache_misses(), 1);
}

TEST_F(CachedStageTest, MissCostGrowsWithSeCount) {
  truth_["a"] = {1, 0};
  MicroDuration cost8 = stage_.Resolve({IdentityType::kImsi, "a"}, 0).cost;
  stage_.InvalidateAll();
  se_count_ = 256;
  MicroDuration cost256 = stage_.Resolve({IdentityType::kImsi, "a"}, 0).cost;
  EXPECT_EQ(cost256 - cost8, 248 * model_.broadcast_per_se);
}

TEST_F(CachedStageTest, UnknownIdentityStaysUncached) {
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "ghost"}, 0);
  EXPECT_TRUE(r.status.IsNotFound());
  EXPECT_EQ(stage_.EntryCount(), 0);
}

TEST_F(CachedStageTest, InvalidateAllEmptiesCache) {
  truth_["a"] = {1, 0};
  stage_.Resolve({IdentityType::kImsi, "a"}, 0);
  EXPECT_EQ(stage_.EntryCount(), 1);
  stage_.InvalidateAll();
  EXPECT_EQ(stage_.EntryCount(), 0);
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "a"}, 0);
  EXPECT_TRUE(r.cache_miss);
}

TEST_F(CachedStageTest, BindSeedsCache) {
  ASSERT_TRUE(stage_.Bind({IdentityType::kImsi, "x"}, {5, 1}).ok());
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "x"}, 0);
  EXPECT_FALSE(r.cache_miss);
  EXPECT_EQ(r.entry.key, 5u);
}

// ---------------------------------------------------------------------------
// ConsistentHashLocationStage
// ---------------------------------------------------------------------------

TEST(ConsistentHashStageTest, ResolveIsConstantCostAndStateless) {
  LocationCostModel model;
  ConsistentHashLocationStage stage(16, 64, model);
  ResolveResult r = stage.Resolve({IdentityType::kImsi, "214"}, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cost, model.hash_lookup);
  EXPECT_EQ(stage.EntryCount(), 0);  // No per-subscriber state.
  EXPECT_LT(r.entry.partition, 16u);
}

TEST(ConsistentHashStageTest, DeterministicPlacement) {
  ConsistentHashLocationStage a(16), b(16);
  Identity id{IdentityType::kImsi, "214050000000042"};
  EXPECT_EQ(a.PartitionOf(id), b.PartitionOf(id));
}

TEST(ConsistentHashStageTest, SpreadsLoadAcrossPartitions) {
  ConsistentHashLocationStage stage(8, 128);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[stage.PartitionOf({IdentityType::kImsi, "s" + std::to_string(i)})];
  }
  for (int c : counts) {
    EXPECT_GT(c, 8000 / 8 / 3) << "partition starved";
    EXPECT_LT(c, 8000 / 8 * 3) << "partition overloaded";
  }
}

TEST(ConsistentHashStageTest, DifferentIdentityTypesHashDifferently) {
  // The paper's objection: each identity of a subscriber lands somewhere
  // else, so the data would need one full replica per identity type.
  ConsistentHashLocationStage stage(64, 128);
  int diverging = 0;
  for (int i = 0; i < 200; ++i) {
    std::string v = std::to_string(1000000 + i);
    if (stage.PartitionOf({IdentityType::kImsi, v}) !=
        stage.PartitionOf({IdentityType::kMsisdn, v})) {
      ++diverging;
    }
  }
  EXPECT_GT(diverging, 150);
  EXPECT_EQ(stage.RequiredDataReplicas(), kIdentityTypeCount);
}

TEST(ConsistentHashStageTest, RejectsSelectivePlacement) {
  ConsistentHashLocationStage stage(16);
  Identity id{IdentityType::kImsi, "214"};
  uint32_t natural = stage.PartitionOf(id);
  LocationEntry wrong{1, (natural + 1) % 16};
  EXPECT_TRUE(stage.Bind(id, wrong).IsFailedPrecondition());
  LocationEntry right{1, natural};
  EXPECT_TRUE(stage.Bind(id, right).ok());
  EXPECT_FALSE(stage.SupportsSelectivePlacement());
}

TEST(ConsistentHashStageTest, MemoryIsRingOnly) {
  ConsistentHashLocationStage small(4, 16), large(256, 128);
  EXPECT_EQ(small.ApproxBytes(), 4 * 16 * 12);
  EXPECT_EQ(large.ApproxBytes(), 256 * 128 * 12);
}

}  // namespace
}  // namespace udr::location
