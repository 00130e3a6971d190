// Unit tests for src/udr: blade cluster limits, UDR NF deployment,
// partition commissioning, the LDAP data path (add/search/modify/delete/
// compare), selective placement, scale-out sync windows and capacity
// aggregation, and the commit log's exact-size write sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "sim/network.h"
#include "udr/capacity_model.h"
#include "udr/udr_nf.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr::udrnf {
namespace {

using ldap::LdapOp;
using ldap::LdapRequest;
using ldap::LdapResult;
using ldap::LdapResultCode;
using location::Identity;
using location::IdentityType;

// ---------------------------------------------------------------------------
// BladeCluster
// ---------------------------------------------------------------------------

TEST(BladeClusterTest, EnforcesSeLimit) {
  sim::SimClock clock;
  BladeCluster cluster(0, 0, &clock);
  storage::StorageElementConfig cfg;
  for (int i = 0; i < kMaxStorageElementsPerCluster; ++i) {
    ASSERT_TRUE(cluster.AddStorageElement(cfg, i).ok());
  }
  EXPECT_TRUE(cluster.AddStorageElement(cfg, 99).status().IsResourceExhausted());
  EXPECT_EQ(cluster.se_count(), 16u);
}

TEST(BladeClusterTest, NamesElementsAfterCluster) {
  sim::SimClock clock;
  BladeCluster cluster(3, 1, &clock);
  storage::StorageElementConfig cfg;
  auto se = cluster.AddStorageElement(cfg, 0);
  ASSERT_TRUE(se.ok());
  EXPECT_EQ((*se)->name(), "c3-se0");
  EXPECT_EQ((*se)->site(), 1u);
}

TEST(BladeClusterTest, EnforcesLdapLimitAndAutoRegisters) {
  sim::SimClock clock;
  BladeCluster cluster(0, 0, &clock);
  ldap::LdapServerConfig cfg;
  for (int i = 0; i < kMaxLdapServersPerCluster; ++i) {
    ASSERT_TRUE(cluster.AddLdapServer(cfg).ok());
  }
  EXPECT_TRUE(cluster.AddLdapServer(cfg).status().IsResourceExhausted());
  EXPECT_EQ(cluster.balancer().server_count(), 32u);
  // 32 servers x 1e6 ops/s each.
  EXPECT_EQ(cluster.LdapOpsPerSecond(), 32'000'000);
}

// ---------------------------------------------------------------------------
// UdrNf deployment
// ---------------------------------------------------------------------------

class UdrNfTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(UdrConfig()); }

  void Build(UdrConfig cfg) {
    cfg.se_per_cluster = 2;
    cfg.ldap_per_cluster = 2;
    sim::LatencyConfig lc;
    lc.lan_one_way = Micros(100);
    lc.backbone_one_way = Millis(15);
    network_ = std::make_unique<sim::Network>(sim::Topology(3, lc), &clock_);
    udr_ = std::make_unique<UdrNf>(cfg, network_.get());
    for (uint32_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(udr_->AddCluster(s).ok());
    }
    udr_->CommissionPartitions();
  }

  UdrNf::CreateSpec SpecFor(const std::string& imsi, const std::string& msisdn) {
    UdrNf::CreateSpec spec;
    spec.identities.push_back({IdentityType::kImsi, imsi});
    spec.identities.push_back({IdentityType::kMsisdn, msisdn});
    spec.profile.Set("imsi", imsi, 0, 0);
    spec.profile.Set("msisdn", msisdn, 0, 0);
    spec.profile.Set("authkey", std::string("deadbeef"), 0, 0);
    spec.profile.Set("odb-premium-barred", false, 0, 0);
    return spec;
  }

  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<UdrNf> udr_;
};

TEST_F(UdrNfTest, DeploymentShape) {
  EXPECT_EQ(udr_->cluster_count(), 3u);
  EXPECT_EQ(udr_->TotalStorageElements(), 6);
  EXPECT_EQ(udr_->partition_count(), 6u);  // One primary per SE.
  for (uint32_t c = 0; c < udr_->cluster_count(); ++c) {
    EXPECT_EQ(udr_->cluster(c)->site(), c);  // One cluster per site.
  }
}

TEST_F(UdrNfTest, PartitionsHaveGeodisperseSecondaries) {
  for (size_t p = 0; p < udr_->partition_count(); ++p) {
    replication::ReplicaSet* rs = udr_->partition(static_cast<uint32_t>(p));
    ASSERT_EQ(rs->replica_count(), 3u);
    // All three copies on distinct sites.
    std::set<sim::SiteId> sites;
    for (uint32_t r = 0; r < 3; ++r) sites.insert(rs->replica_site(r));
    EXPECT_EQ(sites.size(), 3u) << "partition " << p;
  }
}

TEST_F(UdrNfTest, CreateSubscriberBindsAllIdentities) {
  auto outcome = udr_->CreateSubscriber(SpecFor("214", "+34600"), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kImsi, "214"}).ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kMsisdn, "+34600"}).ok());
  // Both identities resolve to the same record everywhere.
  for (uint32_t s = 0; s < 3; ++s) {
    auto a = udr_->Locate({IdentityType::kImsi, "214"}, s);
    auto b = udr_->Locate({IdentityType::kMsisdn, "+34600"}, s);
    ASSERT_TRUE(a.status.ok()) << s;
    ASSERT_TRUE(b.status.ok()) << s;
    EXPECT_EQ(a.entry.key, b.entry.key);
  }
  EXPECT_EQ(udr_->SubscriberCount(), 1);
}

TEST_F(UdrNfTest, DuplicateIdentityRejected) {
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  auto dup = udr_->CreateSubscriber(SpecFor("214", "+34601"), 0);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST_F(UdrNfTest, SelectivePlacementPinsMaster) {
  UdrNf::CreateSpec spec = SpecFor("214", "+34600");
  spec.home_site = 2;
  auto outcome = udr_->CreateSubscriber(spec, 0);
  ASSERT_TRUE(outcome.ok());
  replication::ReplicaSet* rs = udr_->partition(outcome->entry.partition);
  EXPECT_EQ(rs->master_site(), 2u);
}

TEST_F(UdrNfTest, RoundRobinPlacementBalances) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(udr_
                    ->CreateSubscriber(SpecFor("i" + std::to_string(i),
                                               "m" + std::to_string(i)),
                                       0)
                    .ok());
  }
  // 12 subscribers over 6 partitions: 2 each under least-loaded placement.
  std::map<uint32_t, int> per_partition;
  for (int i = 0; i < 12; ++i) {
    auto loc = udr_->AuthoritativeLookup({IdentityType::kImsi,
                                          "i" + std::to_string(i)});
    ASSERT_TRUE(loc.ok());
    ++per_partition[loc->partition];
  }
  EXPECT_EQ(per_partition.size(), 6u);
  for (const auto& [p, n] : per_partition) EXPECT_EQ(n, 2) << "partition " << p;
}

TEST_F(UdrNfTest, DeleteSubscriberUnbindsEverything) {
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  ASSERT_TRUE(udr_->DeleteSubscriber({IdentityType::kImsi, "214"}, 0).ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kImsi, "214"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kMsisdn, "+34600"})
                  .status()
                  .IsNotFound());
  EXPECT_EQ(udr_->SubscriberCount(), 0);
}

// ---------------------------------------------------------------------------
// LDAP data path
// ---------------------------------------------------------------------------

class UdrLdapTest : public UdrNfTest {
 protected:
  void SetUp() override {
    UdrNfTest::SetUp();
    clock_.AdvanceTo(Seconds(1));
    ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
    clock_.Advance(Seconds(1));
    udr_->CatchUpAllPartitions();
  }

  LdapResult Search(const std::string& dn_attr, const std::string& dn_value,
                    sim::SiteId site, bool master_only = false) {
    LdapRequest req;
    req.op = LdapOp::kSearch;
    req.dn = ldap::SubscriberDn(dn_attr, dn_value);
    req.master_only = master_only;
    return udr_->Submit(req, site);
  }
};

TEST_F(UdrLdapTest, BaseObjectSearchReturnsEntry) {
  LdapResult r = Search("imsi", "214", 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].record.Has("authkey"));
  EXPECT_GT(r.latency, 0);
  EXPECT_LT(r.latency, Millis(10));  // The paper's responsiveness target.
}

TEST_F(UdrLdapTest, SearchByAnyIdentityIndex) {
  EXPECT_EQ(Search("msisdn", "+34600", 1).code, LdapResultCode::kSuccess);
  EXPECT_EQ(Search("imsi", "214", 2).code, LdapResultCode::kSuccess);
}

TEST_F(UdrLdapTest, SearchUnknownSubscriberIsNoSuchObject) {
  EXPECT_EQ(Search("imsi", "999", 0).code, LdapResultCode::kNoSuchObject);
}

TEST_F(UdrLdapTest, SingleLevelSearchWithIdentityFilter) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscribersBase();
  req.scope = ldap::SearchScope::kSingleLevel;
  req.filter = "(msisdn=+34600)";
  LdapResult r = udr_->Submit(req, 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  EXPECT_EQ(r.entries.size(), 1u);
}

TEST_F(UdrLdapTest, RequestedAttrsProjection) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", "214");
  req.requested_attrs = {"msisdn"};
  LdapResult r = udr_->Submit(req, 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].record.Has("msisdn"));
  EXPECT_FALSE(r.entries[0].record.Has("authkey"));
}

TEST_F(UdrLdapTest, FilterCanExcludeEntry) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", "214");
  req.filter = "(odb-premium-barred=true)";
  LdapResult r = udr_->Submit(req, 0);
  EXPECT_EQ(r.code, LdapResultCode::kSuccess);
  EXPECT_TRUE(r.entries.empty());
}

TEST_F(UdrLdapTest, ModifyThenRead) {
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back(
      {ldap::ModType::kReplace, "odb-premium-barred", true});
  ASSERT_EQ(udr_->Submit(mod, 0).code, LdapResultCode::kSuccess);
  LdapResult r = Search("imsi", "214", 0, /*master_only=*/true);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(storage::ValueToString(*r.entries[0].record.Get("odb-premium-barred")),
            "true");
}

TEST_F(UdrLdapTest, ModifyIdentityAttributeRejected) {
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back({ldap::ModType::kReplace, "msisdn", std::string("+1")});
  EXPECT_EQ(udr_->Submit(mod, 0).code, LdapResultCode::kUnwillingToPerform);
}

TEST_F(UdrLdapTest, AddViaLdap) {
  LdapRequest add;
  add.op = LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", "215");
  add.add_entry.Set("imsi", std::string("215"), 0, 0);
  add.add_entry.Set("msisdn", std::string("+34601"), 0, 0);
  ASSERT_EQ(udr_->Submit(add, 1).code, LdapResultCode::kSuccess);
  // Read through the master copy: the local slave may not have applied the
  // entry yet (async replication).
  EXPECT_EQ(Search("msisdn", "+34601", 1, /*master_only=*/true).code,
            LdapResultCode::kSuccess);
  // Adding the same DN again: entryAlreadyExists.
  EXPECT_EQ(udr_->Submit(add, 1).code, LdapResultCode::kEntryAlreadyExists);
}

TEST_F(UdrLdapTest, AddWithHomesitePinsPlacement) {
  LdapRequest add;
  add.op = LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", "216");
  add.add_entry.Set("imsi", std::string("216"), 0, 0);
  add.add_entry.Set("homesite", int64_t{1}, 0, 0);
  ASSERT_EQ(udr_->Submit(add, 0).code, LdapResultCode::kSuccess);
  auto loc = udr_->AuthoritativeLookup({IdentityType::kImsi, "216"});
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(udr_->partition(loc->partition)->master_site(), 1u);
}

TEST_F(UdrLdapTest, DeleteViaLdap) {
  LdapRequest del;
  del.op = LdapOp::kDelete;
  del.dn = ldap::SubscriberDn("imsi", "214");
  ASSERT_EQ(udr_->Submit(del, 0).code, LdapResultCode::kSuccess);
  EXPECT_EQ(Search("imsi", "214", 0).code, LdapResultCode::kNoSuchObject);
  EXPECT_EQ(udr_->Submit(del, 0).code, LdapResultCode::kNoSuchObject);
}

TEST_F(UdrLdapTest, CompareTrueFalse) {
  LdapRequest cmp;
  cmp.op = LdapOp::kCompare;
  cmp.dn = ldap::SubscriberDn("imsi", "214");
  cmp.compare_attr = "msisdn";
  cmp.compare_value = "+34600";
  EXPECT_EQ(udr_->Submit(cmp, 0).code, LdapResultCode::kCompareTrue);
  cmp.compare_value = "+39999";
  EXPECT_EQ(udr_->Submit(cmp, 0).code, LdapResultCode::kCompareFalse);
}

TEST_F(UdrLdapTest, RemoteSubmitPaysBackboneWhenNoLocalPoa) {
  // Client at a site with a PoA: LAN leg. (All 3 sites have PoAs here, so
  // compare against a request that must reach a remote master instead.)
  LdapResult local_read = Search("imsi", "214", 0);
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back({ldap::ModType::kReplace, "cfu-number", std::string("+1")});
  // The write must travel to the master copy's site from site 2.
  LdapResult remote_write = udr_->Submit(mod, 2);
  EXPECT_EQ(remote_write.code, LdapResultCode::kSuccess);
  EXPECT_GT(remote_write.latency, local_read.latency);
}

TEST_F(UdrLdapTest, SubmitUnreachableEverythingIsUnavailable) {
  // Isolate a site that has no cluster? All sites have clusters; instead cut
  // client site 2 from ALL sites and route from site 2: the local PoA still
  // serves (same-site LAN is never partitioned).
  network_->partitions().IsolateSite(2, 3, clock_.Now(),
                                     clock_.Now() + Seconds(60));
  LdapResult r = Search("imsi", "214", 2);  // Local slave read still works.
  EXPECT_EQ(r.code, LdapResultCode::kSuccess);
}

TEST_F(UdrNfTest, PerOpReadsConsultThePoaCache) {
  // Process() is a one-request batch, so per-op Searches and Compares share
  // the pipeline's PoA read-through cache.
  UdrConfig cfg;
  cfg.poa_cache_bytes = 1 << 20;
  Build(cfg);
  clock_.AdvanceTo(Seconds(1));
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  clock_.Advance(Seconds(1));
  udr_->CatchUpAllPartitions();

  LdapRequest search;
  search.op = LdapOp::kSearch;
  search.dn = ldap::SubscriberDn("imsi", "214");
  // The admission filter wants a few sketch hits before the record enters.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(udr_->Submit(search, 0).code, LdapResultCode::kSuccess);
  }
  const int64_t search_hits = udr_->metrics().Get("router.cache.hits");
  EXPECT_GT(search_hits, 0);

  LdapRequest cmp;
  cmp.op = LdapOp::kCompare;
  cmp.dn = ldap::SubscriberDn("imsi", "214");
  cmp.compare_attr = "msisdn";
  cmp.compare_value = "+34600";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(udr_->Submit(cmp, 0).code, LdapResultCode::kCompareTrue);
  }
  EXPECT_EQ(udr_->metrics().Get("router.cache.hits"), search_hits + 3);
}

// ---------------------------------------------------------------------------
// Scale-out (§3.4.2)
// ---------------------------------------------------------------------------

TEST_F(UdrNfTest, ScaleOutSyncWindowBlocksNewPoa) {
  clock_.AdvanceTo(Seconds(1));
  // Provision some subscribers so the identity maps are non-trivial.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(udr_
                    ->CreateSubscriber(SpecFor("i" + std::to_string(i),
                                               "m" + std::to_string(i)),
                                       0)
                    .ok());
  }
  // Scale out: deploy another cluster (site 2 gets a second one). The new
  // provisioned location stage must copy all identity-map entries from a
  // peer, and the copy duration is recorded as the §3.4.2 sync window.
  auto before = udr_->metrics().HistOrEmpty("scaleout.sync_window_us").count();
  auto cluster = udr_->AddCluster(2);
  ASSERT_TRUE(cluster.ok());
  auto& hist = udr_->metrics().HistOrEmpty("scaleout.sync_window_us");
  EXPECT_EQ(hist.count(), before + 1);
  // 500 subscribers x 2 identities each = 1000 entries; window scales with
  // the provisioned base (2 µs per entry by default).
  EXPECT_GE(hist.max(), 1000 * Micros(2));
  // During the window the new PoA's stage refuses to resolve.
  auto r = (*cluster)->location_stage()->Resolve({IdentityType::kImsi, "i0"},
                                                 clock_.Now());
  EXPECT_TRUE(r.status.IsUnavailable());
}

// A UDR keeps one physical binding set, its router's. Every provisioned
// PoA stage reads it, so through creates, deletes, hash re-homes and a
// scale-out each stage must resolve exactly what the authoritative lookup
// returns, and report the entry count and modelled RAM of a private copy.
TEST_F(UdrNfTest, ProvisionedStagesResolveTheAuthoritativeBindings) {
  UdrConfig cfg;
  cfg.placement = routing::PlacementKind::kHash;
  Build(cfg);
  clock_.AdvanceTo(Seconds(1));
  const location::LocationCostModel model;
  std::vector<Identity> ids;  // Every identity ever provisioned.
  auto create = [&](int i) {
    UdrNf::CreateSpec spec =
        SpecFor("i" + std::to_string(i), "m" + std::to_string(i));
    ids.insert(ids.end(), spec.identities.begin(), spec.identities.end());
    ASSERT_TRUE(udr_->CreateSubscriber(spec, 0).ok());
  };
  auto expect_stages_match = [&](const std::string& phase) {
    int64_t entries = 0;
    int64_t bytes = 0;
    for (const Identity& id : ids) {
      if (!udr_->AuthoritativeLookup(id).ok()) continue;
      ++entries;
      bytes += model.bytes_per_entry + static_cast<int64_t>(id.value.size());
    }
    for (uint32_t c = 0; c < udr_->cluster_count(); ++c) {
      auto* stage = dynamic_cast<location::ProvisionedLocationStage*>(
          udr_->cluster(c)->location_stage());
      ASSERT_NE(stage, nullptr);
      EXPECT_EQ(stage->EntryCount(), entries) << phase << " cluster " << c;
      EXPECT_EQ(stage->ApproxBytes(), bytes) << phase << " cluster " << c;
      const MicroTime at = std::max(clock_.Now(), stage->sync_done_at());
      for (const Identity& id : ids) {
        auto expected = udr_->AuthoritativeLookup(id);
        location::ResolveResult r = stage->Resolve(id, at);
        if (!expected.ok()) {
          EXPECT_TRUE(r.status.IsNotFound()) << phase << " " << id.ToString();
          continue;
        }
        ASSERT_TRUE(r.status.ok()) << phase << " " << id.ToString();
        EXPECT_EQ(r.entry, *expected) << phase << " " << id.ToString();
      }
    }
  };

  for (int i = 0; i < 200; ++i) create(i);
  expect_stages_match("create");
  for (int i = 0; i < 200; i += 5) {
    ASSERT_TRUE(udr_->DeleteSubscriber(
                        {IdentityType::kImsi, "i" + std::to_string(i)}, 0)
                    .ok());
  }
  expect_stages_match("delete");

  // Scale-out: the new PoA serves nothing for its modelled copy window,
  // which the peer's entry count sizes, then resolves the shared bindings.
  std::vector<location::LocationEntry> before;
  for (const Identity& id : ids) {
    auto e = udr_->AuthoritativeLookup(id);
    before.push_back(e.ok() ? *e : location::LocationEntry{});
  }
  auto cluster = udr_->AddCluster(1);
  ASSERT_TRUE(cluster.ok());
  auto* fresh = static_cast<location::ProvisionedLocationStage*>(
      (*cluster)->location_stage());
  EXPECT_EQ(fresh->sync_done_at() - clock_.Now(),
            udr_->cluster(0)->location_stage()->EntryCount() *
                model.sync_per_entry);
  EXPECT_TRUE(fresh->Resolve(ids[2], clock_.Now()).status.IsUnavailable());
  expect_stages_match("scale-out");

  // The grown ring re-homes hash-keyed subscribers to the new partitions.
  udr_->CommissionPartitions();
  int moved = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto e = udr_->AuthoritativeLookup(ids[i]);
    if (e.ok() && !(*e == before[i])) ++moved;
  }
  EXPECT_GT(moved, 0);
  expect_stages_match("re-home");

  for (int i = 200; i < 260; ++i) create(i);
  for (int i = 1; i < 260; i += 7) {
    (void)udr_->DeleteSubscriber(
        {IdentityType::kMsisdn, "m" + std::to_string(i)}, 1);
  }
  expect_stages_match("churn after scale-out");
}

TEST_F(UdrNfTest, CachedLocationStageHasNoSyncWindow) {
  UdrConfig cfg;
  cfg.location_kind = LocationKind::kCached;
  Build(cfg);
  clock_.AdvanceTo(Seconds(1));
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  auto cluster = udr_->AddCluster(1);  // Second cluster at an existing site.
  ASSERT_TRUE(cluster.ok());
  // New cluster's stage can resolve immediately (via broadcast).
  auto r = (*cluster)->location_stage()->Resolve({IdentityType::kImsi, "214"},
                                                 clock_.Now());
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cache_miss);
  EXPECT_EQ(udr_->metrics().HistOrEmpty("scaleout.sync_window_us").count(), 0);
}

// ---------------------------------------------------------------------------
// Capacity model (§3.5 figures)
// ---------------------------------------------------------------------------

TEST(CapacityModelTest, PaperFigures) {
  CapacityModel m;
  EXPECT_EQ(m.BytesPerSubscriber(), 100'000);  // 200 GB / 2e6.
  EXPECT_EQ(m.SubscribersPerCluster(), 32'000'000);
  EXPECT_EQ(m.SubscribersPerNf(), 512'000'000);
  EXPECT_EQ(m.LdapOpsPerClusterStrict(), 32'000'000);
  EXPECT_EQ(m.LdapOpsPerClusterPaper(), 36'000'000);
  EXPECT_EQ(m.LdapOpsPerNfPaper(), 9'216'000'000);
  EXPECT_NEAR(m.OpsPerSubscriberPaper(), 18.0, 0.01);
}

TEST_F(UdrNfTest, AggregateCapacityReflectsDeployment) {
  // 6 SEs x default 200 GiB, 6 LDAP servers x 1e6 ops/s.
  EXPECT_EQ(udr_->TotalLdapOpsPerSecond(), 6'000'000);
  int64_t capacity = udr_->TotalSubscriberCapacity(100 * 1000);
  EXPECT_GT(capacity, 6LL * 2'000'000);  // GiB vs GB rounding.
}

// ---------------------------------------------------------------------------
// Commit-log write sets
// ---------------------------------------------------------------------------

// The log keeps each write set as appended, capacity included, for the life
// of the entry. A create's upserts (17, or 18 with a home site) and a PS
// read-modify-write must carry no growth slack into it.
TEST(CommitLogFootprintTest, EveryEntryIsExactSize) {
  workload::TestbedOptions o;
  o.subscribers = 60;
  workload::Testbed bed(o);
  workload::TrafficOptions t;
  t.duration = Seconds(5);
  t.fe_rate_per_sec = 100;
  t.ps_rate_per_sec = 20;
  t.subscriber_count = 60;
  t.batched = true;
  const workload::TrafficReport report = workload::RunTraffic(bed, t);
  ASSERT_GT(report.ps.ok, 0);
  ASSERT_GT(report.fe_write.ok, 0);

  int64_t entries = 0;
  int64_t slack = 0;
  for (uint32_t p = 0; p < bed.udr().partition_count(); ++p) {
    storage::CommitSeq seq = 0;
    for (const storage::LogEntry& e : bed.udr().partition(p)->log().entries()) {
      ++entries;
      ++seq;
      if (e.ops.capacity() != e.ops.size()) {
        ++slack;
        ADD_FAILURE() << "partition " << p << " seq " << seq << ": "
                      << e.ops.size() << " ops in " << e.ops.capacity()
                      << " slots";
      }
      if (slack > 3) return;  // The first few name the path.
    }
  }
  // The creates plus the traffic's writes.
  EXPECT_GT(entries, o.subscribers);
  EXPECT_EQ(slack, 0);
}

}  // namespace
}  // namespace udr::udrnf
