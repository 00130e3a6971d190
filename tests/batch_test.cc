// Tests for the batched data path: the routing::Router::RouteBatch staged
// pipeline (per-key op-order preservation, partition grouping, per-op error
// isolation), the replication-layer grouped entry points, the hash-routed
// location bypass (equivalence with the location-stage path), the LDAP
// multi-op adapter end to end, the per-op path as a one-op batch, and the
// Search projection push-down (entries equal the master record's requested
// projection on every client entry point, with and without a PoA cache).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/filter.h"
#include "routing/batch.h"
#include "routing/router.h"
#include "telecom/front_end.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

namespace udr::routing {
namespace {

using location::Identity;
using location::IdentityType;
using replication::ReadPreference;

workload::TestbedOptions BaseOptions(int64_t subscribers = 0) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = subscribers;
  return o;
}

/// Lets asynchronous replication drain so nearest-replica reads see the
/// provisioned population (slave copies apply on delivery, not at commit).
void Settle(workload::Testbed& bed) {
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
}

// ---------------------------------------------------------------------------
// Pipeline: order, grouping, isolation
// ---------------------------------------------------------------------------

TEST(RouteBatchTest, PerKeyOpOrderIsPreservedWithinABatch) {
  workload::Testbed bed(BaseOptions(5));
  Identity id = bed.factory().Make(2).ImsiId();

  // write cfu=first, read it, write cfu=second, read it again: each read
  // must observe exactly the write preceding it in the batch.
  BatchRequest batch;
  batch.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("first")}}));
  batch.Add(Operation::ReadAttribute(id, "cfu-number",
                                     ReadPreference::kMasterOnly));
  batch.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("second")}}));
  batch.Add(Operation::ReadAttribute(id, "cfu-number",
                                     ReadPreference::kMasterOnly));

  BatchResult result = bed.udr().router().RouteBatch(batch, 0);
  ASSERT_EQ(result.outcomes.size(), 4u);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.partition_groups, 1);
  ASSERT_TRUE(result.outcomes[1].value.has_value());
  EXPECT_EQ(storage::ValueToString(*result.outcomes[1].value), "first");
  ASSERT_TRUE(result.outcomes[3].value.has_value());
  EXPECT_EQ(storage::ValueToString(*result.outcomes[3].value), "second");
  // The two writes appended in batch order.
  EXPECT_LT(result.outcomes[0].seq, result.outcomes[2].seq);
}

TEST(RouteBatchTest, GroupsOpsByOwningPartition) {
  workload::Testbed bed(BaseOptions(40));
  Settle(bed);
  auto& udr = bed.udr();

  BatchRequest batch;
  std::vector<Identity> ids;
  for (uint64_t i = 0; i < 12; ++i) {
    ids.push_back(bed.factory().Make(i).ImsiId());
    batch.Add(Operation::ReadRecord(ids.back()));
  }
  BatchResult result = udr.router().RouteBatch(batch, 0);
  ASSERT_TRUE(result.ok());

  std::set<uint32_t> distinct;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto loc = udr.AuthoritativeLookup(ids[i]);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(result.outcomes[i].partition, loc->partition) << i;
    EXPECT_EQ(result.outcomes[i].key, loc->key) << i;
    ASSERT_TRUE(result.outcomes[i].record.has_value()) << i;
    distinct.insert(loc->partition);
  }
  EXPECT_EQ(result.partition_groups, static_cast<int>(distinct.size()));
  EXPECT_GT(result.partition_groups, 1);  // 40 subs over 6 partitions.
}

TEST(RouteBatchTest, FailedOpDoesNotPoisonTheBatch) {
  workload::Testbed bed(BaseOptions(10));
  Identity good_a = bed.factory().Make(1).ImsiId();
  Identity good_b = bed.factory().Make(2).ImsiId();
  Identity unknown{IdentityType::kImsi, "000000000000000"};

  BatchRequest batch;
  batch.Add(Operation::ReadRecord(good_a));
  batch.Add(Operation::ReadRecord(unknown));  // Fails resolution.
  batch.Add(Operation::Write(
      good_b, {{Mutation::Kind::kSet, "cfu-number", std::string("+34600")}}));

  BatchResult result = bed.udr().router().RouteBatch(batch, 0);
  EXPECT_EQ(result.failed_ops, 1);
  EXPECT_TRUE(result.outcomes[0].ok());
  EXPECT_TRUE(result.outcomes[0].record.has_value());
  EXPECT_TRUE(result.outcomes[1].status.IsNotFound());
  EXPECT_TRUE(result.outcomes[2].ok());
  EXPECT_GT(result.outcomes[2].seq, 0u);

  // The isolated write really committed.
  auto loc = bed.udr().AuthoritativeLookup(good_b);
  ASSERT_TRUE(loc.ok());
  auto record = bed.udr().partition(loc->partition)
                    ->ReadRecord(0, loc->key, ReadPreference::kMasterOnly);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(storage::ValueToString(*record->Get("cfu-number")), "+34600");
}

TEST(RouteBatchTest, BatchIsCheaperThanPerOpRouting) {
  workload::Testbed bed(BaseOptions(32));
  Settle(bed);
  auto& router = bed.udr().router();

  BatchRequest batch;
  std::vector<Identity> ids;
  for (uint64_t i = 0; i < 16; ++i) {
    ids.push_back(bed.factory().Make(i).ImsiId());
    batch.Add(Operation::ReadRecord(ids.back()));
  }
  BatchResult batched = router.RouteBatch(batch, 0);
  ASSERT_TRUE(batched.ok());

  MicroDuration per_op = 0;
  for (const Identity& id : ids) {
    RouteResult route = router.Route(id, 0, RouteIntent::kRead);
    ASSERT_TRUE(route.status.ok());
    replication::ReadResult meta;
    auto record = route.rs->ReadRecord(0, route.key,
                                       ReadPreference::kNearest, &meta);
    ASSERT_TRUE(record.ok());
    per_op += route.resolve_cost + meta.latency;
  }
  // The grouped dispatch pays one transit per partition group (concurrent),
  // not one per op: the modelled batch must be at least 2x cheaper.
  EXPECT_LT(2 * batched.latency, per_op);
}

// ---------------------------------------------------------------------------
// Replication-layer grouped entry points
// ---------------------------------------------------------------------------

TEST(GroupWriteTest, CommitsOneLogEntryPerTransactionInOneWindow) {
  workload::Testbed bed(BaseOptions(6));
  auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(0).ImsiId());
  ASSERT_TRUE(loc.ok());
  replication::ReplicaSet* rs = bed.udr().partition(loc->partition);
  const storage::CommitSeq before = rs->log().LastSeq();

  // Per-op baseline for the same shape of transaction.
  replication::WriteResult single = rs->Write(
      0, {storage::WriteOp{storage::WriteKind::kUpsertAttr,
                           storage::InternAttr("sqn"), loc->key,
                           storage::Attribute{int64_t{1}, 0, 0}}});
  ASSERT_TRUE(single.status.ok());

  std::vector<std::vector<storage::WriteOp>> txns;
  for (int64_t i = 2; i <= 9; ++i) {
    txns.push_back({storage::WriteOp{storage::WriteKind::kUpsertAttr,
                                     storage::InternAttr("sqn"), loc->key,
                                     storage::Attribute{i, 0, 0}}});
  }
  replication::GroupWriteResult group = rs->WriteBatch(0, std::move(txns));
  ASSERT_TRUE(group.status.ok());
  ASSERT_EQ(group.per_op.size(), 8u);
  // One log entry per transaction, in order.
  EXPECT_EQ(rs->log().LastSeq(), before + 9);
  for (size_t i = 1; i < group.per_op.size(); ++i) {
    EXPECT_EQ(group.per_op[i].seq, group.per_op[i - 1].seq + 1);
  }
  // The group paid one transit for 8 commits: cheaper than 8 singles.
  EXPECT_LT(group.latency, 8 * single.latency);
}

TEST(GroupReadTest, MixedPreferencesAndMissingKeysAreIsolated) {
  workload::Testbed bed(BaseOptions(6));
  Settle(bed);
  auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(3).ImsiId());
  ASSERT_TRUE(loc.ok());
  replication::ReplicaSet* rs = bed.udr().partition(loc->partition);

  std::vector<replication::BatchReadOp> ops;
  ops.push_back({loc->key, "", ReadPreference::kNearest});        // Record.
  ops.push_back({loc->key, "imsi", ReadPreference::kMasterOnly}); // Attr.
  ops.push_back({9999999, "", ReadPreference::kNearest});         // Missing.
  replication::GroupReadResult group = rs->ReadBatch(0, ops);
  ASSERT_EQ(group.per_op.size(), 3u);
  EXPECT_TRUE(group.per_op[0].status.ok());
  EXPECT_TRUE(group.per_op[0].record.has_value());
  EXPECT_TRUE(group.per_op[1].status.ok());
  EXPECT_TRUE(group.per_op[1].value.has_value());
  EXPECT_TRUE(group.per_op[2].status.IsNotFound());
  EXPECT_GT(group.latency, 0);
}

// ---------------------------------------------------------------------------
// Hash-routed location bypass
// ---------------------------------------------------------------------------

workload::TestbedOptions HashOptions(int64_t subscribers) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = subscribers;
  o.udr.placement = PlacementKind::kHash;
  return o;
}

TEST(HashBypassTest, BypassedReadsMatchTheLocationStagePath) {
  workload::Testbed bed(HashOptions(50));
  auto& udr = bed.udr();
  for (uint64_t i = 0; i < 50; ++i) {
    Identity id = bed.factory().Make(i).ImsiId();
    // The hash fast path must reproduce the provisioned location exactly.
    RouteResult fast = udr.router().Route(id, 0, RouteIntent::kRead);
    ASSERT_TRUE(fast.status.ok()) << id.ToString();
    EXPECT_TRUE(fast.bypassed_location);
    auto loc = udr.AuthoritativeLookup(id);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(fast.partition, loc->partition) << id.ToString();
    EXPECT_EQ(fast.key, loc->key) << id.ToString();
    // The location-stage path (write intent never bypasses) agrees too.
    RouteResult slow = udr.router().Route(id, 0, RouteIntent::kWrite);
    ASSERT_TRUE(slow.status.ok());
    EXPECT_FALSE(slow.bypassed_location);
    EXPECT_EQ(slow.partition, fast.partition);
    EXPECT_EQ(slow.key, fast.key);
  }
  EXPECT_EQ(udr.metrics().Get("router.bypass.hits"), 50);
}

TEST(HashBypassTest, OtherIdentityTypesStillUseTheLocationStage) {
  workload::Testbed bed(HashOptions(20));
  // MSISDN hashes onto a different ring position than the IMSI that placed
  // the record, so it must resolve through the location stage.
  Identity msisdn = bed.factory().Make(7).MsisdnId();
  RouteResult route = bed.udr().router().Route(msisdn, 0, RouteIntent::kRead);
  ASSERT_TRUE(route.status.ok());
  EXPECT_FALSE(route.bypassed_location);
  auto loc = bed.udr().AuthoritativeLookup(msisdn);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(route.partition, loc->partition);
}

TEST(HashBypassTest, BypassSurvivesScaleOutCommissioning) {
  workload::Testbed bed(HashOptions(60));
  auto& udr = bed.udr();
  // Scale out: new SEs join and commissioning grows the ring, so ~K/N
  // subscribers hash to a new owner. They must be re-homed (record shipped,
  // identities rebound) or bypassed reads would route into empty partitions.
  ASSERT_TRUE(udr.AddCluster(0).ok());
  size_t before = udr.partition_count();
  udr.CommissionPartitions();
  ASSERT_GT(udr.partition_count(), before);
  EXPECT_GT(udr.metrics().Get("hash.rehome.moved"), 0);

  for (uint64_t i = 0; i < 60; ++i) {
    Identity id = bed.factory().Make(i).ImsiId();
    RouteResult fast = udr.router().Route(id, 0, RouteIntent::kRead);
    ASSERT_TRUE(fast.status.ok()) << id.ToString();
    EXPECT_TRUE(fast.bypassed_location);
    auto loc = udr.AuthoritativeLookup(id);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(fast.partition, loc->partition) << id.ToString();
    EXPECT_EQ(fast.key, loc->key) << id.ToString();
    auto record = fast.rs->ReadRecord(0, fast.key,
                                      ReadPreference::kMasterOnly);
    ASSERT_TRUE(record.ok()) << "bypassed read lost " << id.ToString();
  }
}

TEST(HashBypassTest, ExceptedIdentityFallsBackToLocationStage) {
  workload::Testbed bed(HashOptions(10));
  Identity id = bed.factory().Make(4).ImsiId();
  auto& router = bed.udr().router();
  ASSERT_TRUE(router.Route(id, 0, RouteIntent::kRead).bypassed_location);

  // A subscriber whose re-home failed is excluded from the bypass: reads
  // resolve through the location stage (which knows the true location).
  router.AddBypassException(id);
  RouteResult route = router.Route(id, 0, RouteIntent::kRead);
  ASSERT_TRUE(route.status.ok());
  EXPECT_FALSE(route.bypassed_location);
  auto loc = bed.udr().AuthoritativeLookup(id);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(route.partition, loc->partition);

  router.ClearBypassException(id);
  EXPECT_TRUE(router.Route(id, 0, RouteIntent::kRead).bypassed_location);
}

TEST(HashBypassTest, RejectsSecondHashTypeIdentityPerSubscription) {
  workload::Testbed bed(HashOptions(0));
  udrnf::UdrNf::CreateSpec spec = bed.factory().MakeSpec(0, std::nullopt);
  spec.identities.push_back(Identity{IdentityType::kImsi, "214079999999999"});
  auto outcome = bed.udr().CreateSubscriber(spec, 0);
  EXPECT_TRUE(outcome.status().IsInvalidArgument());
}

TEST(HashBypassTest, SequentialImsiBlocksSpreadAcrossPartitions) {
  // Real numbering plans hand out sequential IMSI blocks; the identity hash
  // must still spread them over the ring instead of clustering on one arc.
  workload::Testbed bed(HashOptions(0));
  auto& map = bed.udr().partition_map();
  bed.udr().CommissionPartitions();
  std::set<uint32_t> hit;
  for (uint64_t i = 0; i < 200; ++i) {
    hit.insert(map.PartitionOfIdentity(bed.factory().Make(i).ImsiId()));
  }
  // 200 sequential subscribers over 6 partitions: expect most partitions hit.
  EXPECT_GE(hit.size(), map.partition_count() - 1);
}

TEST(HashBypassTest, BatchReadsCountBypassHits) {
  workload::Testbed bed(HashOptions(20));
  Settle(bed);
  BatchRequest batch;
  for (uint64_t i = 0; i < 8; ++i) {
    batch.Add(Operation::ReadRecord(bed.factory().Make(i).ImsiId()));
  }
  BatchResult result = bed.udr().router().RouteBatch(batch, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bypass_hits, 8);
  for (const OpOutcome& o : result.outcomes) {
    EXPECT_TRUE(o.bypassed_location);
    EXPECT_TRUE(o.record.has_value());
  }
}

// ---------------------------------------------------------------------------
// Subscriber delete lifecycle under hash placement (bypass-path fixes)
// ---------------------------------------------------------------------------

ldap::LdapRequest DeleteOf(const std::string& imsi) {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kDelete;
  req.dn = ldap::SubscriberDn("imsi", imsi);
  req.master_only = true;
  return req;
}

TEST(HashDeleteLifecycleTest, DeleteClearsBypassExceptionEntries) {
  workload::Testbed bed(HashOptions(12));
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(5).ImsiId();
  // Simulate a failed re-home: the subscriber is pinned to the slow path.
  udr.router().AddBypassException(id);
  ASSERT_EQ(udr.router().bypass_exception_count(), 1u);

  ASSERT_TRUE(udr.DeleteSubscriber(id, 0).ok());
  // The deleted identity must not leak an exception entry forever...
  EXPECT_EQ(udr.router().bypass_exception_count(), 0u);
  // ...and a bypassed read after the delete misses cleanly: the hash still
  // routes to the ring owner, where both the record and the binding are gone.
  RouteResult fast = udr.router().Route(id, 0, RouteIntent::kRead);
  ASSERT_TRUE(fast.status.ok());
  EXPECT_TRUE(fast.bypassed_location);
  auto record = fast.rs->ReadRecord(0, fast.key, ReadPreference::kMasterOnly);
  EXPECT_TRUE(record.status().IsNotFound());
  EXPECT_TRUE(udr.AuthoritativeLookup(id).status().IsNotFound());
}

TEST(HashDeleteLifecycleTest, RehomeAgreementDropsStaleException) {
  workload::Testbed bed(HashOptions(15));
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(3).ImsiId();
  // An exception whose identity already agrees with its ring owner (as after
  // a ring change that undid the stranding move) is obsolete; the next
  // re-home pass must drop it instead of pinning the slow path forever.
  udr.router().AddBypassException(id);
  ASSERT_TRUE(udr.AddCluster(1).ok());
  udr.CommissionPartitions();  // Runs the re-home pass over all bindings.
  EXPECT_EQ(udr.router().bypass_exception_count(), 0u);
  EXPECT_TRUE(udr.router().Route(id, 0, RouteIntent::kRead).bypassed_location);
}

TEST(HashDeleteLifecycleTest, BatchedDeletesRideTheGroupedPipeline) {
  workload::Testbed bed(HashOptions(20));
  Settle(bed);
  auto& udr = bed.udr();
  const int64_t before = udr.SubscriberCount();
  const int64_t deletes_before = udr.metrics().Get("udr.delete.ok");

  std::vector<ldap::LdapRequest> requests;
  for (uint64_t i = 0; i < 4; ++i) {
    requests.push_back(DeleteOf(bed.factory().Make(i).imsi));
  }
  // A modify of a live subscriber shares the same window...
  ldap::LdapRequest mod;
  mod.op = ldap::LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", bed.factory().Make(10).imsi);
  mod.mods.push_back(
      {ldap::ModType::kReplace, "serving-vlr", std::string("vlr3")});
  requests.push_back(mod);
  // ...and a later read of a deleted subscriber observes the deletion
  // (per-key order holds across the whole batch, no flush between verbs).
  ldap::LdapRequest read;
  read.op = ldap::LdapOp::kSearch;
  read.dn = ldap::SubscriberDn("imsi", bed.factory().Make(0).imsi);
  read.master_only = true;
  requests.push_back(read);

  ldap::LdapBatchResult out = udr.SubmitBatch(requests, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out.results[i].code, ldap::LdapResultCode::kSuccess) << i;
  }
  EXPECT_EQ(out.results[4].code, ldap::LdapResultCode::kSuccess);
  EXPECT_EQ(out.results[5].code, ldap::LdapResultCode::kNoSuchObject);
  EXPECT_EQ(udr.SubscriberCount(), before - 4);
  EXPECT_EQ(udr.metrics().Get("udr.delete.ok"), deletes_before + 4);
  // The deletes rode the grouped pipeline: one batch, no per-op flushes.
  EXPECT_EQ(udr.metrics().Get("router.batch.count"), 1);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(udr.router().IsBound(bed.factory().Make(i).ImsiId())) << i;
    EXPECT_FALSE(udr.router().IsBound(bed.factory().Make(i).MsisdnId())) << i;
  }
}

TEST(HashDeleteLifecycleTest, DeleteOfUnknownSubscriberIsIsolated) {
  workload::Testbed bed(HashOptions(8));
  Settle(bed);
  std::vector<ldap::LdapRequest> requests;
  requests.push_back(DeleteOf("000000000000000"));  // Never provisioned.
  requests.push_back(DeleteOf(bed.factory().Make(1).imsi));
  ldap::LdapBatchResult out = bed.udr().SubmitBatch(requests, 0);
  EXPECT_EQ(out.results[0].code, ldap::LdapResultCode::kNoSuchObject);
  EXPECT_EQ(out.results[1].code, ldap::LdapResultCode::kSuccess);
  EXPECT_EQ(bed.udr().SubscriberCount(), 7);
}

TEST(HashDeleteLifecycleTest, PopulationMatchesLiveCountAfterChurn) {
  workload::Testbed bed(HashOptions(30));
  Settle(bed);
  auto& udr = bed.udr();

  // Delete 10 through the batched LDAP path (two multi-delete messages).
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<ldap::LdapRequest> deletes;
    for (uint64_t i = 0; i < 5; ++i) {
      deletes.push_back(
          DeleteOf(bed.factory().Make(wave * 5 + i).imsi));
    }
    ldap::LdapBatchResult out = udr.SubmitBatch(deletes, 0);
    EXPECT_TRUE(out.ok());
  }
  // Re-provision 6 fresh subscribers and delete 2 of them per-op again.
  EXPECT_EQ(bed.ProvisionDirect(100, 6), 6);
  for (uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        udr.DeleteSubscriber(bed.factory().Make(100 + i).ImsiId(), 0).ok());
  }

  const int64_t live = udr.SubscriberCount();
  EXPECT_EQ(live, 30 - 10 + 6 - 2);
  int64_t population_total = 0;
  for (int64_t p : udr.partition_map().PopulationPerSe()) population_total += p;
  EXPECT_EQ(population_total, live);
  EXPECT_EQ(udr.router().bypass_exception_count(), 0u);
  // Live subscribers still bypass; deleted ones miss cleanly.
  EXPECT_TRUE(udr.router()
                  .Route(bed.factory().Make(20).ImsiId(), 0, RouteIntent::kRead)
                  .bypassed_location);
  EXPECT_TRUE(udr.AuthoritativeLookup(bed.factory().Make(3).ImsiId())
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// LDAP multi-op adapter and batched front ends
// ---------------------------------------------------------------------------

TEST(LdapBatchTest, MultiOpMessageMatchesSequentialSubmits) {
  workload::Testbed bed(BaseOptions(10));
  Settle(bed);
  telecom::Subscriber sub = bed.factory().Make(4);
  ldap::Dn dn = ldap::SubscriberDn("imsi", sub.imsi);

  std::vector<ldap::LdapRequest> requests;
  ldap::LdapRequest read;
  read.op = ldap::LdapOp::kSearch;
  read.dn = dn;
  read.requested_attrs = {"authkey", "sqn"};
  requests.push_back(read);
  ldap::LdapRequest mod;
  mod.op = ldap::LdapOp::kModify;
  mod.dn = dn;
  mod.mods.push_back(
      {ldap::ModType::kReplace, "serving-vlr", std::string("vlr9")});
  requests.push_back(mod);
  ldap::LdapRequest compare;
  compare.op = ldap::LdapOp::kCompare;
  compare.dn = dn;
  compare.compare_attr = "serving-vlr";
  compare.compare_value = "vlr9";
  compare.master_only = true;  // Must observe the same-batch write.
  requests.push_back(compare);

  ldap::LdapBatchResult batch = bed.udr().SubmitBatch(requests, 0);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_TRUE(batch.ok());
  EXPECT_EQ(batch.results[0].code, ldap::LdapResultCode::kSuccess);
  ASSERT_EQ(batch.results[0].entries.size(), 1u);
  EXPECT_TRUE(batch.results[0].entries[0].record.Has("authkey"));
  EXPECT_EQ(batch.results[2].code, ldap::LdapResultCode::kCompareTrue);
  EXPECT_EQ(batch.partition_groups, 1);

  // One round trip for the whole event: cheaper than the sequential path.
  MicroDuration sequential = 0;
  for (const auto& req : requests) {
    ldap::LdapResult r = bed.udr().Submit(req, 0);
    ASSERT_TRUE(r.ok());
    sequential += r.latency;
  }
  EXPECT_LT(batch.latency, sequential);
}

TEST(LdapBatchTest, UnbatchableVerbsExecuteInPlace) {
  workload::Testbed bed(BaseOptions(5));
  Settle(bed);
  telecom::Subscriber fresh = bed.factory().Make(100);
  int64_t before = bed.udr().SubscriberCount();

  std::vector<ldap::LdapRequest> requests;
  ldap::LdapRequest add;
  add.op = ldap::LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", fresh.imsi);
  add.add_entry = fresh.profile;
  requests.push_back(add);
  ldap::LdapRequest read;  // Reads the just-added subscriber: order matters.
  read.op = ldap::LdapOp::kSearch;
  read.dn = ldap::SubscriberDn("imsi", fresh.imsi);
  read.master_only = true;  // Slave copies apply the Add asynchronously.
  requests.push_back(read);

  ldap::LdapBatchResult batch = bed.udr().SubmitBatch(requests, 0);
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_TRUE(batch.ok()) << batch.results[0].diagnostic << " / "
                          << batch.results[1].diagnostic;
  EXPECT_EQ(bed.udr().SubscriberCount(), before + 1);
  ASSERT_EQ(batch.results[1].entries.size(), 1u);
}

TEST(LdapBatchTest, BadOpInBatchIsIsolated) {
  workload::Testbed bed(BaseOptions(5));
  telecom::Subscriber sub = bed.factory().Make(1);
  ldap::Dn dn = ldap::SubscriberDn("imsi", sub.imsi);

  std::vector<ldap::LdapRequest> requests;
  ldap::LdapRequest bad;  // Identity attributes are immutable.
  bad.op = ldap::LdapOp::kModify;
  bad.dn = dn;
  bad.mods.push_back({ldap::ModType::kReplace, "imsi", std::string("x")});
  requests.push_back(bad);
  ldap::LdapRequest good;
  good.op = ldap::LdapOp::kSearch;
  good.dn = dn;
  requests.push_back(good);

  ldap::LdapBatchResult batch = bed.udr().SubmitBatch(requests, 0);
  EXPECT_EQ(batch.results[0].code, ldap::LdapResultCode::kUnwillingToPerform);
  EXPECT_EQ(batch.results[1].code, ldap::LdapResultCode::kSuccess);
  EXPECT_EQ(batch.failed_ops(), 1);
}

// ---------------------------------------------------------------------------
// One verb path: Submit(req) is SubmitBatch({req})
// ---------------------------------------------------------------------------

TEST(PerOpPathTest, DeleteLatencyIsTheOneOpBatchLatency) {
  workload::Testbed per_op(BaseOptions(10));
  workload::Testbed batched(BaseOptions(10));
  Settle(per_op);
  Settle(batched);
  const std::string imsi = per_op.factory().Make(3).imsi;
  ldap::LdapResult one = per_op.udr().Submit(DeleteOf(imsi), 0);
  ldap::LdapBatchResult batch = batched.udr().SubmitBatch({DeleteOf(imsi)}, 0);
  ASSERT_EQ(one.code, ldap::LdapResultCode::kSuccess);
  ASSERT_EQ(batch.results[0].code, ldap::LdapResultCode::kSuccess);
  EXPECT_EQ(one.latency, batch.latency);
}

/// One random request against subscribers [0, 12) of a 10-subscriber bed:
/// every verb, plus malformed DNs, malformed filters and an unknown verb.
ldap::LdapRequest RandomRequest(std::mt19937_64& rng,
                                const telecom::SubscriberFactory& factory) {
  const telecom::Subscriber sub = factory.Make(rng() % 12);
  const std::string vlr = "vlr" + std::to_string(rng() % 3);
  ldap::LdapRequest req;
  req.dn = ldap::SubscriberDn("imsi", sub.imsi);
  req.master_only = rng() % 4 == 0;
  switch (rng() % 9) {
    case 0:
      req.op = ldap::LdapOp::kSearch;
      if (rng() % 2 == 0) req.requested_attrs = {"serving-vlr", "msisdn"};
      break;
    case 1:
      req.op = ldap::LdapOp::kSearch;
      req.filter = rng() % 2 == 0 ? "(serving-vlr=" + vlr + ")"
                                  : "(serving-vlr=" + vlr;  // Malformed.
      break;
    case 2:
      req.op = ldap::LdapOp::kSearch;
      req.dn = ldap::SubscribersBase();
      req.scope = ldap::SearchScope::kSingleLevel;
      req.filter = rng() % 2 == 0 ? "(msisdn=" + sub.msisdn + ")"
                                  : "(msisdn" + sub.msisdn;  // Malformed.
      break;
    case 3:
      req.op = ldap::LdapOp::kCompare;
      req.compare_attr = rng() % 4 == 0 ? "no-such-attr" : "serving-vlr";
      req.compare_value = vlr;
      break;
    case 4:
      req.op = ldap::LdapOp::kModify;
      req.mods.push_back({ldap::ModType::kReplace,
                          rng() % 5 == 0 ? "msisdn" : "serving-vlr", vlr});
      break;
    case 5:
      req.op = ldap::LdapOp::kDelete;
      break;
    case 6:
      req.op = ldap::LdapOp::kAdd;
      req.add_entry = sub.profile;
      break;
    case 7:  // Malformed DN: the leaf names no subscriber identity.
      req.op = static_cast<ldap::LdapOp>(rng() % 5);
      req.dn = ldap::SubscriberDn("cn", "nobody");
      req.add_entry = sub.profile;
      req.compare_attr = "serving-vlr";
      break;
    default:
      req.op = static_cast<ldap::LdapOp>(42);  // Unknown verb.
      break;
  }
  return req;
}

/// Every partition's master copy, key -> record.
std::map<storage::RecordKey, storage::Record> MasterState(
    workload::Testbed& bed) {
  std::map<storage::RecordKey, storage::Record> state;
  for (uint32_t p = 0; p < bed.udr().partition_count(); ++p) {
    const replication::ReplicaSet* rs = bed.udr().partition(p);
    rs->replica_store(rs->master_id())
        .ForEach([&](storage::RecordKey key, const storage::Record& record) {
          state.emplace(key, record);
        });
  }
  return state;
}

TEST(PerOpPathTest, SubmitEqualsOneOpSubmitBatchOverRandomRequests) {
  workload::Testbed per_op(BaseOptions(10));
  workload::Testbed batched(BaseOptions(10));
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 400; ++i) {
    const ldap::LdapRequest req = RandomRequest(rng, per_op.factory());
    const sim::SiteId site = static_cast<sim::SiteId>(rng() % 3);
    const ldap::LdapResult one = per_op.udr().Submit(req, site);
    const ldap::LdapBatchResult batch = batched.udr().SubmitBatch({req}, site);
    ASSERT_EQ(batch.results.size(), 1u);
    const ldap::LdapResult& b = batch.results[0];
    ASSERT_EQ(one.code, b.code) << "request " << i << ": " << one.diagnostic;
    EXPECT_EQ(one.diagnostic, b.diagnostic) << "request " << i;
    EXPECT_EQ(one.latency, batch.latency) << "request " << i;
    EXPECT_EQ(one.stale, b.stale) << "request " << i;
    ASSERT_EQ(one.entries.size(), b.entries.size()) << "request " << i;
    for (size_t e = 0; e < one.entries.size(); ++e) {
      EXPECT_EQ(one.entries[e].dn.ToString(), b.entries[e].dn.ToString());
      EXPECT_TRUE(one.entries[e].record == b.entries[e].record)
          << "request " << i;
    }
    const MicroDuration step = Micros(200 + static_cast<int64_t>(rng() % 800));
    per_op.clock().Advance(step);
    batched.clock().Advance(step);
  }
  EXPECT_EQ(per_op.udr().SubscriberCount(), batched.udr().SubscriberCount());
  EXPECT_TRUE(MasterState(per_op) == MasterState(batched));
}

TEST(FrontEndBatchTest, BatchedProcedureMatchesSequentialEffects) {
  workload::Testbed bed_seq(BaseOptions(10));
  workload::Testbed bed_bat(BaseOptions(10));
  Settle(bed_seq);
  Settle(bed_bat);
  Identity impu_seq = bed_seq.factory().Make(3).ImpuId();
  Identity impu_bat = bed_bat.factory().Make(3).ImpuId();

  telecom::HssFe seq_fe(0, &bed_seq.udr(), /*batched=*/false);
  telecom::HssFe bat_fe(0, &bed_bat.udr(), /*batched=*/true);
  telecom::ProcedureResult seq = seq_fe.ImsRegister(impu_seq, "scscf1");
  telecom::ProcedureResult bat = bat_fe.ImsRegister(impu_bat, "scscf1");
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(bat.ok());
  EXPECT_EQ(seq.ldap_ops, bat.ldap_ops);
  // Identical state effects on both testbeds.
  for (auto* bed : {&bed_seq, &bed_bat}) {
    auto loc = bed->udr().AuthoritativeLookup(bed->factory().Make(3).ImpuId());
    ASSERT_TRUE(loc.ok());
    auto record = bed->udr().partition(loc->partition)
                      ->ReadRecord(0, loc->key, ReadPreference::kMasterOnly);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(storage::ValueToString(*record->Get("s-cscf")), "scscf1");
    EXPECT_EQ(storage::ValueToString(*record->Get("registration-state")),
              "registered");
  }
  // The multi-op message is cheaper end to end.
  EXPECT_LT(bat.latency, seq.latency);
}

// ---------------------------------------------------------------------------
// Search projection push-down
// ---------------------------------------------------------------------------

// Per-op side data (the Search projection) lives in BatchRequest side tables,
// never in Operation: every op of every batch pays for Operation's size, and
// growing it by one vector measurably slowed the sharded op stream.
struct OperationLayout {
  Operation::Kind kind;
  Identity identity;
  std::string attr;
  std::vector<Mutation> mutations;
  ReadPreference read_pref;
};
static_assert(sizeof(Operation) == sizeof(OperationLayout),
              "routing::Operation grew: put per-op side data in a "
              "BatchRequest side table instead");

TEST(BatchProjectionTest, SideTableStaysEmptyOrOneToOne) {
  const storage::AttrId vlr = storage::InternAttr("serving-vlr");
  BatchRequest batch;
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "1"}));
  EXPECT_TRUE(batch.projections.empty());
  EXPECT_EQ(batch.ProjectionOf(0), nullptr);
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "2"}), {vlr});
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "3"}));
  ASSERT_EQ(batch.projections.size(), batch.ops.size());
  EXPECT_EQ(batch.ProjectionOf(0), nullptr);
  ASSERT_NE(batch.ProjectionOf(1), nullptr);
  EXPECT_EQ(*batch.ProjectionOf(1), std::vector<storage::AttrId>{vlr});
  EXPECT_EQ(batch.ProjectionOf(2), nullptr);
  // A side table out of step with the ops is dropped as a whole.
  batch.ops.push_back(Operation::ReadRecord({IdentityType::kImsi, "4"}));
  EXPECT_EQ(batch.ProjectionOf(1), nullptr);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.projections.empty());
}

TEST(BatchProjectionTest, ProjectionOfTheFirstOpSurvives) {
  // Every one-op Search is a batch whose only op is projected: its
  // projection must survive at index 0.
  const storage::AttrId vlr = storage::InternAttr("serving-vlr");
  BatchRequest batch;
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "1"}), {vlr});
  ASSERT_EQ(batch.projections.size(), batch.ops.size());
  ASSERT_NE(batch.ProjectionOf(0), nullptr);
  EXPECT_EQ(*batch.ProjectionOf(0), std::vector<storage::AttrId>{vlr});
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "2"}));
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "3"}), {});
  ASSERT_EQ(batch.projections.size(), batch.ops.size());
  EXPECT_NE(batch.ProjectionOf(0), nullptr);
  EXPECT_EQ(batch.ProjectionOf(1), nullptr);
  EXPECT_EQ(batch.ProjectionOf(2), nullptr);
  // A side table out of step with the ops is still dropped as a whole.
  batch.ops.push_back(Operation::ReadRecord({IdentityType::kImsi, "4"}));
  EXPECT_EQ(batch.ProjectionOf(0), nullptr);
  // A batch whose ops carry no projection keeps an empty side table.
  batch.Clear();
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "5"}), {});
  batch.Add(Operation::ReadRecord({IdentityType::kImsi, "6"}));
  EXPECT_TRUE(batch.projections.empty());
  EXPECT_EQ(batch.ProjectionOf(0), nullptr);
}

/// One seeded Search and the identity its DN names.
struct SeededSearch {
  ldap::LdapRequest request;
  Identity identity;
};

/// Interned (CheckSearchStream interns it) but held by no record.
constexpr char kInternedAbsentAttr[] = "projection-interned-absent-attr";

/// A base-object Search of subscriber [0, 10) under one of its identities:
/// a random requested-attribute subset (identity attributes included, and
/// names no record holds: one interned, one never interned; sometimes none,
/// i.e. the whole record), now and then a non-presence filter on an
/// attribute it did not request, and master_only on a quarter.
SeededSearch RandomSearch(std::mt19937_64& rng,
                          const telecom::SubscriberFactory& factory) {
  static const char* const kNames[] = {
      "serving-vlr",  "msisdn",  "imsi",     "impu",
      "impi",         "authkey", "sqn",      "category",
      "teleservices", kInternedAbsentAttr,   "projection-never-interned-attr"};
  static const IdentityType kTypes[] = {
      IdentityType::kImsi, IdentityType::kMsisdn, IdentityType::kImpu};
  const uint64_t index = rng() % 10;
  SeededSearch out;
  out.identity = factory.IdentityOf(index, kTypes[rng() % 3]);
  ldap::LdapRequest& req = out.request;
  req.op = ldap::LdapOp::kSearch;
  req.dn = ldap::SubscriberDn(
      location::IdentityTypeName(out.identity.type), out.identity.value);
  req.master_only = rng() % 4 == 0;
  if (rng() % 5 != 0) {
    for (const char* name : kNames) {
      if (rng() % 3 == 0) req.requested_attrs.push_back(name);
    }
  }
  if (rng() % 5 == 0) {
    // Matching needs an attribute the projection would not carry.
    req.filter = "(category=ordinary)";
    req.requested_attrs.erase(
        std::remove(req.requested_attrs.begin(), req.requested_attrs.end(),
                    "category"),
        req.requested_attrs.end());
  }
  return out;
}

/// What `search` must return: the master record (when the filter matches)
/// projected onto the requested attributes.
std::vector<storage::Record> ExpectedEntries(workload::Testbed& bed,
                                             const SeededSearch& search) {
  auto loc = bed.udr().AuthoritativeLookup(search.identity);
  EXPECT_TRUE(loc.ok());
  if (!loc.ok()) return {};
  const replication::ReplicaSet* rs = bed.udr().partition(loc->partition);
  const storage::Record* master =
      rs->replica_store(rs->master_id()).Find(loc->key);
  EXPECT_NE(master, nullptr);
  if (master == nullptr) return {};
  auto filter = ldap::Filter::Parse(search.request.filter);
  EXPECT_TRUE(filter.ok());
  if (!filter.ok()) return {};
  const bool matches = filter->kind() == ldap::Filter::Kind::kPresence ||
                       filter->Matches(*master);
  if (!matches) return {};
  if (search.request.requested_attrs.empty()) return {*master};
  storage::Record want;
  for (const std::string& name : search.request.requested_attrs) {
    if (const storage::Attribute* a = master->Find(name)) {
      want.Set(name, a->value, a->modified_at, a->writer);
    }
  }
  return {want};
}

enum class SearchPath { kSubmit, kSubmitBatch, kSubmitEvent };

/// A 10-subscriber bed for `path` (the event path needs a PoA window).
workload::TestbedOptions SearchOptions(SearchPath path,
                                       int64_t poa_cache_bytes = 0) {
  workload::TestbedOptions opts = BaseOptions(10);
  if (path == SearchPath::kSubmitEvent) {
    opts.udr.coalesce_window_us = Micros(200);
  }
  opts.udr.poa_cache_bytes = poa_cache_bytes;
  opts.udr.poa_cache_admit_min = 2;
  return opts;
}

/// Sends a seeded Search stream through one client entry point of `bed`
/// (settled first) and checks every result against the master copy. The
/// event path parks 1-3 events per PoA window before flushing it.
void CheckSearchStream(workload::Testbed& bed, SearchPath path) {
  storage::InternAttr(kInternedAbsentAttr);
  Settle(bed);
  std::mt19937_64 rng(1313);
  for (int round = 0; round < 150; ++round) {
    const sim::SiteId site = static_cast<sim::SiteId>(rng() % 3);
    const size_t events = path == SearchPath::kSubmitEvent ? 1 + rng() % 3 : 1;
    std::vector<std::vector<SeededSearch>> searches(events);
    std::vector<std::vector<ldap::LdapResult>> results(events);
    std::vector<uint64_t> handles;
    for (size_t e = 0; e < events; ++e) {
      const size_t n = path == SearchPath::kSubmit ? 1 : 1 + rng() % 6;
      std::vector<ldap::LdapRequest> requests;
      for (size_t i = 0; i < n; ++i) {
        searches[e].push_back(RandomSearch(rng, bed.factory()));
        requests.push_back(searches[e].back().request);
      }
      switch (path) {
        case SearchPath::kSubmit:
          results[e].push_back(bed.udr().Submit(requests.front(), site));
          break;
        case SearchPath::kSubmitBatch:
          results[e] = bed.udr().SubmitBatch(requests, site).results;
          break;
        case SearchPath::kSubmitEvent: {
          auto handle = bed.udr().SubmitEvent(requests, site);
          ASSERT_TRUE(handle.ok()) << handle.status().ToString();
          handles.push_back(*handle);
          break;
        }
      }
    }
    if (path == SearchPath::kSubmitEvent) {
      bed.udr().FlushEvents();
      for (size_t e = 0; e < events; ++e) {
        auto out = bed.udr().TakeEvent(handles[e]);
        ASSERT_TRUE(out.has_value());
        results[e] = out->results;
      }
    }
    for (size_t e = 0; e < events; ++e) {
      ASSERT_EQ(results[e].size(), searches[e].size());
      for (size_t i = 0; i < results[e].size(); ++i) {
        const ldap::LdapResult& r = results[e][i];
        const std::string what = "round " + std::to_string(round) + " op " +
                                 std::to_string(i) + " " +
                                 searches[e][i].request.dn.ToString();
        ASSERT_EQ(r.code, ldap::LdapResultCode::kSuccess)
            << what << ": " << r.diagnostic;
        const std::vector<storage::Record> want =
            ExpectedEntries(bed, searches[e][i]);
        ASSERT_EQ(r.entries.size(), want.size()) << what;
        for (size_t k = 0; k < want.size(); ++k) {
          EXPECT_TRUE(r.entries[k].record == want[k]) << what;
        }
      }
    }
  }
}

TEST(SearchProjectionTest, EntriesEqualTheMasterProjectionOnEveryPath) {
  for (SearchPath path : {SearchPath::kSubmit, SearchPath::kSubmitBatch,
                          SearchPath::kSubmitEvent}) {
    SCOPED_TRACE(static_cast<int>(path));
    workload::Testbed bed(SearchOptions(path));
    CheckSearchStream(bed, path);
  }
}

TEST(SearchProjectionTest, PoaCacheServesTheSameEntries) {
  // A kNearest miss at a caching PoA reads the whole record (it may seed the
  // cache); a hit projects from the cached copy. Both must match the master.
  for (SearchPath path : {SearchPath::kSubmit, SearchPath::kSubmitBatch,
                          SearchPath::kSubmitEvent}) {
    SCOPED_TRACE(static_cast<int>(path));
    workload::Testbed bed(SearchOptions(path, /*poa_cache_bytes=*/1 << 20));
    CheckSearchStream(bed, path);
    EXPECT_GT(bed.udr().metrics().Get("router.cache.insertions"), 0);
    EXPECT_GT(bed.udr().metrics().Get("router.cache.hits"), 0);
  }
}

TEST(SearchProjectionTest, SearchSeesAnAttributeAModifyInternedEarlier) {
  // The name is interned by the Modify's dispatch, after the Search was
  // translated: the Search must still return it (no projection may drop it).
  workload::Testbed bed(BaseOptions(3));
  Settle(bed);
  const std::string fresh = "projection-fresh-attr";
  ASSERT_EQ(storage::LookupAttr(fresh), storage::kInvalidAttrId);
  const ldap::Dn dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(1));
  ldap::LdapRequest modify;
  modify.op = ldap::LdapOp::kModify;
  modify.dn = dn;
  modify.mods.push_back({ldap::ModType::kReplace, fresh, std::string("x")});
  ldap::LdapRequest search;
  search.dn = dn;
  search.master_only = true;
  search.requested_attrs = {fresh, "msisdn"};
  ldap::LdapBatchResult out = bed.udr().SubmitBatch({modify, search}, 0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.results[1].entries.size(), 1u);
  const storage::Record& got = out.results[1].entries[0].record;
  ASSERT_TRUE(got.Has(fresh));
  EXPECT_EQ(storage::ValueToString(*got.Get(fresh)), "x");
  EXPECT_EQ(*got.Get("msisdn"), storage::Value(bed.factory().MsisdnOf(1)));
  EXPECT_EQ(got.attribute_count(), 2u);
}

}  // namespace
}  // namespace udr::routing
