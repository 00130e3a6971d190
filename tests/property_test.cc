// Property-based tests: invariants that must hold across randomized inputs
// and configuration sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P).
//
// Covered invariants:
//   * IntervalSet behaves exactly like a naive reference implementation
//     under random insertions;
//   * Histogram percentiles stay within the bucket resolution of exact
//     order statistics for arbitrary distributions;
//   * DN and Filter string forms round-trip;
//   * replicated state converges: after any partition/crash episode heals,
//     every up replica equals the master copy (CP mode), for every sync
//     mode and replication factor;
//   * the UDR data path keeps the identity indexes consistent: every
//     provisioned identity resolves to a record that contains it, from
//     every PoA, under every deployment shape;
//   * traffic conservation: attempted == ok + failed for every class;
//   * catch-up by adoption leaves every store exactly as log replay would:
//     a ReplicaSet driven through creates, modifies, removes, delete and
//     re-create, partial delivery, crash/recovery, failover, AP divergence
//     with restoration and a re-home between co-hosted partitions matches a
//     replay-only twin record for record, version for version, byte for
//     byte and in slot order;
//   * acked writes under crashes, recoveries and isolations: majority mode
//     (QUORUM + ELECT_MAJORITY) never loses one, and an async failover's
//     lost_transactions equals the acked writes the promoted master lacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "ldap/dn.h"
#include "ldap/filter.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/partition_schedule.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr {
namespace {

// ---------------------------------------------------------------------------
// IntervalSet vs naive reference
// ---------------------------------------------------------------------------

class IntervalSetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetProperty, MatchesNaiveReference) {
  Rng rng(GetParam());
  sim::IntervalSet set;
  std::set<int64_t> covered;  // Naive: every covered microsecond.
  for (int i = 0; i < 60; ++i) {
    int64_t begin = static_cast<int64_t>(rng.Uniform(500));
    int64_t len = static_cast<int64_t>(rng.Uniform(40));
    set.Add(begin, begin + len);
    for (int64_t t = begin; t < begin + len; ++t) covered.insert(t);
  }
  for (int64_t t = 0; t < 560; ++t) {
    EXPECT_EQ(set.Covers(t), covered.count(t) > 0) << "t=" << t;
  }
  // NextClear agrees with the naive forward scan.
  for (int64_t t = 0; t < 560; t += 7) {
    int64_t expect = t;
    while (covered.count(expect) > 0) ++expect;
    EXPECT_EQ(set.NextClear(t), expect) << "t=" << t;
  }
  // OutageWithin agrees with counting.
  int64_t total = set.OutageWithin(0, 600);
  EXPECT_EQ(total, static_cast<int64_t>(covered.size()));
  // Intervals are sorted and disjoint.
  const auto& ivs = set.intervals();
  for (size_t i = 1; i < ivs.size(); ++i) {
    EXPECT_GT(ivs[i].begin, ivs[i - 1].end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Histogram percentile accuracy
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, PercentilesWithinBucketResolution) {
  Rng rng(GetParam() * 977);
  Histogram h;
  std::vector<int64_t> values;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    int64_t v = 0;
    switch (GetParam() % 3) {
      case 0:
        v = static_cast<int64_t>(rng.Uniform(1000000));
        break;
      case 1:
        v = static_cast<int64_t>(rng.Exponential(5000.0));
        break;
      default:
        v = static_cast<int64_t>(std::max(0.0, rng.Normal(100000, 20000)));
        break;
    }
    h.Record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    int64_t exact = values[static_cast<size_t>(p / 100.0 * (n - 1))];
    int64_t approx = h.Percentile(p);
    // Log-bucketed storage: <= 12.5% relative error plus one bucket slack.
    EXPECT_LE(approx, exact + exact / 4 + 16) << "p=" << p;
    EXPECT_GE(approx, exact - exact / 4 - 16) << "p=" << p;
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramProperty,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// DN / Filter round-trips
// ---------------------------------------------------------------------------

class DnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DnRoundTrip, ParseToStringIdentity) {
  auto dn = ldap::Dn::Parse(GetParam());
  ASSERT_TRUE(dn.ok()) << GetParam();
  auto again = ldap::Dn::Parse(dn->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*dn, *again);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DnRoundTrip,
    ::testing::Values("imsi=214050000000001,ou=subscribers,dc=udr",
                      "msisdn=+34600000001,ou=subscribers,dc=udr",
                      "impu=sip:alice@ims.example,ou=subscribers,dc=udr",
                      "cn=Doe\\, John,ou=people,dc=udr", "dc=udr",
                      "impi=user@realm,ou=subscribers,dc=udr"));

class FilterRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterRoundTrip, ParseToStringStable) {
  auto f = ldap::Filter::Parse(GetParam());
  ASSERT_TRUE(f.ok()) << GetParam();
  auto again = ldap::Filter::Parse(f->ToString());
  ASSERT_TRUE(again.ok()) << f->ToString();
  EXPECT_EQ(f->ToString(), again->ToString());
  // Both parse trees agree on a sample record.
  storage::Record r;
  r.Set("msisdn", std::string("+34600000001"), 0, 0);
  r.Set("barred", false, 0, 0);
  r.Set("sqn", int64_t{41}, 0, 0);
  EXPECT_EQ(f->Matches(r), again->Matches(r));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FilterRoundTrip,
    ::testing::Values("(msisdn=+34600000001)", "(barred=*)",
                      "(&(msisdn=+34600000001)(barred=false))",
                      "(|(a=1)(b=2)(c=3))", "(!(barred=true))",
                      "(sqn>=40)", "(sqn<=42)",
                      "(&(|(a=1)(msisdn=+34600000001))(!(ghost=*)))"));

// ---------------------------------------------------------------------------
// Replication convergence under random partition/crash episodes
// ---------------------------------------------------------------------------

struct ConvergenceParam {
  int replicas;
  replication::SyncMode sync;
  uint64_t seed;
};

class ReplicationConvergence
    : public ::testing::TestWithParam<ConvergenceParam> {};

TEST_P(ReplicationConvergence, UpReplicasEqualMasterAfterQuiescence) {
  const ConvergenceParam param = GetParam();
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = param.sync;
  workload::ReplicaRig rig(cfg, static_cast<uint32_t>(param.replicas));
  sim::SimClock& clock = rig.clock();
  replication::ReplicaSet& rs = rig.set();
  Rng rng(param.seed);

  clock.AdvanceTo(Seconds(1));
  int accepted = 0;
  for (int step = 0; step < 120; ++step) {
    clock.Advance(Millis(200));
    // Random partition episodes between random site pairs.
    if (rng.Bernoulli(0.08) && param.replicas > 1) {
      sim::SiteId a = static_cast<sim::SiteId>(rng.Uniform(param.replicas));
      sim::SiteId b = static_cast<sim::SiteId>(rng.Uniform(param.replicas));
      rig.network().partitions().CutLink(a, b, clock.Now(),
                                         clock.Now() + Seconds(2));
    }
    replication::WriteBuilder wb;
    wb.Set(rng.Uniform(10), "v", static_cast<int64_t>(step));
    auto w = rs.Write(static_cast<sim::SiteId>(rng.Uniform(param.replicas)),
                      std::move(wb).Build());
    if (w.status.ok()) ++accepted;
  }
  EXPECT_GT(accepted, 0);
  // Quiesce: all partitions heal, everyone catches up.
  clock.Advance(Seconds(30));
  rs.CatchUpAll();
  const storage::RecordStore& master = rs.replica_store(rs.master_id());
  for (uint32_t id = 0; id < rs.replica_count(); ++id) {
    if (!rs.replica_up(id)) continue;
    EXPECT_EQ(rs.applied_seq(id), rs.log().LastSeq()) << "replica " << id;
    for (storage::RecordKey k = 0; k < 10; ++k) {
      const storage::Record* m = master.Find(k);
      const storage::Record* r = rs.replica_store(id).Find(k);
      ASSERT_EQ(m == nullptr, r == nullptr) << "replica " << id << " key " << k;
      if (m != nullptr) {
        EXPECT_TRUE(*m == *r) << "replica " << id << " key " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicationConvergence,
    ::testing::Values(
        ConvergenceParam{2, replication::SyncMode::kAsync, 101},
        ConvergenceParam{3, replication::SyncMode::kAsync, 102},
        ConvergenceParam{3, replication::SyncMode::kAsync, 103},
        ConvergenceParam{3, replication::SyncMode::kDualSequence, 104},
        ConvergenceParam{5, replication::SyncMode::kAsync, 105},
        ConvergenceParam{5, replication::SyncMode::kQuorum, 106},
        ConvergenceParam{4, replication::SyncMode::kDualSequence, 107}));

// ---------------------------------------------------------------------------
// UDR identity-index consistency across deployment shapes
// ---------------------------------------------------------------------------

struct DeployParam {
  uint32_t sites;
  int se_per_cluster;
  int replication_factor;
  bool pinned;
};

class UdrDeploymentProperty : public ::testing::TestWithParam<DeployParam> {};

TEST_P(UdrDeploymentProperty, EveryIdentityResolvesEverywhere) {
  const DeployParam p = GetParam();
  workload::TestbedOptions o;
  o.sites = p.sites;
  o.udr.se_per_cluster = p.se_per_cluster;
  o.udr.replication_factor = p.replication_factor;
  o.subscribers = 40;
  o.pin_home_sites = p.pinned;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(1));
  bed.udr().CatchUpAllPartitions();

  for (uint64_t i = 0; i < 40; ++i) {
    telecom::Subscriber s = bed.factory().Make(i);
    location::LocationEntry first{};
    bool have_first = false;
    for (uint32_t site = 0; site < p.sites; ++site) {
      for (const auto& id :
           {s.ImsiId(), s.MsisdnId(), s.ImpuId(),
            location::Identity{location::IdentityType::kImpi, s.impi}}) {
        auto r = bed.udr().Locate(id, site);
        ASSERT_TRUE(r.status.ok())
            << id.ToString() << " at site " << site;
        if (!have_first) {
          first = r.entry;
          have_first = true;
        } else {
          // All identities of one subscriber map to one record everywhere.
          EXPECT_EQ(r.entry, first) << id.ToString() << " site " << site;
        }
      }
    }
    // The record actually holds the identity attributes.
    auto* rs = bed.udr().partition(first.partition);
    auto rec = rs->ReadRecord(0, first.key,
                              replication::ReadPreference::kMasterOnly);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(storage::ValueToString(*rec->Get("imsi")), s.imsi);
    // Replica count honors the configured factor (capped by SE count).
    EXPECT_LE(rs->replica_count(),
              static_cast<size_t>(p.replication_factor));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UdrDeploymentProperty,
    ::testing::Values(DeployParam{1, 2, 2, false}, DeployParam{2, 1, 2, false},
                      DeployParam{3, 2, 3, true}, DeployParam{4, 2, 3, true},
                      DeployParam{5, 1, 3, false}, DeployParam{3, 4, 2, true}));

// ---------------------------------------------------------------------------
// Storage durability: crash recovery == replay of the durable prefix
// ---------------------------------------------------------------------------

class CrashRecoveryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryProperty, RecoveredStateEqualsDurablePrefixReplay) {
  Rng rng(GetParam());
  sim::SimClock clock;
  storage::StorageElementConfig cfg;
  cfg.checkpoint_period = Seconds(30);
  storage::StorageElement se(cfg, &clock);

  // Shadow log of committed operations for the reference replay.
  storage::CommitLog shadow;
  for (int i = 0; i < 200; ++i) {
    clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(2000)) + 1));
    storage::Transaction txn = se.Begin();
    std::vector<storage::WriteOp> ops;
    int writes = 1 + static_cast<int>(rng.Uniform(3));
    bool all_ok = true;
    for (int w = 0; w < writes; ++w) {
      storage::RecordKey key = rng.Uniform(30);
      if (rng.Bernoulli(0.1)) {
        if (!txn.DeleteRecord(key).ok()) all_ok = false;
        storage::WriteOp op;
        op.kind = storage::WriteKind::kDeleteRecord;
        op.key = key;
        ops.push_back(op);
      } else {
        storage::Value v = static_cast<int64_t>(rng.Uniform(1000));
        if (!txn.SetAttribute(key, "v", v).ok()) all_ok = false;
        storage::WriteOp op;
        op.kind = storage::WriteKind::kUpsertAttr;
        op.key = key;
        op.attr_id = storage::InternAttr("v");
        op.attribute = {v, clock.Now(), 0};
        ops.push_back(op);
      }
    }
    if (!all_ok || rng.Bernoulli(0.1)) {
      txn.Abort();  // Aborted transactions must leave no trace.
      continue;
    }
    auto seq = txn.Commit(clock.Now());
    ASSERT_TRUE(seq.ok());
    // Mirror committed ops (with identical stamps) into the shadow log.
    for (auto& op : ops) {
      if (op.kind == storage::WriteKind::kUpsertAttr) {
        op.attribute.modified_at = clock.Now();
      }
    }
    shadow.Append(clock.Now(), 0, std::move(ops));
  }

  // Crash at a random instant; the recovered store must equal the shadow
  // replayed up to the checkpointed prefix.
  clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(60000))));
  storage::CommitSeq durable = se.DurableSeqAt(clock.Now());
  storage::CrashRecovery rec = se.CrashAndRecoverLocally(clock.Now());
  EXPECT_EQ(rec.recovered_seq, durable);

  storage::RecordStore reference;
  shadow.ReplayRange(&reference, 0, durable);
  EXPECT_EQ(se.store().Count(), reference.Count());
  reference.ForEach([&](storage::RecordKey key, const storage::Record& want) {
    const storage::Record* got = se.store().Find(key);
    ASSERT_NE(got, nullptr) << "key " << key;
    auto wv = want.Get("v");
    auto gv = got->Get("v");
    ASSERT_EQ(wv.has_value(), gv.has_value()) << "key " << key;
    if (wv.has_value()) {
      EXPECT_TRUE(storage::ValueEquals(*wv, *gv)) << "key " << key;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryProperty,
                         ::testing::Range<uint64_t>(301, 309));

// ---------------------------------------------------------------------------
// Catch-up by adoption against a replay-only twin
// ---------------------------------------------------------------------------

/// Shadow stores, one per storage element, holding what replay alone leaves
/// there: each replica's newly applied log entries replay through
/// CommitLog::ReplayRange (never adopting), and the writes that bypass the
/// log (divergent AP writes, resync drops, surgical deletes) are mirrored as
/// ReplicaSet makes them.
class ReplayTwin {
 public:
  explicit ReplayTwin(size_t se_count) : stores_(se_count) {}

  storage::RecordStore& store(size_t se) { return stores_[se]; }

  /// Follows `rs`, whose replica i lives on storage element se_of[i].
  size_t Follow(const replication::ReplicaSet* rs, std::vector<size_t> se_of) {
    Set set;
    set.rs = rs;
    set.se_of = std::move(se_of);
    set.mirrored.assign(set.se_of.size(), 0);
    set.divergence.resize(set.se_of.size());
    sets_.push_back(std::move(set));
    return sets_.size() - 1;
  }

  /// Replays the entries each replica applied since the last call.
  void Sync() {
    for (Set& set : sets_) {
      for (uint32_t id = 0; id < set.se_of.size(); ++id) {
        const storage::CommitSeq applied = set.rs->applied_seq(id);
        ASSERT_GE(applied, set.mirrored[id]) << "replica " << id;
        if (applied == set.mirrored[id]) continue;  // May be past a truncation.
        set.rs->log().ReplayRange(&stores_[set.se_of[id]], set.mirrored[id],
                                  applied);
        set.mirrored[id] = applied;
      }
    }
  }

  /// Mirrors a divergent write that replica `id` took at `now`.
  void Diverged(size_t s, uint32_t id, std::vector<storage::WriteOp> ops,
                MicroTime now) {
    for (storage::WriteOp& op : ops) {
      if (op.kind == storage::WriteKind::kUpsertAttr) {
        op.attribute.modified_at = now;
        op.attribute.writer = id;
      }
    }
    storage::ApplyWriteOps(&stores_[sets_[s].se_of[id]], ops);
    sets_[s].divergence[id].push_back(std::move(ops));
  }

  /// Mirrors RecoverReplica(id): the keys of the log and of the replica's
  /// divergent writes leave its store, and it starts over from seq 0.
  void Recovered(size_t s, uint32_t id) {
    Drop(s, id);
    sets_[s].divergence[id].clear();
  }

  /// Mirrors RestoreConsistency(): every divergence log is merged, then
  /// every up non-master replica drops the log's keys and starts over.
  void Restored(size_t s) {
    Set& set = sets_[s];
    for (auto& d : set.divergence) d.clear();
    for (uint32_t id = 0; id < set.se_of.size(); ++id) {
      if (id != set.rs->master_id() && set.rs->replica_up(id)) Drop(s, id);
    }
  }

 private:
  struct Set {
    const replication::ReplicaSet* rs = nullptr;
    std::vector<size_t> se_of;
    std::vector<storage::CommitSeq> mirrored;
    std::vector<std::vector<std::vector<storage::WriteOp>>> divergence;
  };

  // Same key set, built in the same order, as ReplicaSet's resync drop.
  void Drop(size_t s, uint32_t id) {
    Set& set = sets_[s];
    std::unordered_set<storage::RecordKey> keys;
    for (const storage::LogEntry& e : set.rs->log().entries()) {
      for (const storage::WriteOp& op : e.ops) keys.insert(op.key);
    }
    for (const auto& ops : set.divergence[id]) {
      for (const storage::WriteOp& op : ops) keys.insert(op.key);
    }
    for (storage::RecordKey key : keys) {
      stores_[set.se_of[id]].DeleteRecord(key);
    }
    set.mirrored[id] = 0;
  }

  std::vector<storage::RecordStore> stores_;
  std::vector<Set> sets_;
};

/// `got` holds exactly `want`'s records, versions, bytes and slot order.
void ExpectSameStore(const storage::RecordStore& got,
                     const storage::RecordStore& want,
                     const std::string& where) {
  ASSERT_EQ(got.Count(), want.Count()) << where;
  ASSERT_EQ(got.ApproxBytes(), want.ApproxBytes()) << where;
  std::vector<storage::RecordKey> got_order;
  std::vector<storage::RecordKey> want_order;
  got.ForEach([&](storage::RecordKey key, const storage::Record&) {
    got_order.push_back(key);
  });
  want.ForEach([&](storage::RecordKey key, const storage::Record& r) {
    want_order.push_back(key);
    const storage::Record* g = got.Find(key);
    ASSERT_NE(g, nullptr) << where << " key " << key;
    EXPECT_TRUE(*g == r) << where << " key " << key;
    EXPECT_EQ(g->version(), r.version()) << where << " key " << key;
    EXPECT_EQ(g->ApproxBytes(), r.ApproxBytes()) << where << " key " << key;
  });
  ASSERT_EQ(got_order, want_order) << where;
}

struct AdoptionParam {
  uint64_t seed;
  replication::SyncMode sync;
  replication::PartitionMode partition;
};

class AdoptionDifferential : public ::testing::TestWithParam<AdoptionParam> {};

TEST_P(AdoptionDifferential, EveryStoreMatchesReplayOnlyTwin) {
  const AdoptionParam param = GetParam();
  constexpr size_t kSes = 4;
  sim::SimClock clock;
  sim::LatencyConfig lc;
  lc.backbone_one_way = Millis(15);
  sim::Network network(sim::Topology(kSes, lc), &clock);
  std::vector<std::unique_ptr<storage::StorageElement>> ses;
  for (size_t s = 0; s < kSes; ++s) {
    storage::StorageElementConfig cfg;
    cfg.site = static_cast<sim::SiteId>(s);
    ses.push_back(std::make_unique<storage::StorageElement>(
        cfg, &clock, static_cast<uint32_t>(s)));
  }
  // Two co-hosted partitions, as a hash ring split leaves them: P is
  // mastered on SE 1, which also hosts a copy of Q; SE 0 hosts only P.
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = param.sync;
  cfg.partition_mode = param.partition;
  const std::vector<size_t> p_ses = {1, 0, 2};
  const std::vector<size_t> q_ses = {3, 2, 1};
  const auto elements = [&ses](const std::vector<size_t>& which) {
    std::vector<storage::StorageElement*> out;
    for (size_t s : which) out.push_back(ses[s].get());
    return out;
  };
  replication::ReplicaSet p(cfg, elements(p_ses), &network);
  replication::ReplicaSet q(cfg, elements(q_ses), &network);
  ReplayTwin twin(kSes);
  const size_t tp = twin.Follow(&p, p_ses);
  const size_t tq = twin.Follow(&q, q_ses);

  Rng rng(param.seed);
  std::vector<storage::RecordKey> p_keys;  // Live in P.
  std::vector<storage::RecordKey> q_keys;  // Re-homed into Q (and back).
  std::vector<storage::RecordKey> deleted;
  storage::RecordKey next_key = 1;
  const auto pick = [&rng](std::vector<storage::RecordKey>* keys) {
    const size_t i = rng.Uniform(keys->size());
    return (*keys)[i];
  };
  const auto erase = [](std::vector<storage::RecordKey>* keys,
                        storage::RecordKey key) {
    keys->erase(std::find(keys->begin(), keys->end(), key));
  };
  const auto profile = [&rng](storage::RecordKey key) {
    replication::WriteBuilder wb;
    const uint64_t attrs = 4 + rng.Uniform(8);
    for (uint64_t a = 0; a < attrs; ++a) {
      const std::string name = "attr-" + std::to_string(rng.Uniform(12));
      if (rng.Uniform(2) == 0) {
        wb.Set(key, name, std::string(10 + rng.Uniform(30), 'p'));
      } else {
        wb.Set(key, name, static_cast<int64_t>(rng.Uniform(1000)));
      }
    }
    return std::move(wb).Build();
  };
  // Commits `ops` through `rs` from a random site; mirrors a divergent
  // write into the twin. Returns true when the write was accepted.
  const auto write = [&](replication::ReplicaSet* rs, size_t t,
                         std::vector<storage::WriteOp> ops) {
    const auto site = static_cast<sim::SiteId>(rng.Uniform(kSes));
    std::vector<storage::WriteOp> copy = ops;
    const replication::WriteResult w = rs->Write(site, std::move(ops));
    if (w.diverged) twin.Diverged(t, w.served_by, std::move(copy), clock.Now());
    twin.Sync();
    return w.status.ok();
  };

  clock.AdvanceTo(Seconds(1));
  int64_t adopted = 0;
  for (int step = 0; step < 500; ++step) {
    clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(40))));
    const uint64_t action = rng.Uniform(20);
    if (action < 5 || p_keys.empty()) {  // Create a subscriber in P.
      const storage::RecordKey key = next_key++;
      if (write(&p, tp, profile(key))) p_keys.push_back(key);
    } else if (action < 8) {  // Modify.
      const storage::RecordKey key = pick(&p_keys);
      replication::WriteBuilder wb;
      wb.Set(key, "attr-" + std::to_string(rng.Uniform(12)),
             std::string(5 + rng.Uniform(30), 'm'));
      if (rng.Bernoulli(0.5)) {
        wb.Remove(key, "attr-" + std::to_string(rng.Uniform(12)));
      }
      write(&p, tp, std::move(wb).Build());
    } else if (action < 9) {  // Remove an attribute, maybe of a gone key.
      const bool live = rng.Bernoulli(0.2) || deleted.empty();
      const storage::RecordKey key = live ? pick(&p_keys) : pick(&deleted);
      replication::WriteBuilder wb;
      wb.Remove(key, "attr-" + std::to_string(rng.Uniform(12)));
      write(&p, tp, std::move(wb).Build());
    } else if (action < 10) {  // Delete, to be re-created later.
      const storage::RecordKey key = pick(&p_keys);
      replication::WriteBuilder wb;
      wb.Delete(key);
      if (write(&p, tp, std::move(wb).Build())) {
        erase(&p_keys, key);
        deleted.push_back(key);
      }
    } else if (action < 11 && !deleted.empty()) {  // Re-create.
      const storage::RecordKey key = pick(&deleted);
      if (write(&p, tp, profile(key))) {
        erase(&deleted, key);
        p_keys.push_back(key);
      }
    } else if (action < 12) {  // Partial delivery: cut a backbone link.
      const auto a = static_cast<sim::SiteId>(rng.Uniform(kSes));
      const auto b = static_cast<sim::SiteId>(rng.Uniform(kSes));
      if (a != b) {
        const auto outage =
            Millis(static_cast<int64_t>(200 + rng.Uniform(3000)));
        network.partitions().CutLink(a, b, clock.Now(), clock.Now() + outage);
      }
    } else if (action < 13) {  // Crash one replica at a time.
      replication::ReplicaSet* rs = rng.Bernoulli(0.7) ? &p : &q;
      bool all_up = true;
      for (uint32_t id = 0; id < rs->replica_count(); ++id) {
        all_up = all_up && rs->replica_up(id);
      }
      if (all_up) {
        const auto id = static_cast<uint32_t>(rng.Uniform(rs->replica_count()));
        rs->CrashReplica(id);
        // A crashed master fails over at once (its log suffix truncates).
        if (id == rs->master_id()) {
          ASSERT_TRUE(rs->FailOver().ok());
        }
        twin.Sync();
      }
    } else if (action < 14) {  // Recover.
      for (auto [rs, t] : {std::pair{&p, tp}, std::pair{&q, tq}}) {
        for (uint32_t id = 0; id < rs->replica_count(); ++id) {
          if (rs->replica_up(id)) continue;
          rs->RecoverReplica(id);
          twin.Recovered(t, id);
          twin.Sync();
        }
      }
    } else if (action < 15 && !p_keys.empty()) {
      // Hash re-home P -> Q, as UdrNf::RehomeOne does it: Q writes the
      // record, and the SE that hosts only P drops its row outside the log.
      const storage::RecordKey key = pick(&p_keys);
      auto record = p.ReadRecord(p.master_site(), key,
                                 replication::ReadPreference::kMasterOnly);
      twin.Sync();
      if (record.ok() && record->attribute_count() != 0) {
        replication::WriteBuilder put;
        put.PutRecord(key, *record);
        if (write(&q, tq, std::move(put).Build())) {
          ses[0]->store().DeleteRecord(key);
          twin.store(0).DeleteRecord(key);
          erase(&p_keys, key);
          q_keys.push_back(key);
        }
      }
    } else if (action < 16 && !q_keys.empty()) {  // Write a re-homed key.
      const storage::RecordKey key = pick(&q_keys);
      if (rng.Bernoulli(0.3)) {
        // A later ring change homes it in P again; SE 3 hosts only Q.
        auto record = q.ReadRecord(q.master_site(), key,
                                   replication::ReadPreference::kMasterOnly);
        twin.Sync();
        if (record.ok() && record->attribute_count() != 0) {
          replication::WriteBuilder put;
          put.PutRecord(key, *record);
          if (write(&p, tp, std::move(put).Build())) {
            ses[3]->store().DeleteRecord(key);
            twin.store(3).DeleteRecord(key);
            erase(&q_keys, key);
            p_keys.push_back(key);
          }
        }
      } else {
        replication::WriteBuilder wb;
        wb.Set(key, "attr-" + std::to_string(rng.Uniform(12)), int64_t{7});
        if (rng.Bernoulli(0.5)) {
          wb.Remove(key, "attr-" + std::to_string(rng.Uniform(12)));
        }
        write(&q, tq, std::move(wb).Build());
      }
    } else if (action < 17) {  // Heal, merge divergence, resync (§5).
      clock.Advance(Seconds(4));
      for (auto [rs, t] : {std::pair{&p, tp}, std::pair{&q, tq}}) {
        rs->CatchUpAll();
        twin.Sync();
        if (rs->HasDivergence()) {
          rs->RestoreConsistency();
          twin.Restored(t);
          twin.Sync();
        }
      }
    } else if (action < 18) {
      (rng.Bernoulli(0.5) ? p : q).ForceSyncAll();
    } else {  // Catch-up, by delivery horizon.
      clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(500))));
      p.CatchUpAll();
      twin.Sync();
      q.CatchUpAll();
    }
    twin.Sync();
    for (size_t se = 0; se < kSes; ++se) {
      ExpectSameStore(ses[se]->store(), twin.store(se),
                      "step " + std::to_string(step) + " se " +
                          std::to_string(se));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (uint32_t id = 0; id < p.replica_count(); ++id) {
      if (id == p.master_id()) continue;
      p.replica_store(id).ForEach(
          [&](storage::RecordKey key, const storage::Record& r) {
            const storage::Record* m = p.replica_store(p.master_id()).Find(key);
            if (m != nullptr && r.SharesPayloadWith(*m)) ++adopted;
          });
    }
  }
  // Adoption really ran (a shared record counts once per check it survives).
  EXPECT_GT(adopted, 1000);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AdoptionDifferential,
    ::testing::Values(
        AdoptionParam{501, replication::SyncMode::kAsync,
                      replication::PartitionMode::kPreferConsistency},
        AdoptionParam{502, replication::SyncMode::kAsync,
                      replication::PartitionMode::kPreferAvailability},
        AdoptionParam{503, replication::SyncMode::kDualSequence,
                      replication::PartitionMode::kPreferConsistency},
        AdoptionParam{504, replication::SyncMode::kAsync,
                      replication::PartitionMode::kPreferAvailability},
        AdoptionParam{505, replication::SyncMode::kDualSequence,
                      replication::PartitionMode::kPreferAvailability},
        AdoptionParam{506, replication::SyncMode::kAsync,
                      replication::PartitionMode::kPreferConsistency}));

// ---------------------------------------------------------------------------
// Acked writes under crashes and partitions
// ---------------------------------------------------------------------------

/// Five sites, one SE each, and a replica set over them. Writes come from
/// random sites, one fresh key each, interleaved with replica crashes and
/// recoveries, site isolations and catch-up. The test keeps its own ledger
/// of every (key, value) the set acknowledged.
class AckedWriteProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint32_t kSites = 5;

  void Build(replication::ReplicaSetConfig cfg) {
    rig_ = std::make_unique<workload::ReplicaRig>(cfg, kSites);
    clock().AdvanceTo(Seconds(1));
  }

  sim::SimClock& clock() { return rig_->clock(); }
  replication::ReplicaSet& rs() { return rig_->set(); }

  /// Writes a fresh key from a random site; ledgers it when acked.
  void WriteOne() {
    const storage::RecordKey key = next_key_++;
    const auto value = static_cast<int64_t>(rng_.Uniform(1000000));
    replication::WriteBuilder wb;
    wb.Set(key, "v", value);
    const auto site = static_cast<sim::SiteId>(rng_.Uniform(kSites));
    if (rs().Write(site, std::move(wb).Build()).status.ok()) {
      ledger_.push_back({key, value});
    }
  }

  /// Cuts one random site, or two together, off the others for up to five
  /// seconds.
  void IsolateSites() {
    const auto a = static_cast<sim::SiteId>(rng_.Uniform(kSites));
    const auto b = static_cast<sim::SiteId>(rng_.Uniform(kSites));
    std::vector<sim::SiteId> cut = {a};
    if (b != a) cut.push_back(b);
    std::vector<sim::SiteId> rest;
    for (sim::SiteId s = 0; s < kSites; ++s) {
      if (s != a && s != b) rest.push_back(s);
    }
    const auto outage = Millis(static_cast<int64_t>(100 + rng_.Uniform(5000)));
    const MicroTime now = clock().Now();
    rig_->network().partitions().CutBetween(cut, rest, now, now + outage);
  }

  /// A random replica in the wanted state, or -1 when there is none.
  int PickReplica(bool up) {
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < rs().replica_count(); ++id) {
      if (rs().replica_up(id) == up) ids.push_back(id);
    }
    if (ids.empty()) return -1;
    return static_cast<int>(ids[rng_.Uniform(ids.size())]);
  }

  /// The ledger entries whose value the replica's store does not hold.
  std::vector<size_t> MissingOn(uint32_t replica) {
    std::vector<size_t> missing;
    for (size_t i = 0; i < ledger_.size(); ++i) {
      const storage::Record* r =
          rs().replica_store(replica).Find(ledger_[i].key);
      const auto v = r != nullptr ? r->Get("v") : std::nullopt;
      if (!v.has_value() ||
          !storage::ValueEquals(*v, storage::Value(ledger_[i].value))) {
        missing.push_back(i);
      }
    }
    return missing;
  }

  struct Acked {
    storage::RecordKey key;
    int64_t value;
  };

  Rng rng_{GetParam()};
  std::unique_ptr<workload::ReplicaRig> rig_;
  std::vector<Acked> ledger_;
  storage::RecordKey next_key_ = 1;
};

// QUORUM + ELECT_MAJORITY (the §6 consensus model): no acked write is ever
// lost or diverges, whatever recoveries and isolations interleave with it.
// A crash loses the replica's RAM, which is its only copy here, so the
// guarantee covers one lost copy at a time: a replica crashes only once the
// shipper has had time to deliver and every other replica is up and holds
// the whole log. The lazy one-second shipper leaves non-acking replicas
// behind between crashes, so an isolation that catches the master with
// its acking followers shows whether the acks really reached a majority.
TEST_P(AckedWriteProperty, MajorityModeLosesNoAckedWrite) {
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = replication::SyncMode::kQuorum;
  cfg.partition_mode = replication::PartitionMode::kElectMajority;
  cfg.async_ship_delay = Seconds(1);
  Build(cfg);
  const auto others_whole = [this, &cfg](uint32_t victim) {
    clock().Advance(cfg.async_ship_delay + Millis(16));  // Past one hop.
    rs().CatchUpAll();
    for (uint32_t id = 0; id < rs().replica_count(); ++id) {
      if (id == victim) continue;
      if (!rs().replica_up(id) ||
          rs().applied_seq(id) != rs().log().LastSeq()) {
        return false;
      }
    }
    return true;
  };
  int64_t elections = 0;
  int64_t crashes = 0;
  for (int step = 0; step < 1000; ++step) {
    clock().Advance(Millis(static_cast<int64_t>(rng_.Uniform(200))));
    const uint32_t master = rs().master_id();
    const uint64_t action = rng_.Uniform(20);
    if (action < 12) {
      WriteOne();
    } else if (action < 14) {
      const int id = PickReplica(true);
      if (id >= 0 && others_whole(static_cast<uint32_t>(id))) {
        rs().CrashReplica(static_cast<uint32_t>(id));
        ++crashes;
      }
    } else if (action < 16) {
      const int id = PickReplica(false);
      if (id >= 0) rs().RecoverReplica(static_cast<uint32_t>(id));
    } else if (action < 18) {
      IsolateSites();
    } else if (action < 19) {
      rs().CatchUpAll();
    } else if (!ledger_.empty()) {  // A master-only read sees its write.
      const Acked& a = ledger_[rng_.Uniform(ledger_.size())];
      const auto site = static_cast<sim::SiteId>(rng_.Uniform(kSites));
      const replication::ReadResult r = rs().ReadAttribute(
          site, a.key, "v", replication::ReadPreference::kMasterOnly);
      if (r.status.ok()) {
        EXPECT_TRUE(storage::ValueEquals(*r.value, storage::Value(a.value)))
            << "step " << step << " key " << a.key;
      }
    }
    if (rs().master_id() != master) ++elections;
    if (rs().replica_up(rs().master_id())) {
      ASSERT_TRUE(MissingOn(rs().master_id()).empty()) << "step " << step;
    }
  }
  // Heal everything, bring every replica back, and let one write elect a
  // master if the last one is still down.
  clock().Advance(Seconds(60));
  for (uint32_t id = 0; id < rs().replica_count(); ++id) {
    if (!rs().replica_up(id)) rs().RecoverReplica(id);
  }
  WriteOne();
  ASSERT_FALSE(ledger_.empty());
  EXPECT_EQ(ledger_.back().key, next_key_ - 1) << "the final write failed";
  EXPECT_TRUE(MissingOn(rs().master_id()).empty());
  EXPECT_FALSE(rs().HasDivergence());
  // The schedule really crashed replicas, held elections and acked writes.
  EXPECT_GT(crashes, 0);
  EXPECT_GT(elections, 0);
  EXPECT_GT(ledger_.size(), 100u);
}

// ASYNC + PREFER_CONSISTENCY: a failover loses exactly the acked writes the
// promoted replica never received, and the report counts exactly those.
TEST_P(AckedWriteProperty, AsyncFailoverReportsEveryLostAckedWrite) {
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = replication::SyncMode::kAsync;
  cfg.async_ship_delay = Millis(10);
  // Writes never fail over on their own: the test calls FailOver itself
  // and so sees every report.
  cfg.failover_detection = Seconds(1000000);
  Build(cfg);
  int64_t failovers = 0;
  int64_t lost = 0;
  const auto fail_over = [&](int step) {
    auto fo = rs().FailOver();
    if (!fo.ok()) return;  // No survivor yet; retried after a recovery.
    ++failovers;
    const std::vector<size_t> missing = MissingOn(rs().master_id());
    EXPECT_EQ(fo->lost_transactions, static_cast<int64_t>(missing.size()))
        << "step " << step;
    lost += static_cast<int64_t>(missing.size());
    // Lost writes leave the ledger: the new master never held them.
    for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
      ledger_.erase(ledger_.begin() + static_cast<std::ptrdiff_t>(*it));
    }
  };
  for (int step = 0; step < 600; ++step) {
    clock().Advance(Millis(static_cast<int64_t>(rng_.Uniform(40))));
    const uint64_t action = rng_.Uniform(20);
    if (action < 13) {
      WriteOne();
    } else if (action < 15) {
      const int id = PickReplica(true);
      if (id >= 0) rs().CrashReplica(static_cast<uint32_t>(id));
    } else if (action < 17) {
      const int id = PickReplica(false);
      if (id >= 0) rs().RecoverReplica(static_cast<uint32_t>(id));
    } else if (action < 18) {
      IsolateSites();
    } else {
      rs().CatchUpAll();
    }
    if (!rs().replica_up(rs().master_id())) fail_over(step);
  }
  // Every write still in the ledger is on the final master.
  clock().Advance(Seconds(60));
  if (!rs().replica_up(rs().master_id())) {
    for (uint32_t id = 0; id < rs().replica_count(); ++id) {
      if (!rs().replica_up(id) && id != rs().master_id()) {
        rs().RecoverReplica(id);
      }
    }
    fail_over(600);
  }
  EXPECT_TRUE(MissingOn(rs().master_id()).empty());
  // The schedule really lost writes through failovers.
  EXPECT_GT(failovers, 0);
  EXPECT_GT(lost, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckedWriteProperty,
                         ::testing::Range<uint64_t>(701, 709));

// ---------------------------------------------------------------------------
// Traffic accounting conservation
// ---------------------------------------------------------------------------

class TrafficConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrafficConservation, AttemptedEqualsOkPlusFailed) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 100;
  o.pin_home_sites = true;
  workload::Testbed bed(o);
  // Random partition schedule per seed.
  Rng rng(GetParam());
  MicroTime t0 = bed.clock().Now();
  for (int i = 0; i < 3; ++i) {
    MicroTime cut = t0 + Seconds(rng.UniformRange(1, 25));
    bed.network().partitions().CutLink(
        static_cast<sim::SiteId>(rng.Uniform(3)),
        static_cast<sim::SiteId>(rng.Uniform(3)), cut,
        cut + Seconds(rng.UniformRange(1, 10)));
  }
  workload::TrafficOptions t;
  t.duration = Seconds(30);
  t.fe_rate_per_sec = 80;
  t.ps_rate_per_sec = 10;
  t.subscriber_count = 100;
  t.seed = GetParam();
  auto rep = workload::RunTraffic(bed, t);
  for (const auto* cls : {&rep.fe_read, &rep.fe_write, &rep.ps}) {
    EXPECT_EQ(cls->attempted, cls->ok + cls->failed);
    EXPECT_EQ(cls->latency.count(), cls->ok);
    EXPECT_GE(cls->availability(), 0.0);
    EXPECT_LE(cls->availability(), 1.0);
  }
  // Rates respected: ~30s * 80/s FE procedures.
  auto fe = rep.FeAll();
  EXPECT_NEAR(static_cast<double>(fe.attempted), 30.0 * 80, 81);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficConservation,
                         ::testing::Range<uint64_t>(201, 207));

}  // namespace
}  // namespace udr
