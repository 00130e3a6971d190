// Unit tests for src/telecom: subscriber generation, front-end procedures
// (op counts and latency behaviour), the Provisioning System (single
// transaction, batch, backlog) and the pre-UDC baseline.

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "telecom/front_end.h"
#include "telecom/pre_udc.h"
#include "telecom/provisioning.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

namespace udr::telecom {
namespace {

using workload::Testbed;
using workload::TestbedOptions;

// ---------------------------------------------------------------------------
// SubscriberFactory
// ---------------------------------------------------------------------------

TEST(SubscriberFactoryTest, DeterministicByIndex) {
  SubscriberFactory f1(42), f2(42);
  Subscriber a = f1.Make(7);
  Subscriber b = f2.Make(7);
  EXPECT_EQ(a.imsi, b.imsi);
  EXPECT_EQ(a.msisdn, b.msisdn);
  EXPECT_TRUE(a.profile == b.profile);
}

TEST(SubscriberFactoryTest, IdentitiesFollowNumberingPlans) {
  SubscriberFactory f(42, /*mcc=*/214, /*mnc=*/5, /*cc=*/34);
  Subscriber s = f.Make(0);
  EXPECT_EQ(s.imsi, "214050000000001");
  EXPECT_EQ(s.imsi.size(), 15u);  // E.212: 15 digits.
  EXPECT_EQ(s.msisdn.substr(0, 3), "+34");
  EXPECT_NE(s.impi.find("ims.mnc005.mcc214"), std::string::npos);
  ASSERT_EQ(s.impus.size(), 2u);
  EXPECT_EQ(s.impus[0].substr(0, 4), "sip:");
  EXPECT_EQ(s.impus[1].substr(0, 4), "tel:");
}

TEST(SubscriberFactoryTest, UniqueAcrossIndices) {
  SubscriberFactory f(42);
  EXPECT_NE(f.ImsiOf(1), f.ImsiOf(2));
  EXPECT_NE(f.MsisdnOf(1), f.MsisdnOf(2));
}

TEST(SubscriberFactoryTest, IdentityOnlyDerivationsMatchMake) {
  // The traffic loops name an FE event's subscriber through these instead of
  // building the profile: they must agree with Make under any numbering plan.
  const SubscriberFactory plans[] = {
      SubscriberFactory(42),
      SubscriberFactory(7, /*mcc=*/310, /*mnc=*/260, /*cc=*/1),
      SubscriberFactory(1, /*mcc=*/1, /*mnc=*/99, /*cc=*/886),
  };
  Rng rng(2026);
  for (const SubscriberFactory& f : plans) {
    std::vector<uint64_t> indices = {0, 1, 9, 99999, 9999999999ULL};
    for (int i = 0; i < 50; ++i) indices.push_back(rng.Uniform(1 << 30));
    for (uint64_t i : indices) {
      const Subscriber s = f.Make(i);
      EXPECT_EQ(f.ImsiOf(i), s.imsi) << i;
      EXPECT_EQ(f.MsisdnOf(i), s.msisdn) << i;
      EXPECT_EQ(f.ImpuOf(i), s.impus.front()) << i;
      EXPECT_EQ(f.IdentityOf(i, location::IdentityType::kImsi), s.ImsiId());
      EXPECT_EQ(f.IdentityOf(i, location::IdentityType::kMsisdn),
                s.MsisdnId());
      EXPECT_EQ(f.IdentityOf(i, location::IdentityType::kImpu), s.ImpuId());
      EXPECT_EQ(f.IdentityOf(i, location::IdentityType::kImpi).value, s.impi);
    }
  }
}

/// The printf formats the identity strings were specified with; the
/// factory formats them by hand and must match byte for byte.
struct ReferenceIdentities {
  int mcc;
  int mnc;
  int cc;
  uint64_t seed;

  std::string Imsi(uint64_t index) const {
    return StrFormat("%03d%02d%010llu", mcc, mnc,
                     static_cast<unsigned long long>(index + 1));
  }
  std::string Msisdn(uint64_t index) const {
    return StrFormat("+%d6%08llu", cc,
                     static_cast<unsigned long long>(index + 1));
  }
  std::string Domain() const {
    return StrFormat("@ims.mnc%03d.mcc%03d.3gppnetwork.org", mnc, mcc);
  }
  std::string Ki(uint64_t index) const {
    Rng rng(seed ^ (index * 0x9E3779B97F4A7C15ULL + 1));
    std::string ki;
    for (int i = 0; i < 4; ++i) {
      ki += StrFormat("%08llx", static_cast<unsigned long long>(
                                    rng.Next() & 0xFFFFFFFFULL));
    }
    return ki;
  }
};

void ExpectIdentitiesMatchReference(const SubscriberFactory& f,
                                    const ReferenceIdentities& ref,
                                    uint64_t index, bool whole_profile) {
  const std::string imsi = ref.Imsi(index);
  const std::string msisdn = ref.Msisdn(index);
  const std::string impu = "sip:" + msisdn + ref.Domain();
  ASSERT_EQ(f.ImsiOf(index), imsi) << index;
  ASSERT_EQ(f.MsisdnOf(index), msisdn) << index;
  ASSERT_EQ(f.ImpuOf(index), impu) << index;
  ASSERT_EQ(f.IdentityOf(index, location::IdentityType::kImpi).value,
            imsi + ref.Domain())
      << index;
  if (!whole_profile) return;
  Subscriber s = f.Make(index);
  ASSERT_EQ(s.impi, imsi + ref.Domain()) << index;
  ASSERT_EQ(s.impus, (std::vector<std::string>{impu, "tel:" + msisdn}))
      << index;
  ASSERT_EQ(std::get<storage::CompactString>(*s.profile.Get(attr::kAuthKey)),
            ref.Ki(index))
      << index;
}

TEST(SubscriberFactoryTest, HandFormattedIdentitiesMatchPrintf) {
  const std::vector<ReferenceIdentities> plans = {
      {214, 5, 34, 42},   // The default numbering plan.
      {1, 123, 1, 7},     // Narrow MCC/CC, an MNC wider than its pad.
      {999, 0, 999, 9},   // Wide CC, zero MNC.
  };
  for (const ReferenceIdentities& ref : plans) {
    SubscriberFactory f(ref.seed, ref.mcc, ref.mnc, ref.cc);
    for (uint64_t index = 0; index < 3000; ++index) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectIdentitiesMatchReference(f, ref, index, index < 300));
    }
    // Width overflow: index + 1 = 10^8 outgrows the 8-digit MSISDN field
    // and 10^10 the 10-digit MSIN; the last index wraps index + 1 to 0.
    for (uint64_t index :
         {99999998ULL, 99999999ULL, 100000000ULL, 9999999998ULL,
          9999999999ULL, 10000000000ULL, ~0ULL}) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectIdentitiesMatchReference(f, ref, index, true));
    }
  }
}

TEST(SubscriberFactoryTest, ProfileHasServiceData) {
  SubscriberFactory f(42);
  Subscriber s = f.Make(3);
  EXPECT_TRUE(s.profile.Has(attr::kAuthKey));
  EXPECT_TRUE(s.profile.Has(attr::kOdbPremium));
  EXPECT_TRUE(s.profile.Has(attr::kTeleservices));
  EXPECT_TRUE(s.profile.Has(attr::kRegistrationState));
  // 32 hex chars of Ki.
  auto ki = s.profile.Get(attr::kAuthKey);
  ASSERT_TRUE(ki.has_value());
  EXPECT_EQ(std::get<storage::CompactString>(*ki).size(), 32u);
}

TEST(SubscriberFactoryTest, SpecCarriesAllIdentities) {
  SubscriberFactory f(42);
  auto spec = f.MakeSpec(5, /*home_site=*/2);
  // IMSI + MSISDN + IMPI + 2 IMPUs.
  EXPECT_EQ(spec.identities.size(), 5u);
  ASSERT_TRUE(spec.home_site.has_value());
  EXPECT_EQ(*spec.home_site, 2u);
  EXPECT_TRUE(spec.profile.Has(attr::kHomeSite));
}

// ---------------------------------------------------------------------------
// Front-end procedures: op counts match the paper's 1-3 (GSM) and 5-6 (IMS)
// ---------------------------------------------------------------------------

class FeTest : public ::testing::Test {
 protected:
  FeTest() : bed_(MakeOptions()) {
    bed_.ProvisionDirect(0, 10);
    bed_.clock().Advance(Seconds(1));
    bed_.udr().CatchUpAllPartitions();
  }
  static TestbedOptions MakeOptions() {
    TestbedOptions o;
    o.sites = 3;
    return o;
  }
  Subscriber Sub(uint64_t i) { return bed_.factory().Make(i); }
  Testbed bed_;
};

TEST_F(FeTest, GsmProceduresUse1To3Ops) {
  HlrFe fe(0, &bed_.udr());
  Subscriber s = Sub(0);
  auto auth = fe.Authenticate(s.ImsiId());
  EXPECT_TRUE(auth.ok());
  EXPECT_EQ(auth.ldap_ops, 1);
  auto ul = fe.UpdateLocation(s.ImsiId(), "vlr-1", 100);
  EXPECT_TRUE(ul.ok());
  EXPECT_EQ(ul.ldap_ops, 2);
  auto sri = fe.SendRoutingInfo(s.MsisdnId());
  EXPECT_TRUE(sri.ok());
  EXPECT_EQ(sri.ldap_ops, 2);
  auto sms = fe.SmsRouting(s.MsisdnId());
  EXPECT_TRUE(sms.ok());
  EXPECT_EQ(sms.ldap_ops, 1);
  EXPECT_EQ(fe.procedures_ok(), 4);
}

TEST_F(FeTest, ImsProceduresUse5To6Ops) {
  HssFe fe(0, &bed_.udr());
  Subscriber s = Sub(1);
  auto reg = fe.ImsRegister(s.ImpuId(), "scscf-0");
  EXPECT_TRUE(reg.ok());
  EXPECT_EQ(reg.ldap_ops, 6);  // "5 or 6 LDAP read/write operations".
  auto loc = fe.ImsLocate(s.ImpuId());
  EXPECT_TRUE(loc.ok());
  EXPECT_EQ(loc.ldap_ops, 2);
}

TEST_F(FeTest, ProcedureLatencyMeetsResponsivenessTarget) {
  // Req. 4: 10 ms average for index-based single-subscriber queries; a whole
  // local procedure stays well within it.
  HlrFe fe(0, &bed_.udr());
  Subscriber s = Sub(2);
  auto r = fe.Authenticate(s.ImsiId());
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.latency, Millis(10));
}

TEST_F(FeTest, UnknownSubscriberFailsCleanly) {
  HlrFe fe(0, &bed_.udr());
  location::Identity ghost{location::IdentityType::kImsi, "999999"};
  auto r = fe.Authenticate(ghost);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fe.procedures_failed(), 1);
}

TEST_F(FeTest, WriteFailureMarksProcedureFailed) {
  Subscriber s = Sub(3);
  auto loc = bed_.udr().AuthoritativeLookup(s.ImsiId());
  ASSERT_TRUE(loc.ok());
  sim::SiteId master_site =
      bed_.udr().partition(loc->partition)->master_site();
  // FE on a different site, partitioned from the master: UL write fails.
  sim::SiteId fe_site = (master_site + 1) % 3;
  bed_.network().partitions().CutLink(fe_site, master_site, bed_.clock().Now(),
                                      bed_.clock().Now() + Seconds(30));
  HlrFe fe(fe_site, &bed_.udr());
  auto ul = fe.UpdateLocation(s.ImsiId(), "vlr-x", 1);
  EXPECT_FALSE(ul.ok());
  EXPECT_GE(ul.failed_ops, 1);
}

// ---------------------------------------------------------------------------
// ProvisioningSystem
// ---------------------------------------------------------------------------

class PsTest : public ::testing::Test {
 protected:
  PsTest() : bed_(MakeOptions()), ps_({0, 0}, &bed_.udr(), &bed_.factory()) {}
  static TestbedOptions MakeOptions() {
    TestbedOptions o;
    o.sites = 3;
    return o;
  }
  Testbed bed_;
  ProvisioningSystem ps_;
};

TEST_F(PsTest, ProvisionIsOneLdapOperation) {
  auto r = ps_.Provision(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ldap_ops, 1);  // One transaction: the UDC simplification.
  EXPECT_EQ(ps_.provisioned(), 1);
  EXPECT_EQ(bed_.udr().SubscriberCount(), 1);
}

TEST_F(PsTest, ProvisionDuplicateFails) {
  ASSERT_TRUE(ps_.Provision(0).ok());
  auto dup = ps_.Provision(0);
  EXPECT_TRUE(dup.status.IsAlreadyExists());
}

TEST_F(PsTest, DeprovisionRemovesSubscriber) {
  ASSERT_TRUE(ps_.Provision(0).ok());
  ASSERT_TRUE(ps_.Deprovision(0).ok());
  EXPECT_EQ(bed_.udr().SubscriberCount(), 0);
}

TEST_F(PsTest, ServiceManagementWrites) {
  ASSERT_TRUE(ps_.Provision(0).ok());
  EXPECT_TRUE(ps_.SetPremiumBarring(0, true).ok());
  auto cfu = ps_.SetCallForwarding(0, "+34911111111");
  EXPECT_TRUE(cfu.ok());
  EXPECT_EQ(cfu.ldap_ops, 2);  // Master-only read + write.
}

TEST_F(PsTest, BatchCompletesCleanly) {
  auto report = ps_.RunBatch(0, 50, /*rate=*/100.0, /*stop_on_failure=*/true);
  EXPECT_EQ(report.attempted, 50);
  EXPECT_EQ(report.succeeded, 50);
  EXPECT_EQ(report.failed, 0);
  EXPECT_FALSE(report.aborted);
  EXPECT_GE(report.duration(), Millis(490));  // >= 49 x 10ms pacing.
}

TEST_F(PsTest, ThirtySecondGlitchKillsLongBatch) {
  // §4.1: "a network glitch as short as 30 seconds may cause a batch that's
  // been running for hours to fail". PS at site 0, partition cuts site 0
  // from the rest mid-batch; subscribers place round-robin so most masters
  // sit on remote sites.
  MicroTime glitch_start = bed_.clock().Now() + Seconds(5);
  bed_.network().partitions().CutBetween({0}, {1, 2}, glitch_start,
                                         glitch_start + Seconds(30));
  auto report = ps_.RunBatch(0, 100000, /*rate=*/20.0, /*stop_on_failure=*/true);
  EXPECT_TRUE(report.aborted);
  EXPECT_GT(report.skipped, 0);
  EXPECT_LT(report.succeeded, 200);  // Died within the first seconds.
  EXPECT_GT(report.manual_interventions(), 0);
}

TEST_F(PsTest, RetryRidesOutFailuresWithoutAbort) {
  MicroTime glitch_start = bed_.clock().Now() + Seconds(2);
  bed_.network().partitions().CutBetween({0}, {1, 2}, glitch_start,
                                         glitch_start + Seconds(5));
  auto report = ps_.RunBatch(0, 200, /*rate=*/20.0, /*stop_on_failure=*/false);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.attempted, 200);
  EXPECT_GT(report.failed, 0);        // Ops during the glitch failed...
  EXPECT_GT(report.succeeded, 100);   // ...but the batch finished.
}

TEST_F(PsTest, BacklogStableWhenServiceFasterThanArrivals) {
  // Provisioning writes that land on a remote master take ~30ms; 10/s
  // arrivals (100ms gap) keep the queue empty.
  auto report = ps_.RunBacklog(Seconds(10), /*arrival_rate=*/10.0,
                               /*capacity=*/1000);
  EXPECT_GT(report.arrivals, 80);
  EXPECT_EQ(report.dropped, 0);
  EXPECT_LE(report.max_depth, 3);
  EXPECT_EQ(report.final_depth, 0);
}

TEST_F(PsTest, BacklogOverflowsUnderSlowService) {
  // Slow every provisioning transaction down by forcing WAL-sync commits
  // with a large penalty: service time ~54ms, arrivals at 100/s.
  TestbedOptions o;
  o.sites = 3;
  o.udr.se_template.wal_sync_commit = true;
  o.udr.se_template.wal_sync_penalty = Millis(50);
  Testbed slow_bed(o);
  ProvisioningSystem slow_ps({0, 0}, &slow_bed.udr(), &slow_bed.factory());
  auto report = slow_ps.RunBacklog(Seconds(20), /*arrival_rate=*/100.0,
                                   /*capacity=*/50);
  EXPECT_GT(report.max_depth, 40);
  EXPECT_GT(report.dropped, 0);  // "If this back-log overflows ... fatal."
}

// ---------------------------------------------------------------------------
// Pre-UDC baseline
// ---------------------------------------------------------------------------

class PreUdcTest : public ::testing::Test {
 protected:
  PreUdcTest() {
    sim::LatencyConfig lc;
    network_ = std::make_unique<sim::Network>(sim::Topology(3, lc), &clock_);
    PreUdcConfig cfg;
    cfg.hlr_sites = {0, 1, 2};
    cfg.slf_sites = {0, 1, 2};
    net_ = std::make_unique<PreUdcNetwork>(cfg, network_.get());
  }
  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<PreUdcNetwork> net_;
  SubscriberFactory factory_{42};
};

TEST_F(PreUdcTest, ProvisioningWritesEveryNode) {
  auto outcome = net_->Provision(factory_.Make(0), /*ps_site=*/0);
  ASSERT_TRUE(outcome.status.ok());
  // 1 HLR write + 3 SLF writes vs UDC's single transaction.
  EXPECT_EQ(outcome.writes_attempted, 4);
  EXPECT_EQ(outcome.writes_succeeded, 4);
  EXPECT_FALSE(outcome.partial);
  EXPECT_TRUE(net_->GloballyConsistent());
}

TEST_F(PreUdcTest, NodeFailureLeavesPartialState) {
  net_->SetSlfUp(2, false);
  auto outcome = net_->Provision(factory_.Make(0), 0);
  EXPECT_TRUE(outcome.partial);
  EXPECT_EQ(outcome.writes_succeeded, 3);
  EXPECT_EQ(net_->partial_states(), 1);
  EXPECT_EQ(net_->manual_repairs(), 1);
  EXPECT_FALSE(net_->GloballyConsistent());
}

TEST_F(PreUdcTest, PartitionDuringProvisioningLeavesPartialState) {
  // PS at site 0, HLR of this subscriber may be anywhere; cut site 2 off.
  network_->partitions().IsolateSite(2, 3, clock_.Now(),
                                     clock_.Now() + Seconds(60));
  clock_.Advance(Seconds(1));
  auto outcome = net_->Provision(factory_.Make(0), 0);
  EXPECT_TRUE(outcome.partial);           // SLF at site 2 unreachable.
  EXPECT_FALSE(net_->GloballyConsistent());
}

TEST_F(PreUdcTest, FeReadResolvesThroughSlf) {
  ASSERT_TRUE(net_->Provision(factory_.Make(0), 0).status.ok());
  Subscriber s = factory_.Make(0);
  auto read = net_->FeRead(s.ImsiId(), /*fe_site=*/1);
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(read.hops, 2);  // SLF resolve + HLR read.
}

TEST_F(PreUdcTest, HlrSiloFailureTakesSubscribersDown) {
  ASSERT_TRUE(net_->Provision(factory_.Make(0), 0).status.ok());
  Subscriber s = factory_.Make(0);
  // Find and fail the owning HLR: the subscriber loses service even though
  // two perfectly healthy HLR nodes remain (the silo property, §1).
  for (size_t h = 0; h < net_->hlr_count(); ++h) net_->SetHlrUp(h, false);
  auto read = net_->FeRead(s.ImsiId(), 1);
  EXPECT_TRUE(read.status.IsUnavailable());
}

TEST_F(PreUdcTest, CleanFailureIsNotPartial) {
  // Everything unreachable: no write lands, network stays consistent.
  network_->partitions().IsolateSite(0, 3, clock_.Now(),
                                     clock_.Now() + Seconds(60));
  clock_.Advance(Seconds(1));
  net_->SetHlrUp(0, false);
  net_->SetSlfUp(0, false);
  auto outcome = net_->Provision(factory_.Make(0), 0);
  EXPECT_FALSE(outcome.partial);
  EXPECT_TRUE(outcome.status.IsUnavailable());
  EXPECT_EQ(net_->partial_states(), 0);
  EXPECT_TRUE(net_->GloballyConsistent());
}

}  // namespace
}  // namespace udr::telecom
