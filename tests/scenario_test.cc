// Tests for the scenario harness (src/scenario/): script builder ordering,
// the seeded replay-determinism contract (same script + seed => byte-
// identical report), the partition-heal reconciliation convergence property,
// SLO gating, and per-scenario invariants for the five standard disaster /
// mass-event scenarios. The ScenarioFullTest suite runs the full standard
// scenarios and is registered with ctest LABELS slow; everything else is the
// fast subset in the default run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/scenarios.h"

namespace udr::scenario {
namespace {

// ---------------------------------------------------------------------------
// Script builder
// ---------------------------------------------------------------------------

TEST(ScriptTest, SortedOrdersByTimeStableOnTies) {
  Script script;
  script.KillSite(Seconds(5), 1);
  script.RestoreSite(Seconds(2), 1);
  script.AssertSlo(Seconds(5), SloCheck{SloKind::kConverged, "converged",
                                        0.0, -1});
  const std::vector<Step> steps = script.Sorted();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, StepKind::kRestoreSite);
  EXPECT_EQ(steps[1].kind, StepKind::kKillSite);  // 5s tie: built first.
  EXPECT_EQ(steps[2].kind, StepKind::kAssertSlo);
  // The builder's own list keeps construction order untouched.
  EXPECT_EQ(script.steps()[0].kind, StepKind::kKillSite);
}

TEST(ScriptTest, StepAndSloKindsHaveStableNames) {
  EXPECT_STREQ(StepKindName(StepKind::kKillSite), "kill-site");
  EXPECT_STREQ(StepKindName(StepKind::kAssertSlo), "assert-slo");
  EXPECT_STREQ(SloKindName(SloKind::kZeroAckedWriteLoss),
               "zero-acked-write-loss");
  EXPECT_STREQ(SloKindName(SloKind::kSeDrained), "se-drained");
}

// ---------------------------------------------------------------------------
// Smoke scenarios (shrunk deployments, short horizons)
// ---------------------------------------------------------------------------

/// Two sites, one SE each, 150 pinned subscribers, 4 s of traffic — the
/// smallest deployment on which site loss still forces a cross-site failover.
ScenarioSpec SmokeBase(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.testbed.sites = 2;
  spec.testbed.seed = 7;
  spec.testbed.subscribers = 150;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 2;
  spec.testbed.udr.se_per_cluster = 1;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.duration = Seconds(4);
  spec.fe_rate_per_sec = 200.0;
  spec.ps_rate_per_sec = 10.0;
  return spec;
}

void AddCoreSlos(ScenarioSpec* spec) {
  const MicroTime at = spec->duration + Millis(1);
  spec->script.AssertSlo(at, SloCheck{SloKind::kZeroAckedWriteLoss,
                                      "zero-acked-write-loss", 0.0, -1});
  spec->script.AssertSlo(at,
                         SloCheck{SloKind::kPerKeyOrder, "per-key-order",
                                  0.0, -1});
  spec->script.AssertSlo(at, SloCheck{SloKind::kPsStaleZero, "ps-stale-zero",
                                      0.0, -1});
}

ScenarioSpec SiteLossSmoke() {
  ScenarioSpec spec = SmokeBase("site-loss-smoke");
  spec.testbed.udr.sync_mode = replication::SyncMode::kDualSequence;
  spec.testbed.udr.failover_detection = Millis(300);
  spec.script.KillSite(Seconds(1), 1);
  spec.script.RestoreSite(Seconds(3), 1);
  AddCoreSlos(&spec);
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kFailoversMin, "failovers-min",
                                 1.0, -1});
  return spec;
}

TEST(ScenarioSmokeTest, SiteLossHoldsCoreInvariants) {
  const ScenarioReport report = RunScenario(SiteLossSmoke());
  EXPECT_GT(report.audit.acked_writes, 0);
  EXPECT_EQ(report.audit.lost_writes, 0);
  EXPECT_EQ(report.audit.unreadable, 0);
  EXPECT_EQ(report.audit.order_violations, 0);
  ASSERT_EQ(report.slos.size(), 4u);
  for (const SloResult& slo : report.slos) {
    EXPECT_TRUE(slo.pass) << slo.check.label << " actual " << slo.actual;
  }
  EXPECT_TRUE(report.Passed());
  // The kill + restore both fired, plus the four SLO rows.
  EXPECT_EQ(report.steps_executed, 6);
}

TEST(ScenarioSmokeTest, UnmeetableSloGatesTheReport) {
  // The gate must actually gate: an impossible bound produces a FAIL row and
  // a failed report while the run itself still completes.
  ScenarioSpec spec = SmokeBase("unmeetable");
  AddCoreSlos(&spec);
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kFeAvailabilityMin,
                                 "fe-availability-min", 1.01, -1});
  const ScenarioReport report = RunScenario(spec);
  EXPECT_FALSE(report.Passed());
  ASSERT_EQ(report.slos.size(), 4u);
  EXPECT_FALSE(report.slos.back().pass);
  EXPECT_TRUE(report.slos.front().pass);  // Core rows still held.
}

TEST(ScenarioSmokeTest, ReportWithoutSloRowsDoesNotPass) {
  ScenarioReport empty;
  EXPECT_FALSE(empty.Passed());
}

// ---------------------------------------------------------------------------
// Seeded replay determinism
// ---------------------------------------------------------------------------

TEST(ScenarioSmokeTest, SameScriptAndSeedReplaysByteIdentically) {
  const ScenarioSpec spec = SiteLossSmoke();
  const std::string first = RunScenario(spec).Serialize();
  const std::string second = RunScenario(spec).Serialize();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ScenarioSmokeTest, DifferentSeedProducesADifferentRun) {
  // Guards the determinism test against a vacuous pass (a report that
  // ignores the traffic entirely would also be "byte-identical").
  ScenarioSpec a = SiteLossSmoke();
  ScenarioSpec b = SiteLossSmoke();
  b.testbed.seed = 8;
  EXPECT_NE(RunScenario(a).Serialize(), RunScenario(b).Serialize());
}

// ---------------------------------------------------------------------------
// Partition-heal reconciliation convergence property
// ---------------------------------------------------------------------------

/// AP-mode inter-site partition with the provisioning writer placed at
/// `ps_site`: varying the writer's side varies which side accepts the
/// divergent writes during the outage.
ScenarioSpec HealPropertySpec(sim::SiteId ps_site) {
  ScenarioSpec spec;
  spec.name = "heal-property-ps" + std::to_string(ps_site);
  spec.testbed.sites = 3;
  spec.testbed.seed = 13;
  spec.testbed.subscribers = 210;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 3;
  spec.testbed.udr.se_per_cluster = 1;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.testbed.udr.partition_mode =
      replication::PartitionMode::kPreferAvailability;
  spec.testbed.udr.merge_policy = replication::MergePolicy::kFieldMergeLww;
  spec.duration = Seconds(5);
  spec.fe_rate_per_sec = 200.0;
  spec.ps_rate_per_sec = 40.0;
  spec.ps_site = ps_site;
  spec.script.PartitionLink(Seconds(1), Seconds(3), {0}, {1, 2});
  spec.script.HealLink(Seconds(3) + Millis(50));
  AddCoreSlos(&spec);
  spec.script.AssertSlo(spec.duration + Millis(1),
                        SloCheck{SloKind::kConverged, "converged", 0.0, -1});
  return spec;
}

TEST(ScenarioPropertyTest, HealReconciliationConvergesFromEitherSide) {
  // The property: after the partition heals and reconciliation runs, the
  // committed master state holds every acknowledged write and no partition
  // retains divergence — REGARDLESS of which side of the partition the
  // writer was on. The ledger audit is exactly that check: the last acked
  // stamp of every subscriber channel must be the durable master value.
  for (sim::SiteId ps_site : {sim::SiteId{0}, sim::SiteId{1}, sim::SiteId{2}}) {
    const ScenarioReport report = RunScenario(HealPropertySpec(ps_site));
    SCOPED_TRACE("ps_site=" + std::to_string(ps_site));
    EXPECT_GT(report.audit.acked_writes, 0);
    EXPECT_EQ(report.audit.lost_writes, 0);
    EXPECT_EQ(report.audit.unreadable, 0);
    EXPECT_EQ(report.audit.order_violations, 0);
    EXPECT_EQ(report.heal_reconciliations, 1);
    EXPECT_TRUE(report.Passed());
  }
}

TEST(ScenarioPropertyTest, MinoritySideWriterActuallyDiverges) {
  // Sharpens the property test: with the writer on the minority side, the
  // outage must force divergent (locally accepted, unreplicated) writes that
  // the heal then reconciles — otherwise the convergence assertions above
  // never exercised a real merge.
  const ScenarioReport report = RunScenario(HealPropertySpec(0));
  EXPECT_GT(report.restoration.divergent_entries, 0);
  EXPECT_GT(report.restoration.applied_ops, 0);
  EXPECT_EQ(report.audit.lost_writes, 0);
}

// ---------------------------------------------------------------------------
// Full standard scenarios (ctest LABELS slow)
// ---------------------------------------------------------------------------

void ExpectAllSlosPass(const ScenarioReport& report) {
  for (const SloResult& slo : report.slos) {
    EXPECT_TRUE(slo.pass) << report.name << " " << slo.check.label
                          << " bound " << slo.check.bound << " actual "
                          << slo.actual;
  }
  EXPECT_TRUE(report.Passed());
  EXPECT_EQ(report.audit.lost_writes, 0);
  EXPECT_EQ(report.audit.unreadable, 0);
  EXPECT_EQ(report.audit.order_violations, 0);
}

TEST(ScenarioFullTest, SiteLossFailover) {
  const ScenarioReport report = RunScenario(SiteLossFailover());
  ExpectAllSlosPass(report);
  EXPECT_GT(report.audit.acked_writes, 0);
}

TEST(ScenarioFullTest, IntersitePartition) {
  const ScenarioReport report = RunScenario(IntersitePartition());
  ExpectAllSlosPass(report);
  EXPECT_EQ(report.heal_reconciliations, 1);
  EXPECT_GT(report.restoration.divergent_entries, 0);
}

TEST(ScenarioFullTest, AttachStorm) {
  const ScenarioReport report = RunScenario(AttachStorm());
  ExpectAllSlosPass(report);
  EXPECT_GT(report.stats.fe_storm.attempted, 0);
}

TEST(ScenarioFullTest, RoamingWave) {
  const ScenarioReport report = RunScenario(RoamingWave());
  ExpectAllSlosPass(report);
}

TEST(ScenarioFullTest, SeDecommission) {
  const ScenarioReport report = RunScenario(SeDecommission());
  ExpectAllSlosPass(report);
}

/// udrbench's storm_coalesced deployment at full scale, seed 91, with its
/// attach storm over the middle third of the horizon instead of the last.
/// Only storm events park in the PoA windows, so a subscriber's direct
/// UpdateLocation issued after its parked storm one used to dispatch first,
/// and the per-key-order row read 1.
ScenarioSpec MiddleThirdStorm() {
  ScenarioSpec spec;
  spec.name = "middle-third-storm";
  spec.testbed.sites = 3;
  spec.testbed.seed = 91;
  spec.testbed.subscribers = 20000;
  spec.testbed.pin_home_sites = true;
  spec.testbed.udr.replication_factor = 3;
  spec.testbed.udr.se_per_cluster = 2;
  spec.testbed.udr.partitions_per_se = 2;
  spec.testbed.udr.fe_slave_reads = true;
  spec.testbed.udr.location_kind = udrnf::LocationKind::kCached;
  spec.testbed.udr.coalesce_window_us = Micros(200);
  spec.testbed.udr.coalesce_max_ops = 64;
  spec.testbed.udr.heat_tracking = true;
  spec.testbed.udr.poa_cache_bytes = 4 * 1024 * 1024;
  spec.duration = Seconds(2);
  spec.ims_fraction = 0.15;
  spec.ps_site = 0;
  spec.fe_rate_per_sec = 15000;
  spec.ps_rate_per_sec = 500;
  spec.batched = true;
  spec.zipf_theta = 0.99;
  spec.script.AttachStorm(spec.duration / 3, spec.duration / 3,
                          /*events_per_tick=*/4);
  AddCoreSlos(&spec);
  return spec;
}

TEST(ScenarioFullTest, MiddleThirdStormKeepsPerKeyOrder) {
  const ScenarioReport report = RunScenario(MiddleThirdStorm());
  ExpectAllSlosPass(report);
  EXPECT_GT(report.stats.fe_storm.attempted, 0);
}

TEST(ScenarioFullTest, StandardScenarioReplaysByteIdentically) {
  const ScenarioSpec spec = SiteLossFailover();
  EXPECT_EQ(RunScenario(spec).Serialize(), RunScenario(spec).Serialize());
}

}  // namespace
}  // namespace udr::scenario
