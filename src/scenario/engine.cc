#include "scenario/engine.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace udr::scenario {

using telecom::ProcedureResult;

namespace {

/// Fixed-format double for the deterministic report ("%.6g").
std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void SerializeClass(std::ostringstream& out, const char* name,
                    const workload::ClassStats& c) {
  out << "class " << name << " attempted=" << c.attempted << " ok=" << c.ok
      << " failed=" << c.failed << " stale=" << c.stale_procedures
      << " ldap=" << c.ldap_ops << " p50=" << c.latency.P50()
      << " p99=" << c.latency.P99() << "\n";
}

}  // namespace

bool ScenarioReport::Passed() const {
  if (slos.empty()) return false;
  for (const SloResult& r : slos) {
    if (!r.pass) return false;
  }
  return true;
}

std::string ScenarioReport::Serialize() const {
  std::ostringstream out;
  out << "scenario " << name << "\n";
  out << "sim-duration-us " << sim_duration << "\n";
  out << "steps-executed " << steps_executed
      << " heal-reconciliations " << heal_reconciliations << "\n";
  SerializeClass(out, "fe.read", stats.fe_read);
  SerializeClass(out, "fe.write", stats.fe_write);
  SerializeClass(out, "fe.storm", stats.fe_storm);
  SerializeClass(out, "ps", stats.ps);
  out << "audit subscribers=" << audit.subscribers_audited
      << " acked=" << audit.acked_writes << " lost=" << audit.lost_writes
      << " unreadable=" << audit.unreadable
      << " order-violations=" << audit.order_violations << "\n";
  out << "restoration divergent=" << restoration.divergent_entries
      << " applied=" << restoration.applied_ops
      << " conflicting=" << restoration.conflicting_ops
      << " dropped=" << restoration.dropped_ops
      << " manual=" << restoration.manual_ops << "\n";
  for (const SloResult& r : slos) {
    out << "slo " << r.check.label << " kind=" << SloKindName(r.check.kind)
        << " bound=" << Fmt(r.check.bound) << " actual=" << Fmt(r.actual)
        << (r.pass ? " PASS" : " FAIL") << "\n";
  }
  out << "passed " << (Passed() ? "true" : "false") << "\n";
  if (!obs_series.empty()) {
    out << "obs-series-begin\n" << obs_series << "obs-series-end\n";
  }
  if (!flight_dump.empty()) {
    out << "flight-recorder-begin\n" << flight_dump << "flight-recorder-end\n";
  }
  return out.str();
}

Engine::Engine(const ScenarioSpec& spec)
    : spec_(spec),
      bed_(spec.testbed),
      verifier_(&bed_),
      rng_(spec.testbed.seed ^ 0x5ce7a7105ce7a710ULL),
      subscriber_pick_(
          std::max<uint64_t>(1, static_cast<uint64_t>(spec.testbed.subscribers)),
          spec.zipf_theta),
      fleet_(bed_, spec.batched),
      ps_({spec.ps_site, 0, spec.batched}, &bed_.udr(), &bed_.factory()) {}

void Engine::ScoreFe(const workload::FeEvent& e, const ProcedureResult& r) {
  // Only storm events are deferred.
  verifier_.FoldFe(r, workload::IsWriteProcedure(e.procedure),
                   /*storm=*/e.defer);
  if (e.procedure == workload::FeProcedure::kUpdateLocation && r.ok() &&
      r.failed_ops == 0) {
    verifier_.RecordAck(e.subscriber, Channel::kLocationArea, e.location_area);
  }
}

void Engine::FeTick(MicroTime now) {
  const bool storm = now < storm_until_ && storm_events_ > 0;
  const int burst = storm ? storm_events_ : 1;
  for (int b = 0; b < burst; ++b) {
    workload::FeEvent e;
    e.subscriber = subscriber_pick_.Next(rng_);
    e.serving = bed_.HomeSiteOf(e.subscriber);
    if (now < wave_until_ && rng_.Bernoulli(wave_fraction_)) {
      e.serving = wave_site_;
    }
    if (storm) {
      // Mass re-registration: every event is a stamped location update (the
      // re-attach write) enqueued into the PoA's dispatch window.
      e.procedure = workload::FeProcedure::kUpdateLocation;
      e.defer = true;
    } else {
      e.procedure = workload::DrawFeProcedure(rng_, spec_.ims_fraction);
    }
    if (e.procedure == workload::FeProcedure::kUpdateLocation) {
      // The stamped FE write channel: the acked stamp IS the location area,
      // so the ledger audit can read it back from the master copy.
      e.location_area = ++next_stamp_;
    }
    if (auto r = fleet_.Issue(e)) ScoreFe(e, *r);
  }
}

void Engine::PsTick() {
  uint64_t index = rng_.Uniform(
      std::max<uint64_t>(1, static_cast<uint64_t>(spec_.testbed.subscribers)));
  double pick = rng_.NextDouble();
  if (pick < 0.6) {
    // The stamped PS write channel (master-only read-modify-write).
    int64_t stamp = ++next_stamp_;
    ProcedureResult r = ps_.SetCallForwarding(index, CfuNumberOf(stamp));
    verifier_.FoldPs(r);
    if (r.ok() && r.failed_ops == 0) {
      verifier_.RecordAck(index, Channel::kCallForwarding, stamp);
    }
  } else {
    verifier_.FoldPs(ps_.SetPremiumBarring(index, rng_.Bernoulli(0.5)));
  }
}

void Engine::ExecuteStep(const Step& step, ScenarioReport* report) {
  udrnf::UdrNf& udr = bed_.udr();
  routing::PartitionMap& map = udr.partition_map();
  // Every script step is a flight-recorder event: when an SLO breach dumps
  // the recorder, the injected faults leading up to it are in the history.
  udr.flight_recorder().Record(bed_.clock().Now(), "scenario",
                               StepKindName(step.kind),
                               "site=" + std::to_string(step.site));
  switch (step.kind) {
    case StepKind::kKillSite: {
      // Drain every PoA the site hosts, then crash every replica copy its
      // storage elements hold. The replica sets' failover detection promotes
      // surviving secondaries as the write path touches them.
      for (uint32_t c = 0; c < udr.cluster_count(); ++c) {
        if (udr.cluster(c)->site() == step.site) {
          udr.SetClusterServing(c, false);
        }
      }
      auto& crashed = crashed_[step.site];
      for (uint32_t p = 0; p < map.partition_count(); ++p) {
        replication::ReplicaSet* rs = map.partition(p);
        for (uint32_t r = 0; r < rs->replica_count(); ++r) {
          if (!rs->replica_up(r)) continue;
          int se = map.IndexOfSe(rs->replica_se(r));
          if (se < 0) continue;
          uint32_t cluster = map.se_info(se).cluster;
          if (udr.cluster(cluster)->site() == step.site) {
            rs->CrashReplica(r);
            crashed.push_back({p, r});
          }
        }
      }
      break;
    }
    case StepKind::kRestoreSite: {
      auto it = crashed_.find(step.site);
      if (it != crashed_.end()) {
        for (const CrashedReplica& cr : it->second) {
          map.partition(cr.partition)->RecoverReplica(cr.replica);
        }
        it->second.clear();
      }
      for (uint32_t c = 0; c < udr.cluster_count(); ++c) {
        if (udr.cluster(c)->site() == step.site) {
          udr.SetClusterServing(c, true);
        }
      }
      break;
    }
    case StepKind::kPartitionLink:
      // The outage interval was installed into the partition schedule at
      // compile time (schedules are interval sets); nothing to do now.
      break;
    case StepKind::kHealLink: {
      udr.CatchUpAllPartitions();
      replication::RestorationReport r = udr.RestoreAllPartitions();
      report->restoration.divergent_entries += r.divergent_entries;
      report->restoration.applied_ops += r.applied_ops;
      report->restoration.conflicting_ops += r.conflicting_ops;
      report->restoration.dropped_ops += r.dropped_ops;
      report->restoration.manual_ops += r.manual_ops;
      ++report->heal_reconciliations;
      break;
    }
    case StepKind::kAttachStorm:
      storm_until_ = bed_.clock().Now() + step.duration;
      storm_events_ = step.events_per_tick;
      break;
    case StepKind::kRoamingWave:
      wave_until_ = bed_.clock().Now() + step.duration;
      wave_site_ = step.site;
      wave_fraction_ = step.fraction;
      break;
    case StepKind::kScaleOut:
      (void)udr.AddCluster(step.site);
      break;
    case StepKind::kStartRebalance:
      (void)udr.StartMigration();
      break;
    case StepKind::kDecommissionSe:
      (void)udr.StartDecommission(step.se_index);
      break;
    case StepKind::kAssertSlo: {
      const SloResult r = verifier_.Evaluate(step.slo);
      udr.flight_recorder().Record(
          bed_.clock().Now(), "slo", r.pass ? "pass" : "fail",
          r.check.label + " kind=" + SloKindName(r.check.kind) +
              " bound=" + Fmt(r.check.bound) + " actual=" + Fmt(r.actual));
      break;
    }
  }
  ++report->steps_executed;
}

ScenarioReport Engine::Run() {
  ScenarioReport report;
  report.name = spec_.name;

  sim::SimClock& clock = bed_.clock();
  udrnf::UdrNf& udr = bed_.udr();
  const MicroTime start = clock.Now();
  const MicroTime horizon = start + spec_.duration;

  std::vector<Step> steps = spec_.script.Sorted();
  // Link outages are pure schedule state: install every cut up-front so
  // replication delivery times are exact from the first affected entry.
  for (const Step& s : steps) {
    if (s.kind == StepKind::kPartitionLink) {
      bed_.network().partitions().CutBetween(s.group_a, s.group_b,
                                             start + s.at, start + s.until);
    }
  }

  const MicroDuration fe_gap = workload::ArrivalGap(spec_.fe_rate_per_sec);
  const MicroDuration ps_gap = workload::ArrivalGap(spec_.ps_rate_per_sec);
  MicroTime next_fe = start + fe_gap;
  MicroTime next_ps = start + ps_gap;
  size_t step_i = 0;
  auto next_step = [&] {
    return step_i < steps.size() ? start + steps[step_i].at : kTimeInfinity;
  };

  fleet_.Drive(
      horizon, [&] { return std::min({next_fe, next_ps, next_step()}); },
      [&](MicroTime now) {
        if (next_step() <= next_fe && next_step() <= next_ps) {
          ExecuteStep(steps[step_i], &report);
          ++step_i;
        } else if (next_fe <= next_ps) {
          next_fe += fe_gap;
          FeTick(now);
        } else {
          next_ps += ps_gap;
          PsTick();
        }
      },
      [this](const auto& e, const auto& r) { ScoreFe(e, r); });

  bed_.DrainMigration();
  udr.CatchUpAllPartitions();

  // Post-horizon steps (scenarios put their SLO rows just past the traffic
  // horizon so they see flushed windows and drained migrations).
  for (; step_i < steps.size(); ++step_i) {
    ExecuteStep(steps[step_i], &report);
  }

  report.stats = verifier_.stats();
  report.audit = verifier_.Audit();
  report.slos = verifier_.results();
  report.sim_duration = clock.Now() - start;
  if (udr.sampler() != nullptr) {
    report.obs_series = udr.sampler()->Serialize();
  }
  if (!report.slos.empty() && !report.Passed()) {
    // SLO breach: dump the recent control-plane history so the events
    // leading up to the failure travel with the report.
    report.flight_dump = udr.flight_recorder().Dump();
    std::fprintf(stderr, "[scenario %s] SLO FAILED; flight recorder:\n%s",
                 report.name.c_str(), report.flight_dump.c_str());
  }
  return report;
}

ScenarioReport RunScenario(const ScenarioSpec& spec) {
  Engine engine(spec);
  return engine.Run();
}

}  // namespace udr::scenario
