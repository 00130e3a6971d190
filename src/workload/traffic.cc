#include "workload/traffic.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "workload/zipf.h"

namespace udr::workload {

using location::IdentityType;
using telecom::HlrFe;
using telecom::HssFe;
using telecom::ProcedureResult;

TrafficReport RunTraffic(Testbed& bed, const TrafficOptions& opts) {
  TrafficReport report;
  Rng rng(opts.seed);
  // Subscriber draw: theta <= 0 is an exact rng.Uniform passthrough, so the
  // historical uniform stream is byte-identical with the knob at its default.
  ZipfGenerator subscriber_pick(opts.subscriber_count, opts.zipf_theta);
  sim::SimClock& clock = bed.clock();
  const MicroTime horizon = clock.Now() + opts.duration;
  const bool coalesced = opts.concurrent_events > 1;
  const int burst = std::max(1, opts.concurrent_events);

  // One FE pair per site.
  std::vector<std::unique_ptr<HlrFe>> hlr_fes;
  std::vector<std::unique_ptr<HssFe>> hss_fes;
  for (uint32_t s = 0; s < bed.options().sites; ++s) {
    hlr_fes.push_back(std::make_unique<HlrFe>(s, &bed.udr(), opts.batched));
    hss_fes.push_back(std::make_unique<HssFe>(s, &bed.udr(), opts.batched));
    if (coalesced) {
      hlr_fes.back()->set_deferred(true);
      hss_fes.back()->set_deferred(true);
    }
  }
  telecom::ProvisioningSystem ps({opts.ps_site, 0, opts.batched}, &bed.udr(),
                                 &bed.factory());

  // FE procedures parked in a PoA dispatch window, awaiting their flush.
  struct InFlight {
    uint64_t handle = 0;
    telecom::FrontEnd* fe = nullptr;
    ClassStats* cls = nullptr;
  };
  std::vector<InFlight> in_flight;
  // Scores one FE outcome, tagging it as migration-concurrent when the
  // background scheduler still holds work at fold time.
  auto fold_fe = [&](ClassStats& cls, const ProcedureResult& r) {
    cls.Fold(r);
    if (opts.pump_migration && bed.udr().MigrationActive()) {
      report.fe_during_migration.Fold(r);
      if (r.ok()) {
        bed.udr().metrics().Observe("migration.foreground_latency_during",
                                    r.latency);
      }
    }
  };
  auto collect = [&]() {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      std::optional<ProcedureResult> done = it->fe->TakeDeferred(it->handle);
      if (!done.has_value()) {
        ++it;
        continue;
      }
      report.fe_queue_delay.Record(done->queue_delay);
      fold_fe(*it->cls, *done);
      it = in_flight.erase(it);
    }
  };
  // Folds an FE procedure outcome: inline results score immediately,
  // deferred ones are tracked until their window flushes.
  auto dispatch = [&](ClassStats& cls, telecom::FrontEnd& fe,
                      ProcedureResult r) {
    if (r.deferred()) {
      in_flight.push_back({*r.pending, &fe, &cls});
    } else {
      fold_fe(cls, r);
    }
  };

  const MicroDuration fe_gap =
      opts.fe_rate_per_sec > 0
          ? static_cast<MicroDuration>(1e6 / opts.fe_rate_per_sec)
          : kTimeInfinity;
  const MicroDuration ps_gap =
      opts.ps_rate_per_sec > 0
          ? static_cast<MicroDuration>(1e6 / opts.ps_rate_per_sec)
          : kTimeInfinity;

  MicroTime next_fe = clock.Now() + fe_gap;
  MicroTime next_ps = clock.Now() + ps_gap;

  while (true) {
    MicroTime next = std::min(next_fe, next_ps);
    if (coalesced) {
      // Wake exactly at the earliest open window's deadline so flushes
      // happen on time (queueing delay stays bounded by the window).
      MicroTime flush_at = bed.udr().NextEventDeadline();
      if (flush_at <= std::min(next, horizon)) {
        clock.AdvanceTo(std::max(flush_at, clock.Now()));
        bed.udr().PumpEvents();
        collect();
        continue;
      }
    }
    if (opts.pump_migration) {
      // Wake at the scheduler's next chunk deadline: throttled background
      // moves make exactly the progress the bandwidth budget matured.
      MicroTime mig_at = bed.udr().NextMigrationDeadline();
      if (mig_at <= std::min(next, horizon)) {
        clock.AdvanceTo(std::max(mig_at, clock.Now()));
        bed.udr().PumpMigration();
        continue;
      }
    }
    if (next > horizon) break;
    clock.AdvanceTo(next);

    if (next == next_fe) {
      next_fe += fe_gap;
      for (int b = 0; b < burst; ++b) {
        uint64_t index = subscriber_pick.Next(rng);
        // Only the identity the drawn procedure uses, never the profile.
        auto id = [&](IdentityType type) {
          return bed.factory().IdentityOf(index, type);
        };
        sim::SiteId home = bed.HomeSiteOf(index);
        sim::SiteId serving = home;
        if (bed.options().sites > 1 && rng.Bernoulli(opts.roaming_fraction)) {
          serving = static_cast<sim::SiteId>(
              (home + 1 + rng.Uniform(bed.options().sites - 1)) %
              bed.options().sites);
        }
        if (rng.Bernoulli(opts.ims_fraction)) {
          HssFe& fe = *hss_fes[serving];
          double pick = rng.NextDouble();
          if (pick < 0.55) {
            dispatch(report.fe_read, fe, fe.ImsLocate(id(IdentityType::kImpu)));
          } else if (pick < 0.80) {
            dispatch(report.fe_write, fe,
                     fe.ImsRegister(id(IdentityType::kImpu),
                                    "scscf" + std::to_string(serving)));
          } else {
            dispatch(report.fe_write, fe,
                     fe.ImsDeregister(id(IdentityType::kImpu)));
          }
        } else {
          HlrFe& fe = *hlr_fes[serving];
          double pick = rng.NextDouble();
          if (pick < 0.35) {
            dispatch(report.fe_read, fe,
                     fe.Authenticate(id(IdentityType::kImsi)));
          } else if (pick < 0.55) {
            dispatch(report.fe_read, fe,
                     fe.SendRoutingInfo(id(IdentityType::kMsisdn)));
          } else if (pick < 0.70) {
            dispatch(report.fe_read, fe,
                     fe.SmsRouting(id(IdentityType::kMsisdn)));
          } else if (pick < 0.80) {
            dispatch(report.fe_read, fe,
                     fe.InterrogateSs(id(IdentityType::kMsisdn)));
          } else {
            dispatch(report.fe_write, fe,
                     fe.UpdateLocation(
                         id(IdentityType::kImsi),
                         "vlr" + std::to_string(serving),
                         static_cast<int64_t>(serving * 100 + rng.Uniform(100))));
          }
        }
      }
      // A burst may have closed a window via the size cap (or coalescing is
      // off and events completed at enqueue): score what is ready.
      if (coalesced) collect();
    } else {
      next_ps += ps_gap;
      uint64_t index = subscriber_pick.Next(rng);
      double pick = rng.NextDouble();
      if (pick < 0.5) {
        report.ps.Fold(
            ps.SetCallForwarding(index, "+3460000" + std::to_string(index % 100)));
      } else if (pick < 0.85) {
        report.ps.Fold(ps.SetPremiumBarring(index, rng.Bernoulli(0.5)));
      } else {
        // New activation: walks out of the phone shop (§4.1).
        uint64_t new_index = opts.subscriber_count + 1000000 +
                             static_cast<uint64_t>(report.ps.attempted);
        report.ps.Fold(ps.Provision(new_index));
      }
    }
  }
  clock.AdvanceTo(horizon);
  if (coalesced) {
    // End-of-run barrier: close every still-open window and score the rest.
    bed.udr().FlushEvents();
    collect();
  }
  if (opts.pump_migration && report.fe_during_migration.ok > 0) {
    // The foreground-impact headline figure of the bandwidth model.
    bed.udr().metrics().Observe("migration.foreground_p99_during",
                                report.fe_during_migration.latency.P99());
  }
  return report;
}

}  // namespace udr::workload
