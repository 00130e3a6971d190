#include "workload/traffic.h"

#include <algorithm>

#include "common/rng.h"
#include "workload/fe_fleet.h"
#include "workload/zipf.h"

namespace udr::workload {

using telecom::ProcedureResult;

TrafficReport RunTraffic(Testbed& bed, const TrafficOptions& opts) {
  TrafficReport report;
  Rng rng(opts.seed);
  // Subscriber draw: theta <= 0 is an exact rng.Uniform passthrough, so the
  // historical uniform stream is byte-identical with the knob at its default.
  ZipfGenerator subscriber_pick(opts.subscriber_count, opts.zipf_theta);
  const MicroTime start = bed.clock().Now();
  const uint32_t sites = bed.options().sites;
  const int burst = std::max(1, opts.concurrent_events);
  FeFleet fleet(bed, opts.batched);
  telecom::ProvisioningSystem ps({opts.ps_site, 0, opts.batched}, &bed.udr(),
                                 &bed.factory());

  // Scores one FE outcome, tagging it as migration-concurrent when the
  // background scheduler still holds work at fold time.
  auto fold = [&](const FeEvent& e, const ProcedureResult& r) {
    (IsWriteProcedure(e.procedure) ? report.fe_write : report.fe_read).Fold(r);
    if (bed.udr().MigrationActive()) {
      report.fe_during_migration.Fold(r);
      if (r.ok()) {
        bed.udr().metrics().Observe("migration.foreground_latency_during",
                                    r.latency);
      }
    }
  };

  const MicroDuration fe_gap = ArrivalGap(opts.fe_rate_per_sec);
  const MicroDuration ps_gap = ArrivalGap(opts.ps_rate_per_sec);
  MicroTime next_fe = start + fe_gap;
  MicroTime next_ps = start + ps_gap;
  auto tick = [&](MicroTime now) {
    if (now != next_fe) {
      next_ps += ps_gap;
      uint64_t index = subscriber_pick.Next(rng);
      double pick = rng.NextDouble();
      if (pick < 0.5) {
        report.ps.Fold(ps.SetCallForwarding(
            index, "+3460000" + std::to_string(index % 100)));
      } else if (pick < 0.85) {
        report.ps.Fold(ps.SetPremiumBarring(index, rng.Bernoulli(0.5)));
      } else {
        // New activation: walks out of the phone shop (§4.1).
        uint64_t new_index = opts.subscriber_count + 1000000 +
                             static_cast<uint64_t>(report.ps.attempted);
        report.ps.Fold(ps.Provision(new_index));
      }
      return;
    }
    next_fe += fe_gap;
    for (int b = 0; b < burst; ++b) {
      FeEvent e;
      e.subscriber = subscriber_pick.Next(rng);
      e.serving = bed.HomeSiteOf(e.subscriber);
      if (sites > 1 && rng.Bernoulli(opts.roaming_fraction)) {
        e.serving = static_cast<sim::SiteId>(
            (e.serving + 1 + rng.Uniform(sites - 1)) % sites);
      }
      e.procedure = DrawFeProcedure(rng, opts.ims_fraction);
      if (e.procedure == FeProcedure::kUpdateLocation) {
        e.location_area =
            static_cast<int64_t>(e.serving * 100 + rng.Uniform(100));
      }
      e.defer = burst > 1;  // Concurrent events park in the PoA window.
      if (auto r = fleet.Issue(e)) fold(e, *r);
    }
  };
  fleet.Drive(start + opts.duration,
              [&] { return std::min(next_fe, next_ps); }, tick, fold);

  report.fe_queue_delay = fleet.queue_delay();
  if (report.fe_during_migration.ok > 0) {
    // The foreground-impact headline figure of the bandwidth model.
    bed.udr().metrics().Observe("migration.foreground_p99_during",
                                report.fe_during_migration.latency.P99());
  }
  return report;
}

}  // namespace udr::workload
