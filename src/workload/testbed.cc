#include "workload/testbed.h"

#include <algorithm>
#include <cassert>

namespace udr::workload {

Testbed::Testbed(TestbedOptions opts)
    : opts_(opts), factory_(opts.seed) {
  sim::Topology topology(opts_.sites, opts_.latency);
  network_ = std::make_unique<sim::Network>(std::move(topology), &clock_);
  udr_ = std::make_unique<udrnf::UdrNf>(opts_.udr, network_.get());
  for (uint32_t s = 0; s < opts_.sites; ++s) {
    auto cluster = udr_->AddCluster(s);
    assert(cluster.ok());
    (void)cluster;
  }
  udr_->CommissionPartitions();
  if (opts_.subscribers > 0) {
    ProvisionDirect(0, opts_.subscribers);
  }
}

StatusOr<routing::RebalanceReport> Testbed::ScaleOut(sim::SiteId site) {
  auto cluster = udr_->AddCluster(site);
  if (!cluster.ok()) return cluster.status();
  return udr_->Rebalance();
}

bool Testbed::PumpDue(MicroTime until) {
  udrnf::UdrNf& udr = *udr_;
  const MicroTime flush_at =
      std::min(udr.NextEventDeadline(), udr.NextObsSampleDue());
  const bool events = flush_at <= until;
  const MicroTime at = events ? flush_at : udr.NextMigrationDeadline();
  if (at > until) return false;
  clock_.AdvanceTo(std::max(at, clock_.Now()));
  if (events) {
    udr.PumpEvents();
  } else {
    udr.PumpMigration();
  }
  return true;
}

void Testbed::DrainMigration() {
  // Bounded: a stuck scheduler cannot hang the caller.
  for (int guard = 0; udr_->MigrationActive() && guard < 1000000; ++guard) {
    const MicroTime at = udr_->NextMigrationDeadline();
    if (at == kTimeInfinity) break;
    clock_.AdvanceTo(std::max(at, clock_.Now()));
    udr_->PumpMigration();
  }
}

int64_t Testbed::ProvisionDirect(uint64_t first, int64_t count) {
  int64_t created = 0;
  for (int64_t i = 0; i < count; ++i) {
    uint64_t index = first + static_cast<uint64_t>(i);
    std::optional<sim::SiteId> home;
    if (opts_.pin_home_sites) home = HomeSiteOf(index);
    auto spec = factory_.MakeSpec(index, home);
    auto outcome = udr_->CreateSubscriber(spec, home.value_or(0));
    if (outcome.ok()) ++created;
  }
  return created;
}

}  // namespace udr::workload
