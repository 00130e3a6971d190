#include "telecom/provisioning.h"

#include <algorithm>
#include <deque>

#include "ldap/dn.h"

namespace udr::telecom {

ldap::LdapResult ProvisioningSystem::SubmitAdd(
    uint64_t index, std::optional<sim::SiteId> home_site) {
  udrnf::UdrNf::CreateSpec spec = factory_->MakeSpec(index, home_site);
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kAdd;
  req.dn = ldap::SubscriberDn("imsi", factory_->ImsiOf(index));
  req.add_entry = spec.profile;
  req.master_only = true;
  return udr_->Submit(req, config_.site);
}

ProcedureResult ProvisioningSystem::Provision(
    uint64_t index, std::optional<sim::SiteId> home_site) {
  ProcedureResult out;
  for (int attempt = 0; attempt <= config_.retries; ++attempt) {
    ldap::LdapResult r = SubmitAdd(index, home_site);
    ++out.ldap_ops;
    out.latency += r.latency;
    if (r.ok()) {
      out.status = Status::Ok();
      ++provisioned_;
      return out;
    }
    ++out.failed_ops;
    out.status = Status(r.code == ldap::LdapResultCode::kUnavailable
                            ? StatusCode::kUnavailable
                            : StatusCode::kInternal,
                        std::string(ldap::LdapResultCodeName(r.code)) +
                            (r.diagnostic.empty() ? "" : ": " + r.diagnostic));
    if (r.code == ldap::LdapResultCode::kEntryAlreadyExists) {
      out.status = Status::AlreadyExists(r.diagnostic);
      return out;  // Retry cannot help.
    }
  }
  return out;
}

ProcedureResult ProvisioningSystem::Deprovision(uint64_t index) {
  ProcedureResult out;
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kDelete;
  req.dn = ldap::SubscriberDn("imsi", factory_->ImsiOf(index));
  req.master_only = true;
  ldap::LdapResult r = udr_->Submit(req, config_.site);
  ++out.ldap_ops;
  out.latency += r.latency;
  if (!r.ok()) {
    ++out.failed_ops;
    out.status = Status(StatusCode::kUnavailable,
                        std::string(ldap::LdapResultCodeName(r.code)));
  }
  return out;
}

ProcedureResult ProvisioningSystem::SetPremiumBarring(uint64_t index,
                                                      bool barred) {
  ProcedureResult out;
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kModify;
  req.dn = ldap::SubscriberDn("imsi", factory_->ImsiOf(index));
  req.master_only = true;
  req.mods.push_back(
      ldap::Modification{ldap::ModType::kReplace, attr::kOdbPremium, barred});
  ldap::LdapResult r = udr_->Submit(req, config_.site);
  ++out.ldap_ops;
  out.latency += r.latency;
  if (!r.ok()) {
    ++out.failed_ops;
    out.status = Status(StatusCode::kUnavailable,
                        std::string(ldap::LdapResultCodeName(r.code)));
  }
  return out;
}

ProcedureResult ProvisioningSystem::SetCallForwarding(uint64_t index,
                                                      const std::string& number) {
  ProcedureResult out;
  // Master-only read: the PS may not read slave copies (§3.3.3 decision 2).
  ldap::LdapRequest read;
  read.op = ldap::LdapOp::kSearch;
  read.dn = ldap::SubscriberDn("imsi", factory_->ImsiOf(index));
  read.scope = ldap::SearchScope::kBaseObject;
  read.requested_attrs = {attr::kCallForwardingUncond, attr::kCategory};
  read.master_only = true;
  ldap::LdapRequest write;
  write.op = ldap::LdapOp::kModify;
  write.dn = read.dn;
  write.master_only = true;
  write.mods.push_back(ldap::Modification{
      ldap::ModType::kReplace, attr::kCallForwardingUncond, number});

  if (config_.batched) {
    // One provisioning transaction = one multi-op message: both master-only
    // ops land in the same partition group and share one round trip.
    std::vector<ldap::LdapRequest> ops;
    ops.reserve(2);
    ops.push_back(std::move(read));
    ops.push_back(std::move(write));
    ldap::LdapBatchResult batch = udr_->SubmitBatch(ops, config_.site);
    out.ldap_ops = static_cast<int>(batch.results.size());
    out.latency = batch.latency;
    for (const ldap::LdapResult& r : batch.results) {
      if (r.ok()) continue;
      ++out.failed_ops;
      if (out.status.ok()) {
        out.status = Status(StatusCode::kUnavailable,
                            std::string(ldap::LdapResultCodeName(r.code)));
      }
    }
    return out;
  }

  ldap::LdapResult r1 = udr_->Submit(read, config_.site);
  ++out.ldap_ops;
  out.latency += r1.latency;
  if (!r1.ok() || r1.entries.empty()) {
    ++out.failed_ops;
    out.status = Status(StatusCode::kUnavailable,
                        std::string(ldap::LdapResultCodeName(r1.code)));
    return out;
  }
  ldap::LdapResult r2 = udr_->Submit(write, config_.site);
  ++out.ldap_ops;
  out.latency += r2.latency;
  if (!r2.ok()) {
    ++out.failed_ops;
    out.status = Status(StatusCode::kUnavailable,
                        std::string(ldap::LdapResultCodeName(r2.code)));
  }
  return out;
}

BatchReport ProvisioningSystem::RunBatch(uint64_t first, int64_t count,
                                         double rate_per_sec,
                                         bool stop_on_failure,
                                         std::optional<sim::SiteId> home_site) {
  BatchReport report;
  sim::SimClock* clock = udr_->network()->clock();
  report.started = clock->Now();
  MicroDuration interarrival =
      rate_per_sec > 0 ? static_cast<MicroDuration>(1e6 / rate_per_sec) : 0;

  for (int64_t i = 0; i < count; ++i) {
    ProcedureResult r = Provision(first + static_cast<uint64_t>(i), home_site);
    ++report.attempted;
    if (r.ok()) {
      ++report.succeeded;
    } else {
      ++report.failed;
      if (stop_on_failure) {
        report.aborted = true;
        report.skipped = count - report.attempted;
        break;
      }
    }
    // The batch pump is rate-limited but never issues the next operation
    // before the previous one completed.
    clock->Advance(std::max(interarrival, r.latency));
  }
  report.finished = clock->Now();
  return report;
}

BacklogReport ProvisioningSystem::RunBacklog(
    MicroDuration duration, double arrival_rate_per_sec, int64_t queue_capacity,
    std::optional<sim::SiteId> home_site, uint64_t first_index) {
  BacklogReport report;
  sim::SimClock* clock = udr_->network()->clock();
  sim::Scheduler scheduler(clock);
  const MicroTime horizon = clock->Now() + duration;
  MicroDuration interarrival =
      static_cast<MicroDuration>(1e6 / arrival_rate_per_sec);

  std::deque<uint64_t> queue;
  bool server_busy = false;
  uint64_t next_index = first_index;

  // Declared up-front so the two lambdas can reference each other.
  std::function<void()> serve_next = [&]() {
    if (queue.empty()) {
      server_busy = false;
      return;
    }
    server_busy = true;
    uint64_t index = queue.front();
    queue.pop_front();
    ProcedureResult r = Provision(index, home_site);
    ++report.served;
    if (!r.ok()) ++report.failed;
    // Completion after the measured provisioning latency.
    scheduler.After(std::max<MicroDuration>(r.latency, 1), serve_next);
  };

  std::function<void(MicroTime)> arrive = [&](MicroTime when) {
    scheduler.At(when, [&, when]() {
      ++report.arrivals;
      if (static_cast<int64_t>(queue.size()) >= queue_capacity) {
        ++report.dropped;
      } else {
        queue.push_back(next_index++);
        report.max_depth =
            std::max(report.max_depth, static_cast<int64_t>(queue.size()));
        if (!server_busy) serve_next();
      }
      MicroTime next = when + interarrival;
      if (next < horizon) arrive(next);
    });
  };

  arrive(clock->Now() + interarrival);
  scheduler.RunUntil(horizon + Seconds(60));  // Drain margin.
  report.final_depth = static_cast<int64_t>(queue.size());
  return report;
}

}  // namespace udr::telecom
