#include "udr/event_pipeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace udr::udrnf {

EventPipeline::EventPipeline(MicroDuration window, int max_ops,
                             routing::Router* router, sim::Network* network,
                             Metrics* metrics, FinalizeFn finalize)
    : config_{window, static_cast<size_t>(std::max(max_ops, 0))},
      router_(router),
      network_(network),
      metrics_(metrics),
      finalize_(std::move(finalize)),
      enqueued_(metrics->RegisterCounter("udr.event.enqueued")),
      submit_ok_(metrics->RegisterCounter("udr.submit.ok")),
      submit_failed_(metrics->RegisterCounter("udr.submit.failed")) {}

void EventPipeline::AddWindow(sim::SiteId poa_site) {
  windows_.emplace_back();
  windows_.back().coalescer = std::make_unique<routing::Coalescer>(
      routing::CoalescerConfig{config_.window, config_.max_ops, poa_site},
      router_, network_->clock(), metrics_);
}

uint64_t EventPipeline::Open(sim::SiteId client_site, uint32_t cluster,
                             MicroDuration protocol_cost) {
  events_.Put(next_handle_,
              EventEntry{{}, false, client_site, cluster, protocol_cost});
  return next_handle_++;
}

bool EventPipeline::Parks(uint32_t cluster,
                          const std::vector<ldap::LdapRequest>& requests) {
  if (config_.window <= 0) return false;
  for (const ldap::LdapRequest& req : requests) {
    if (req.op != ldap::LdapOp::kAdd) continue;
    Close(cluster);
    metrics_->Add("udr.event.inline_add");
    return false;
  }
  return true;
}

void EventPipeline::Complete(uint64_t handle, ldap::LdapBatchResult result) {
  EventEntry& entry = *events_.Find(handle);
  entry.result = std::move(result);
  entry.ready = true;
  ++completions_;
}

void EventPipeline::Park(uint64_t handle, PendingEvent event,
                         routing::BatchRequest batch) {
  const uint32_t cluster = events_.Find(handle)->cluster;
  for (const routing::Operation& op : batch.ops) {
    const std::optional<storage::RecordKey> key = WriteKeyOf(op);
    if (!key.has_value()) continue;
    CloseWindowHolding(*key, cluster);
    if (parked_writes_.Find(*key) == FlatKeyIndex::kNone) {
      parked_writes_.Insert(*key, cluster);
      windows_[cluster].write_keys.push_back(*key);
    }
  }
  Window& window = windows_[cluster];
  event.handle = handle;
  event.event = window.coalescer->Submit(std::move(batch));
  window.events.push_back(std::move(event));
  enqueued_.Add();
  // Drain only when the submit itself flushed the window (size cap hit).
  if (!window.coalescer->HasPending()) Close(cluster);
}

void EventPipeline::Close(uint32_t cluster) {
  Window& window = windows_[cluster];
  window.coalescer->FlushNow();
  for (PendingEvent& event : window.events) {
    const uint64_t handle = event.handle;
    std::optional<routing::EventOutcome> outcome =
        window.coalescer->Take(event.event);
    assert(outcome.has_value() && "a drain follows a flush of the window");
    Complete(handle, finalize_(std::move(event), *outcome));
  }
  window.events.clear();
  for (storage::RecordKey key : window.write_keys) parked_writes_.Erase(key);
  window.write_keys.clear();
}

void EventPipeline::CloseWindowHolding(storage::RecordKey key, uint32_t keep) {
  const uint32_t cluster = parked_writes_.Find(key);
  if (cluster == FlatKeyIndex::kNone || cluster == keep) return;
  metrics_->Add("udr.event.order_close");
  Close(cluster);
}

void EventPipeline::CloseWindowsWritingTo(const routing::BatchRequest& batch) {
  for (const routing::Operation& op : batch.ops) {
    if (parked_writes_.size() == 0) return;
    if (const auto key = WriteKeyOf(op)) {
      CloseWindowHolding(*key, FlatKeyIndex::kNone);
    }
  }
}

std::optional<storage::RecordKey> EventPipeline::WriteKeyOf(
    const routing::Operation& op) const {
  if (op.kind != routing::Operation::Kind::kWrite) return std::nullopt;
  const auto at = router_->bindings().Find(op.identity);
  if (!at.has_value()) return std::nullopt;
  return at->key;
}

void EventPipeline::Pump() {
  for (uint32_t c = 0; c < windows_.size(); ++c) {
    if (windows_[c].coalescer->FlushIfDue()) Close(c);
  }
}

void EventPipeline::Flush() {
  for (uint32_t c = 0; c < windows_.size(); ++c) Close(c);
}

MicroTime EventPipeline::NextDeadline() const {
  MicroTime next = kTimeInfinity;
  for (const Window& w : windows_) {
    next = std::min(next, w.coalescer->deadline());
  }
  return next;
}

std::optional<ldap::LdapBatchResult> EventPipeline::Take(uint64_t handle) {
  EventEntry* entry = events_.Find(handle);
  if (entry == nullptr || !entry->ready) return std::nullopt;
  // The owed protocol cost, then one client <-> PoA round trip for the
  // whole event, as on SubmitBatch.
  ldap::LdapBatchResult out = std::move(entry->result);
  out.latency += entry->protocol_cost;
  AddClientLeg(entry->client_site,
               windows_[entry->cluster].coalescer->config().poa_site, &out);
  events_.Erase(handle);
  return out;
}

}  // namespace udr::udrnf
