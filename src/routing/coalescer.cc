#include "routing/coalescer.h"

#include <utility>

namespace udr::routing {

Coalescer::Coalescer(CoalescerConfig config, Router* router,
                     const sim::SimClock* clock, Metrics* metrics)
    : config_(config),
      router_(router),
      clock_(clock),
      metrics_(metrics),
      events_(metrics->RegisterCounter("coalescer.events")),
      flush_passthrough_(metrics->RegisterCounter("coalescer.flush.passthrough")),
      flush_cap_(metrics->RegisterCounter("coalescer.flush.cap")),
      flush_deadline_(metrics->RegisterCounter("coalescer.flush.deadline")),
      flush_barrier_(metrics->RegisterCounter("coalescer.flush.barrier")),
      flush_ops_(metrics->RegisterHist("coalescer.flush.ops")),
      flush_events_(metrics->RegisterHist("coalescer.flush.events")),
      flush_groups_(metrics->RegisterHist("coalescer.flush.groups")),
      queue_delay_(metrics->RegisterHist("coalescer.queue_delay_us")) {}

EventId Coalescer::Submit(BatchRequest event) {
  const EventId id = next_id_++;
  if (event.empty()) {
    // Nothing to dispatch: complete immediately without opening a window.
    completed_.Put(id, EventOutcome());
    return id;
  }
  completed_.Put(id, std::nullopt);
  if (pending_.empty()) deadline_ = clock_->Now() + config_.window;
  pending_ops_ += event.size();
  pending_.push_back(Parked{id, std::move(event), clock_->Now()});
  events_.Add();

  if (config_.window <= 0) {
    Flush(flush_passthrough_);
  } else if (config_.max_ops > 0 && pending_ops_ >= config_.max_ops) {
    Flush(flush_cap_);
  }
  return id;
}

bool Coalescer::FlushIfDue() {
  if (pending_.empty() || clock_->Now() < deadline_) return false;
  Flush(flush_deadline_);
  return true;
}

void Coalescer::FlushNow() {
  if (pending_.empty()) return;
  Flush(flush_barrier_);
}

void Coalescer::Flush(Metrics::Counter& reason) {
  if (pending_.empty()) return;

  // One aggregate batch in arrival order: per-key order across events is
  // arrival order, matching what serial execution of the events would do.
  BatchRequest& agg = agg_;
  agg.ops.reserve(pending_ops_);
  bool projected = false;
  for (Parked& parked : pending_) {
    for (Operation& op : parked.event.ops) agg.ops.push_back(std::move(op));
    projected = projected || !parked.event.projections.empty();
  }
  // Projections ride along as the aggregate's side table: each event's
  // entries at its ops' offset, an empty entry for every unprojected op.
  if (projected) {
    agg.projections.resize(agg.ops.size());
    size_t offset = 0;
    for (Parked& parked : pending_) {
      std::vector<std::vector<storage::AttrId>>& mine =
          parked.event.projections;
      if (mine.size() == parked.event.size()) {
        for (size_t i = 0; i < mine.size(); ++i) {
          agg.projections[offset + i] = std::move(mine[i]);
        }
      }
      offset += parked.event.size();
    }
  }

  // Trace attribution: the shared dispatch runs once for every event in the
  // window, so its spans hang off the first *sampled* event's trace (the
  // others see their park span only — one trace per flush keeps the span
  // volume proportional to sampled events, not window width).
  obs::Tracer* tracer = router_->tracer();
  obs::TraceContext flush_parent;
  for (const Parked& parked : pending_) {
    if (parked.event.trace.active()) {
      flush_parent = parked.event.trace;
      break;
    }
  }
  obs::Span flush_span = obs::StartSpan(tracer, "coalesce.flush", flush_parent);
  agg.trace = flush_span.context().active() ? flush_span.context()
                                            : flush_parent;
  BatchResult& flush = flush_;
  router_->RouteBatch(agg, config_.poa_site, &flush);
  const MicroTime now = clock_->Now();
  flush_span.EndAt(now + flush.latency);

  ++flushes_;
  reason.Add();
  flush_ops_.Observe(static_cast<int64_t>(agg.size()));
  flush_events_.Observe(static_cast<int64_t>(pending_.size()));
  flush_groups_.Observe(flush.partition_groups);

  // Demultiplex: outcomes [cursor, cursor + event size) belong to each event
  // in arrival order. Every event completes when the shared dispatch does.
  size_t cursor = 0;
  for (Parked& parked : pending_) {
    EventOutcome out;
    out.coalesced_events = static_cast<int>(pending_.size());
    out.partition_groups = flush.partition_groups;
    out.queue_delay = now - parked.arrival;
    out.service_latency = flush.latency;
    out.outcomes.reserve(parked.event.size());
    for (size_t i = 0; i < parked.event.size(); ++i) {
      OpOutcome& op = flush.outcomes[cursor++];
      if (!op.ok()) ++out.failed_ops;
      if (op.bypassed_location) ++out.bypass_hits;
      if (op.from_cache) ++out.cache_hits;
      out.outcomes.push_back(std::move(op));
    }
    queue_delay_.Observe(out.queue_delay);
    // Each sampled event gets its park window as a span of its own trace
    // (recorded at flush time — the wait is only known once the window
    // closes).
    if (tracer != nullptr && parked.event.trace.active()) {
      tracer->RecordSpan("coalesce.park", parked.event.trace, parked.arrival,
                         now);
    }
    *completed_.Find(parked.id) = std::move(out);
  }

  agg.Clear();
  pending_.clear();
  pending_ops_ = 0;
  deadline_ = kTimeInfinity;
}

std::optional<EventOutcome> Coalescer::Take(EventId id) {
  std::optional<EventOutcome>* done = completed_.Find(id);
  if (done == nullptr || !done->has_value()) return std::nullopt;
  std::optional<EventOutcome> out = std::move(*done);
  completed_.Erase(id);
  return out;
}

}  // namespace udr::routing
