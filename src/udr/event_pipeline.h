// EventPipeline: each PoA's dispatch window (routing::Coalescer) and the
// ledger of the events enqueued through them, from enqueue to take, with
// per-key order kept across the window boundary. UdrNf takes an event's PoA
// hop and translates its verbs; the pipeline calls back into UdrNf once per
// flushed event, to map its outcome onto an LDAP result. It holds state only
// for the clusters whose windows it opened.

#ifndef UDR_UDR_EVENT_PIPELINE_H_
#define UDR_UDR_EVENT_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_table.h"
#include "common/handle_table.h"
#include "common/metrics.h"
#include "ldap/message.h"
#include "location/identity.h"
#include "routing/coalescer.h"
#include "sim/network.h"

namespace udr::udrnf {

/// How one request of a multi-op event maps onto the pipeline batch.
struct RequestSlot {
  enum class Kind {
    kPipeline,  ///< One batchable op at index `op`.
    kDelete,    ///< Master-only read at `op` + delete-record write at `write_op`.
    kInline,    ///< Resolved without the pipeline; result already final.
  };
  Kind kind = Kind::kInline;
  size_t op = 0;
  size_t write_op = 0;
  location::Identity identity;     ///< kDelete: DN identity to unbind.
  ldap::LdapResult inline_result;  ///< kInline.
};

/// One event parked in a cluster's dispatch window, waiting for its flush.
struct PendingEvent {
  uint64_t handle = 0;         ///< The pipeline's handle.
  routing::EventId event = 0;  ///< The coalescer's id.
  std::vector<ldap::LdapRequest> requests;
  std::vector<RequestSlot> slots;  ///< 1:1 with `requests`.
};

class EventPipeline {
 public:
  /// Consumes a flushed event and maps its outcome onto its result, when the
  /// window drains: a parked Delete's bookkeeping happens then, not at take.
  using FinalizeFn = std::function<ldap::LdapBatchResult(
      PendingEvent event, routing::EventOutcome& outcome)>;

  /// Every window closes `window` after its first arrival or once
  /// `max_ops` ops are parked (0 = no cap).
  EventPipeline(MicroDuration window, int max_ops, routing::Router* router,
                sim::Network* network, Metrics* metrics, FinalizeFn finalize);

  /// Opens the window of the next cluster id, whose PoA is at `poa_site`.
  void AddWindow(sim::SiteId poa_site);

  /// Issues the handle of an event that entered `cluster`'s PoA; Take owes
  /// it `protocol_cost` and the client leg to `client_site`.
  uint64_t Open(sim::SiteId client_site, uint32_t cluster,
                MicroDuration protocol_cost);

  /// Whether an event of `requests` parks (never with the window off). An
  /// Add never parks, since its placement side effects must not be
  /// reordered against parked ops: it closes `cluster`'s window first.
  bool Parks(uint32_t cluster, const std::vector<ldap::LdapRequest>& requests);

  void Complete(uint64_t handle, ldap::LdapBatchResult result);

  /// Parks `event` with its non-empty `batch` in its cluster's window. A
  /// write parks behind every earlier write to its record: another window
  /// holding one dispatches first.
  void Park(uint64_t handle, PendingEvent event, routing::BatchRequest batch);

  /// Before `batch` dispatches inline: closes every window holding a parked
  /// write to a record it writes (one emptiness check when none is parked).
  void CloseWindowsWritingTo(const routing::BatchRequest& batch);

  void Pump();   ///< Flushes every window whose deadline has passed.
  void Flush();  ///< Flushes every window now.
  MicroTime NextDeadline() const;
  std::optional<ldap::LdapBatchResult> Take(uint64_t handle);
  uint64_t completions() const { return completions_; }
  routing::Coalescer* coalescer(uint32_t cluster) {
    return cluster < windows_.size() ? windows_[cluster].coalescer.get()
                                     : nullptr;
  }

  /// The client <-> PoA leg of one message (LAN when the client is
  /// co-located, §3.3.2 measure 1), then the udr.submit.{ok,failed} count.
  template <typename Result>
  void AddClientLeg(sim::SiteId client_site, sim::SiteId poa_site,
                    Result* result) {
    result->latency += network_->topology().Rtt(client_site, poa_site) +
                       network_->topology().HopOverhead();
    (result->ok() ? submit_ok_ : submit_failed_).Add();
  }

 private:
  /// One enqueued event: its result once `ready`.
  struct EventEntry {
    ldap::LdapBatchResult result;
    bool ready = false;
    sim::SiteId client_site = 0;
    uint32_t cluster = 0;  ///< The PoA's cluster, whose window parks it.
    MicroDuration protocol_cost = 0;
  };
  struct Window {
    std::unique_ptr<routing::Coalescer> coalescer;
    std::vector<PendingEvent> events;  ///< In arrival order.
    std::vector<storage::RecordKey> write_keys;  ///< Its parked_writes_.
  };

  /// Flushes `cluster`'s window (if not already done) and completes every
  /// event parked there, in arrival order; its parked writes go with them.
  void Close(uint32_t cluster);
  /// Closes the window holding a parked write to `key`, unless `keep`'s.
  void CloseWindowHolding(storage::RecordKey key, uint32_t keep);
  /// The record a write op targets; nullopt for a read or unbound identity.
  std::optional<storage::RecordKey> WriteKeyOf(
      const routing::Operation& op) const;

  routing::CoalescerConfig config_;
  routing::Router* router_;
  sim::Network* network_;
  Metrics* metrics_;
  FinalizeFn finalize_;
  Metrics::Counter enqueued_;       ///< udr.event.enqueued
  Metrics::Counter submit_ok_;      ///< udr.submit.ok
  Metrics::Counter submit_failed_;  ///< udr.submit.failed
  std::vector<Window> windows_;     ///< By cluster id.
  HandleTable<EventEntry> events_;  ///< Enqueued events not yet taken.
  uint64_t next_handle_ = 1;
  /// Each record with a write parked in a window, to that one window's
  /// cluster (parking a write closes any other window holding its record).
  FlatKeyIndex parked_writes_;
  uint64_t completions_ = 0;
};

}  // namespace udr::udrnf

#endif  // UDR_UDR_EVENT_PIPELINE_H_
