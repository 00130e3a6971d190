// Stateless LDAP server processes and the L4 balancer fronting them
// (paper §3.4.1). Servers add per-operation processing cost and capacity
// accounting; request semantics are delegated to the backend (the UDR data
// path). Because servers are stateless, any instance can serve any client —
// the statistical-multiplexing property §2.2 highlights.

#ifndef UDR_LDAP_SERVER_H_
#define UDR_LDAP_SERVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/handle_table.h"
#include "common/status.h"
#include "common/time.h"
#include "ldap/message.h"
#include "sim/topology.h"

namespace udr::ldap {

/// Configuration of one LDAP server process.
struct LdapServerConfig {
  std::string name = "ldap";
  sim::SiteId site = 0;
  /// Per-operation protocol processing cost. The paper's tested figure is
  /// 10^6 indexed single-subscriber ops/s per server on a state-of-the-art
  /// blade, i.e. ~1 µs of processing per op.
  MicroDuration per_op_cost = Micros(1);
};

/// One stateless LDAP server process.
class LdapServer {
 public:
  LdapServer(LdapServerConfig config, LdapBackend* backend)
      : config_(std::move(config)), backend_(backend) {}

  const LdapServerConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  sim::SiteId site() const { return config_.site; }

  bool healthy() const { return healthy_; }
  void set_healthy(bool h) { healthy_ = h; }

  /// Serves one request: protocol cost + backend semantics.
  LdapResult Serve(const LdapRequest& request, sim::SiteId client_site) {
    LdapResult result = backend_->Process(request, client_site);
    result.latency += config_.per_op_cost;
    ++ops_served_;
    return result;
  }

  /// Serves one multi-op request: per-op protocol cost, one backend batch.
  LdapBatchResult ServeBatch(const std::vector<LdapRequest>& requests,
                             sim::SiteId client_site) {
    LdapBatchResult result = backend_->ProcessBatch(requests, client_site);
    result.latency +=
        config_.per_op_cost * static_cast<int64_t>(requests.size());
    ops_served_ += static_cast<int64_t>(requests.size());
    return result;
  }

  /// Enqueues one multi-op request into the backend's dispatch window. The
  /// protocol processing happens at enqueue; its cost is charged onto the
  /// result when it is taken.
  uint64_t EnqueueBatch(std::vector<LdapRequest> requests,
                        sim::SiteId client_site) {
    const int64_t ops = static_cast<int64_t>(requests.size());
    uint64_t handle = backend_->EnqueueBatch(std::move(requests), client_site);
    pending_cost_.Put(handle, config_.per_op_cost * ops);
    ops_served_ += ops;
    return handle;
  }

  /// Claims the result of an enqueued request once its window flushed.
  std::optional<LdapBatchResult> TakeBatch(uint64_t handle) {
    std::optional<LdapBatchResult> result = backend_->TakeBatchResult(handle);
    if (result.has_value()) {
      if (const MicroDuration* cost = pending_cost_.Find(handle)) {
        result->latency += *cost;
        pending_cost_.Erase(handle);
      }
    }
    return result;
  }

  int64_t ops_served() const { return ops_served_; }

  /// Advertised capacity in operations per second (1 / per_op_cost).
  int64_t OpsPerSecondCapacity() const {
    return config_.per_op_cost > 0 ? Seconds(1) / config_.per_op_cost : 0;
  }

 private:
  LdapServerConfig config_;
  LdapBackend* backend_;
  bool healthy_ = true;
  int64_t ops_served_ = 0;
  /// Protocol cost owed per enqueued-but-not-yet-taken request.
  HandleTable<MicroDuration> pending_cost_;
};

/// L4-capable IP balancer realizing the Point of Access (PoA) to the UDR:
/// spreads LDAP traffic round-robin over the healthy local servers and
/// auto-detects newly deployed instances (paper §3.4.1).
class L4Balancer {
 public:
  explicit L4Balancer(sim::SiteId site) : site_(site) {}

  sim::SiteId site() const { return site_; }

  /// Registers a server (scale-up: growth is automatic).
  void AddServer(LdapServer* server) { servers_.push_back(server); }

  size_t server_count() const { return servers_.size(); }

  /// Every registered server, healthy or not (maintenance: drain/restore a
  /// whole farm — Pick() only ever returns healthy instances).
  const std::vector<LdapServer*>& servers() const { return servers_; }

  /// Healthy servers currently in rotation.
  size_t healthy_count() const {
    size_t n = 0;
    for (const auto* s : servers_) {
      if (s->healthy()) ++n;
    }
    return n;
  }

  /// Picks the next healthy server (round robin). Returns Unavailable when
  /// none is healthy.
  StatusOr<LdapServer*> Pick() {
    if (servers_.empty()) return Status::Unavailable("no LDAP servers deployed");
    for (size_t i = 0; i < servers_.size(); ++i) {
      LdapServer* s = servers_[next_ % servers_.size()];
      next_ = (next_ + 1) % servers_.size();
      if (s->healthy()) return s;
    }
    return Status::Unavailable("no healthy LDAP server at PoA");
  }

  /// Serves a request through the next healthy server.
  LdapResult Serve(const LdapRequest& request, sim::SiteId client_site) {
    auto picked = Pick();
    if (!picked.ok()) {
      LdapResult r;
      r.code = LdapResultCode::kUnavailable;
      r.diagnostic = picked.status().message();
      return r;
    }
    return (*picked)->Serve(request, client_site);
  }

  /// Serves a whole multi-op request through one server (the batch is one
  /// protocol message; splitting it would forfeit the grouped dispatch).
  LdapBatchResult ServeBatch(const std::vector<LdapRequest>& requests,
                             sim::SiteId client_site) {
    auto picked = Pick();
    if (!picked.ok()) {
      LdapBatchResult out;
      out.results.resize(requests.size());
      for (LdapResult& r : out.results) {
        r.code = LdapResultCode::kUnavailable;
        r.diagnostic = picked.status().message();
      }
      return out;
    }
    return (*picked)->ServeBatch(requests, client_site);
  }

  /// Enqueues a whole multi-op request through one server into the PoA's
  /// cross-event dispatch window (the event is one protocol message; the
  /// serving instance is remembered so the result can be claimed from it).
  StatusOr<uint64_t> EnqueueBatch(std::vector<LdapRequest> requests,
                                  sim::SiteId client_site) {
    auto picked = Pick();
    if (!picked.ok()) return picked.status();
    uint64_t handle = (*picked)->EnqueueBatch(std::move(requests), client_site);
    enqueued_.Put(handle, *picked);
    return handle;
  }

  /// Claims the result of an enqueued request once its window flushed.
  std::optional<LdapBatchResult> TakeBatch(uint64_t handle) {
    LdapServer* const* server = enqueued_.Find(handle);
    if (server == nullptr) return std::nullopt;
    std::optional<LdapBatchResult> result = (*server)->TakeBatch(handle);
    if (result.has_value()) enqueued_.Erase(handle);
    return result;
  }

  /// Aggregate ops/s capacity of the healthy servers.
  int64_t OpsPerSecondCapacity() const {
    int64_t total = 0;
    for (const auto* s : servers_) {
      if (s->healthy()) total += s->OpsPerSecondCapacity();
    }
    return total;
  }

 private:
  sim::SiteId site_;
  std::vector<LdapServer*> servers_;
  size_t next_ = 0;
  /// Server owning each in-flight enqueued request.
  HandleTable<LdapServer*> enqueued_;
};

}  // namespace udr::ldap

#endif  // UDR_LDAP_SERVER_H_
