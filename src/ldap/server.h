// Stateless LDAP server processes and the L4 balancer fronting them
// (paper §3.4.1). A server holds only its per-operation protocol cost, its
// health and the ops it served; request semantics belong to the UDR data
// path, which picks a server here and charges it per message. Because
// servers are stateless, any instance can serve any client — the
// statistical-multiplexing property §2.2 highlights.

#ifndef UDR_LDAP_SERVER_H_
#define UDR_LDAP_SERVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
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
  explicit LdapServer(LdapServerConfig config) : config_(std::move(config)) {}

  const LdapServerConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  sim::SiteId site() const { return config_.site; }

  bool healthy() const { return healthy_; }
  void set_healthy(bool h) { healthy_ = h; }

  /// Accounts for serving `ops` operations of one protocol message: counts
  /// them and returns their protocol processing cost.
  MicroDuration Charge(int64_t ops) {
    ops_served_ += ops;
    return config_.per_op_cost * ops;
  }

  int64_t ops_served() const { return ops_served_; }

  /// Advertised capacity in operations per second (1 / per_op_cost).
  int64_t OpsPerSecondCapacity() const {
    return config_.per_op_cost > 0 ? Seconds(1) / config_.per_op_cost : 0;
  }

 private:
  LdapServerConfig config_;
  bool healthy_ = true;
  int64_t ops_served_ = 0;
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
};

}  // namespace udr::ldap

#endif  // UDR_LDAP_SERVER_H_
