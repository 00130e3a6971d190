// A blade cluster: the scale-up unit of the UDR NF (paper §3.4.1). Hosts up
// to 16 storage elements (RAM-hungry) and up to 32 stateless LDAP server
// processes (CPU-hungry), fronted by an L4 balancer that realizes the local
// Point of Access, plus one data location stage instance.

#ifndef UDR_UDR_BLADE_CLUSTER_H_
#define UDR_UDR_BLADE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ldap/server.h"
#include "location/location_stage.h"
#include "sim/clock.h"
#include "storage/storage_element.h"

namespace udr::udrnf {

/// Architectural limits from the paper's §3.5 calculations.
constexpr int kMaxStorageElementsPerCluster = 16;
constexpr int kMaxLdapServersPerCluster = 32;
constexpr int kMaxClustersPerNf = 256;

/// One blade cluster instance.
class BladeCluster {
 public:
  BladeCluster(uint32_t id, sim::SiteId site, sim::SimClock* clock)
      : id_(id), site_(site), clock_(clock), balancer_(site) {}

  uint32_t id() const { return id_; }
  sim::SiteId site() const { return site_; }

  /// Deploys a storage element to the cluster (limit: 16 per cluster).
  StatusOr<storage::StorageElement*> AddStorageElement(
      storage::StorageElementConfig config, uint32_t replica_id);

  /// Deploys an LDAP server process; the balancer auto-detects it.
  StatusOr<ldap::LdapServer*> AddLdapServer(ldap::LdapServerConfig config);

  /// Installs the cluster's data location stage instance.
  void SetLocationStage(std::unique_ptr<location::LocationStage> stage) {
    location_stage_ = std::move(stage);
  }
  location::LocationStage* location_stage() const {
    return location_stage_.get();
  }

  ldap::L4Balancer& balancer() { return balancer_; }
  const std::vector<std::unique_ptr<storage::StorageElement>>& storage_elements()
      const {
    return storage_elements_;
  }
  size_t se_count() const { return storage_elements_.size(); }
  size_t ldap_count() const { return ldap_servers_.size(); }

  /// Aggregate LDAP ops/s capacity of this cluster's healthy servers.
  int64_t LdapOpsPerSecond() const { return balancer_.OpsPerSecondCapacity(); }

  /// Aggregate subscriber capacity for a given average profile footprint.
  int64_t SubscriberCapacity(int64_t avg_record_bytes) const {
    int64_t total = 0;
    for (const auto& se : storage_elements_) {
      total += se->SubscriberCapacity(avg_record_bytes);
    }
    return total;
  }

 private:
  uint32_t id_;
  sim::SiteId site_;
  sim::SimClock* clock_;
  ldap::L4Balancer balancer_;
  std::vector<std::unique_ptr<storage::StorageElement>> storage_elements_;
  std::vector<std::unique_ptr<ldap::LdapServer>> ldap_servers_;
  std::unique_ptr<location::LocationStage> location_stage_;
};

}  // namespace udr::udrnf

#endif  // UDR_UDR_BLADE_CLUSTER_H_
