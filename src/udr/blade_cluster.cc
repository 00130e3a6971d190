#include "udr/blade_cluster.h"

namespace udr::udrnf {

StatusOr<storage::StorageElement*> BladeCluster::AddStorageElement(
    storage::StorageElementConfig config, uint32_t replica_id) {
  if (storage_elements_.size() >= kMaxStorageElementsPerCluster) {
    return Status::ResourceExhausted(
        "cluster " + std::to_string(id_) + " already hosts " +
        std::to_string(storage_elements_.size()) + " storage elements");
  }
  config.site = site_;
  if (config.name == "se") {
    config.name = "c" + std::to_string(id_) + "-se" +
                  std::to_string(storage_elements_.size());
  }
  storage_elements_.push_back(
      std::make_unique<storage::StorageElement>(std::move(config), clock_,
                                                replica_id));
  return storage_elements_.back().get();
}

StatusOr<ldap::LdapServer*> BladeCluster::AddLdapServer(
    ldap::LdapServerConfig config) {
  if (ldap_servers_.size() >= kMaxLdapServersPerCluster) {
    return Status::ResourceExhausted(
        "cluster " + std::to_string(id_) + " already hosts " +
        std::to_string(ldap_servers_.size()) + " LDAP servers");
  }
  config.site = site_;
  if (config.name == "ldap") {
    config.name = "c" + std::to_string(id_) + "-ldap" +
                  std::to_string(ldap_servers_.size());
  }
  ldap_servers_.push_back(
      std::make_unique<ldap::LdapServer>(std::move(config)));
  balancer_.AddServer(ldap_servers_.back().get());
  return ldap_servers_.back().get();
}

}  // namespace udr::udrnf
