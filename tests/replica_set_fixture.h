// Shared gtest fixture for the replication tests: one storage element per
// site and one ReplicaSet over them, mastered at site 0.

#ifndef UDR_TESTS_REPLICA_SET_FIXTURE_H_
#define UDR_TESTS_REPLICA_SET_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/network.h"

namespace udr::replication {

/// Three-site harness (or `sites`): one SE per site, replica set mastered
/// at site 0.
class ReplicaSetTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(ReplicaSetConfig()); }

  void Build(ReplicaSetConfig cfg, uint32_t sites = 3) {
    sim::LatencyConfig lc;
    lc.lan_one_way = Micros(100);
    lc.backbone_one_way = Millis(15);
    network_ =
        std::make_unique<sim::Network>(sim::Topology(sites, lc), &clock_);
    ses_.clear();
    std::vector<storage::StorageElement*> ptrs;
    for (uint32_t s = 0; s < sites; ++s) {
      storage::StorageElementConfig se_cfg;
      se_cfg.name = "se-" + std::to_string(s);
      se_cfg.site = s;
      ses_.push_back(
          std::make_unique<storage::StorageElement>(se_cfg, &clock_, s));
      ptrs.push_back(ses_.back().get());
    }
    rs_ = std::make_unique<ReplicaSet>(cfg, ptrs, network_.get());
  }

  WriteResult Put(sim::SiteId from, storage::RecordKey key,
                  const std::string& attr, storage::Value v) {
    WriteBuilder wb;
    wb.Set(key, attr, std::move(v));
    return rs_->Write(from, std::move(wb).Build());
  }

  std::string ValueAt(uint32_t replica, storage::RecordKey key,
                      const std::string& attr) {
    const storage::Record* r = rs_->replica_store(replica).Find(key);
    if (r == nullptr) return "<norec>";
    auto v = r->Get(attr);
    return v.has_value() ? storage::ValueToString(*v) : "<noattr>";
  }

  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::vector<std::unique_ptr<storage::StorageElement>> ses_;
  std::unique_ptr<ReplicaSet> rs_;
};

}  // namespace udr::replication

#endif  // UDR_TESTS_REPLICA_SET_FIXTURE_H_
