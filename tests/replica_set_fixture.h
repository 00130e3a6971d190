// Shared gtest fixture for the replication tests: one storage element per
// site and one ReplicaSet over them, mastered at site 0.

#ifndef UDR_TESTS_REPLICA_SET_FIXTURE_H_
#define UDR_TESTS_REPLICA_SET_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

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
    rig_ = std::make_unique<workload::ReplicaRig>(cfg, sites, lc);
  }

  sim::SimClock& clock() { return rig_->clock(); }
  sim::Network& network() { return rig_->network(); }
  ReplicaSet& rs() { return rig_->set(); }

  WriteResult Put(sim::SiteId from, storage::RecordKey key,
                  const std::string& attr, storage::Value v) {
    WriteBuilder wb;
    wb.Set(key, attr, std::move(v));
    return rs().Write(from, std::move(wb).Build());
  }

  std::string ValueAt(uint32_t replica, storage::RecordKey key,
                      const std::string& attr) {
    const storage::Record* r = rs().replica_store(replica).Find(key);
    if (r == nullptr) return "<norec>";
    auto v = r->Get(attr);
    return v.has_value() ? storage::ValueToString(*v) : "<noattr>";
  }

  std::unique_ptr<workload::ReplicaRig> rig_;
};

}  // namespace udr::replication

#endif  // UDR_TESTS_REPLICA_SET_FIXTURE_H_
