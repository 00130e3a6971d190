// Testbed: standard multi-site UDR deployment used by examples, tests and
// the benchmark harness. One call builds the topology, network, UDR NF with
// one blade cluster per site, commissions partitions and (optionally)
// pre-provisions a subscriber population.
//
// ReplicaRig: the same for one replica set driven directly, without a UDR
// NF: a clock, a network, one storage element per site and the set.

#ifndef UDR_WORKLOAD_TESTBED_H_
#define UDR_WORKLOAD_TESTBED_H_

#include <memory>
#include <optional>
#include <vector>

#include "replication/replica_set.h"
#include "sim/network.h"
#include "storage/storage_element.h"
#include "telecom/subscriber.h"
#include "udr/udr_nf.h"

namespace udr::workload {

/// Testbed construction parameters.
struct TestbedOptions {
  uint32_t sites = 3;
  uint64_t seed = 42;
  sim::LatencyConfig latency;
  udrnf::UdrConfig udr;
  /// Subscribers to create up-front (0 = none).
  int64_t subscribers = 0;
  /// Selective placement: subscriber i is pinned to site (i % sites).
  bool pin_home_sites = false;
};

/// A fully deployed simulated UDR network.
class Testbed {
 public:
  explicit Testbed(TestbedOptions opts);

  sim::SimClock& clock() { return clock_; }
  sim::Network& network() { return *network_; }
  udrnf::UdrNf& udr() { return *udr_; }
  const telecom::SubscriberFactory& factory() const { return factory_; }
  const TestbedOptions& options() const { return opts_; }

  /// Home site of subscriber `index` under the pinning policy (site 0 when
  /// pinning is disabled).
  sim::SiteId HomeSiteOf(uint64_t index) const {
    return opts_.pin_home_sites
               ? static_cast<sim::SiteId>(index % opts_.sites)
               : 0;
  }

  /// Bulk-creates subscribers [first, first+count) directly through the UDR
  /// admin API (no pacing; used to reach a target population quickly).
  /// Returns the number actually created.
  int64_t ProvisionDirect(uint64_t first, int64_t count);

  /// Scale-out: deploys a new blade cluster at `site` and rebalances primary
  /// copies onto its storage elements (per-SE primary-count spread <= 1, no
  /// acknowledged write lost). Returns the migration report.
  StatusOr<routing::RebalanceReport> ScaleOut(sim::SiteId site);

  /// The sim driver loop's deadline wake-up: advances to the first PoA window
  /// close or sampler tick due by `until` and pumps events; else to the first
  /// migration chunk due by `until` and pumps migration; else returns false.
  /// Not earliest-deadline-first: that would move migration chunks.
  bool PumpDue(MicroTime until);

  /// Advances at the migration scheduler's pace until every task drained.
  void DrainMigration();

 private:
  TestbedOptions opts_;
  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<udrnf::UdrNf> udr_;
  telecom::SubscriberFactory factory_;
};

/// One replica set on its own clock and network. Site `s` hosts storage
/// element `s` (named "se-s", SE index `s`, default config); the set spans
/// the first `replicas` elements (0 = all of them), mastered by element 0.
/// The elements past `replicas` stay empty, e.g. as a migration target.
class ReplicaRig {
 public:
  explicit ReplicaRig(replication::ReplicaSetConfig config,
                      uint32_t sites = 3,
                      sim::LatencyConfig latency = sim::LatencyConfig(),
                      uint32_t replicas = 0);
  ReplicaRig(const ReplicaRig&) = delete;
  ReplicaRig& operator=(const ReplicaRig&) = delete;

  sim::SimClock& clock() { return clock_; }
  sim::Network& network() { return network_; }
  replication::ReplicaSet& set() { return set_; }
  storage::StorageElement& se(uint32_t s) { return *ses_[s]; }

 private:
  // Declaration order is destruction order reversed: the set goes before
  // the elements it points at, and those before the network and clock.
  sim::SimClock clock_;
  sim::Network network_;
  std::vector<std::unique_ptr<storage::StorageElement>> ses_;
  replication::ReplicaSet set_;
};

}  // namespace udr::workload

#endif  // UDR_WORKLOAD_TESTBED_H_
