// Continuous scenario verification: the engine feeds every procedure
// outcome and every acknowledged stamped write into the Verifier, which
// keeps the per-class statistics, the acked-write ledger and the hard
// invariants the scenario harness asserts:
//
//   * zero acked-write loss — every write the client saw acknowledged is
//     readable (at its stamp or newer) from the master copy at audit time;
//   * per-key order — stamps committed for one (key, attribute) channel
//     never regress in authoritative-log order (the §3.2 serialization
//     guarantee, observed end to end);
//   * stale-serve policy — master-only (PS) procedures are never stale;
//     nearest-read (FE) staleness stays within the scenario's bound.
//
// Stamps ride real subscriber attributes: the FE location-update channel
// writes the stamp as the location-area integer, the PS service channel
// encodes it in the call-forwarding number. The ledger records the highest
// acknowledged stamp per (subscriber, channel); the end-of-run audit reads
// the master copy back and compares.

#ifndef UDR_SCENARIO_VERIFIER_H_
#define UDR_SCENARIO_VERIFIER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "scenario/script.h"
#include "telecom/front_end.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr::scenario {

/// Which stamped write channel a ledger entry belongs to.
enum class Channel {
  kLocationArea,     ///< FE UpdateLocation -> attr::kLocationArea (int64).
  kCallForwarding,   ///< PS SetCallForwarding -> attr::kCallForwardingUncond.
};

/// One evaluated SLO row.
struct SloResult {
  SloCheck check;
  double actual = 0.0;
  bool pass = false;
};

/// End-of-run ledger audit outcome.
struct AuditReport {
  int64_t subscribers_audited = 0;
  int64_t acked_writes = 0;       ///< Stamped acks recorded in the ledger.
  int64_t lost_writes = 0;        ///< Master stamp below the acked stamp.
  int64_t unreadable = 0;         ///< Master copy unreachable at audit time.
  int64_t order_violations = 0;   ///< Stamp regressions in log order.
};

/// Traffic-class statistics plus scenario counters, filled by the engine.
struct ScenarioStats {
  workload::ClassStats fe_read;
  workload::ClassStats fe_write;
  workload::ClassStats fe_storm;  ///< Storm-deferred procedures (also in fe_*).
  workload::ClassStats ps;

  workload::ClassStats FeAll() const {
    workload::ClassStats all = fe_read;
    all.Merge(fe_write);
    return all;
  }
};

/// Collects outcomes, keeps the ledger, audits and evaluates SLO rows.
class Verifier {
 public:
  explicit Verifier(workload::Testbed* bed) : bed_(bed) {}

  ScenarioStats& stats() { return stats_; }
  const ScenarioStats& stats() const { return stats_; }

  /// Folds one FE procedure outcome (is_write: contains a write op;
  /// storm: issued by the deferred storm driver).
  void FoldFe(const telecom::ProcedureResult& r, bool is_write, bool storm);

  /// Folds one PS procedure outcome; flags any stale master-only read.
  void FoldPs(const telecom::ProcedureResult& r);

  /// Records an acknowledged stamped write for (subscriber, channel).
  /// Call only when the procedure fully succeeded (no failed ops).
  void RecordAck(uint64_t subscriber, Channel channel, int64_t stamp);

  /// Stale master-only procedures observed (hard invariant: must stay 0).
  int64_t ps_stale() const { return stats_.ps.stale_procedures; }

  /// End-of-run audit: reads every ledgered subscriber's stamped attributes
  /// back from the master copy (kMasterOnly) and scans every partition's
  /// authoritative log for per-channel stamp regressions. Idempotent.
  AuditReport Audit();

  /// Evaluates one SLO row against the current stats / audit / testbed
  /// state. Runs the audit on demand for audit-backed kinds.
  SloResult Evaluate(const SloCheck& check);

  /// Rows evaluated so far, in evaluation order.
  const std::vector<SloResult>& results() const { return results_; }

 private:
  /// Highest acked stamp per channel for one subscriber.
  struct Ledger {
    int64_t location = 0;
    int64_t cfu = 0;
  };

  /// Master-copy stamp of one subscriber's channel; -1 unreadable.
  int64_t MasterStamp(uint64_t subscriber, Channel channel);

  workload::Testbed* bed_;
  ScenarioStats stats_;
  std::unordered_map<uint64_t, Ledger> ledger_;
  std::vector<SloResult> results_;
  AuditReport audit_;
  bool audited_ = false;
};

/// Parses a stamp out of a call-forwarding number written by the scenario
/// PS driver ("+00<stamp>"); 0 when the value is not a scenario stamp.
int64_t CfuStampOf(std::string_view number);
/// Builds the call-forwarding number encoding `stamp`.
std::string CfuNumberOf(int64_t stamp);

}  // namespace udr::scenario

#endif  // UDR_SCENARIO_VERIFIER_H_
