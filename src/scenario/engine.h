// Scenario engine: compiles a scenario::Script against a workload::Testbed
// and executes it — the shared sim driver loop (workload::FeFleet::Drive)
// interleaving the FE/PS traffic mix and the script's timed steps with the
// PoA dispatch-window flushes and background-migration pacing, then a full
// migration drain — while a scenario::Verifier continuously folds every
// outcome and checks the harness invariants. The result is a
// ScenarioReport whose Serialize() output is byte-identical for the same
// spec + seed (the replay-determinism contract the harness tests assert).

#ifndef UDR_SCENARIO_ENGINE_H_
#define UDR_SCENARIO_ENGINE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/script.h"
#include "scenario/verifier.h"
#include "telecom/provisioning.h"
#include "workload/fe_fleet.h"
#include "workload/testbed.h"
#include "workload/zipf.h"

namespace udr::scenario {

/// Everything a scenario run needs: the deployment, the script and the
/// traffic shape driven around it.
struct ScenarioSpec {
  std::string name = "scenario";
  workload::TestbedOptions testbed;
  Script script;
  MicroDuration duration = Seconds(20);
  double fe_rate_per_sec = 400.0;
  double ps_rate_per_sec = 20.0;
  double ims_fraction = 0.15;
  /// Skew of the subscriber draw (0 = uniform; storm scenarios use 0.99).
  double zipf_theta = 0.0;
  sim::SiteId ps_site = 0;
  bool batched = false;
};

/// Outcome of one scenario run.
struct ScenarioReport {
  std::string name;
  ScenarioStats stats;
  AuditReport audit;
  std::vector<SloResult> slos;
  /// Consistency-restoration totals over every HealLink reconciliation.
  replication::RestorationReport restoration;
  int64_t heal_reconciliations = 0;
  int64_t steps_executed = 0;
  MicroDuration sim_duration = 0;
  /// Time-series sampler output (empty when obs_sample_interval_us is 0 —
  /// Serialize() appends obs sections only when non-empty, so runs with
  /// observability off keep their byte-identical legacy serialization).
  std::string obs_series;
  /// Flight-recorder dump captured when an evaluated SLO failed (empty on
  /// pass or when no SLO row ran): the recent control-plane events leading
  /// up to the breach.
  std::string flight_dump;

  /// Every SLO row evaluated and passed (false when none was evaluated).
  bool Passed() const;

  /// Stable text form: same spec + seed => byte-identical output. No wall
  /// clock, no addresses, fixed float formatting.
  std::string Serialize() const;
};

/// Executes one spec. Owns the testbed and all driver state.
class Engine {
 public:
  explicit Engine(const ScenarioSpec& spec);

  ScenarioReport Run();

  workload::Testbed& testbed() { return bed_; }

 private:
  void ExecuteStep(const Step& step, ScenarioReport* report);
  void FeTick(MicroTime now);
  void PsTick();
  /// Scores one FE outcome, inline or collected from a flushed window.
  void ScoreFe(const workload::FeEvent& e, const telecom::ProcedureResult& r);

  ScenarioSpec spec_;
  workload::Testbed bed_;
  Verifier verifier_;
  Rng rng_;
  workload::ZipfGenerator subscriber_pick_;
  workload::FeFleet fleet_;
  telecom::ProvisioningSystem ps_;

  int64_t next_stamp_ = 0;  ///< Monotonic acked-write stamp source.

  // Script-driven window state.
  MicroTime storm_until_ = 0;
  int storm_events_ = 0;
  MicroTime wave_until_ = 0;
  sim::SiteId wave_site_ = 0;
  double wave_fraction_ = 0.0;
  /// Replicas crashed per KillSite, for the matching RestoreSite.
  struct CrashedReplica {
    uint32_t partition = 0;
    uint32_t replica = 0;
  };
  std::unordered_map<sim::SiteId, std::vector<CrashedReplica>> crashed_;
};

/// One-shot convenience: build the engine, run, return the report.
ScenarioReport RunScenario(const ScenarioSpec& spec);

}  // namespace udr::scenario

#endif  // UDR_SCENARIO_ENGINE_H_
