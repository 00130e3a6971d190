// The sim driver loop shared by workload::RunTraffic and scenario::Engine:
// the FE procedure mix (§4.1: mostly reads), one HlrFe + HssFe per site and
// the ledger of events parked in PoA dispatch windows. Each driver keeps
// only its tick bodies and its scoring fold.

#ifndef UDR_WORKLOAD_FE_FLEET_H_
#define UDR_WORKLOAD_FE_FLEET_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "telecom/front_end.h"
#include "workload/testbed.h"

namespace udr::workload {

enum class FeProcedure : uint8_t {
  kImsLocate,
  kImsRegister,
  kImsDeregister,
  kAuthenticate,
  kSendRoutingInfo,
  kSmsRouting,
  kInterrogateSs,
  kUpdateLocation,
};

/// The procedure table: maps an IMS draw and a uniform pick in [0, 1).
FeProcedure FeProcedureAt(bool ims, double pick);

/// Draws exactly rng.Bernoulli(ims_fraction), then rng.NextDouble().
FeProcedure DrawFeProcedure(Rng& rng, double ims_fraction);

/// Location update and IMS (de)registration write; the rest only read.
bool IsWriteProcedure(FeProcedure p);

/// Spacing of a fixed-rate arrival stream (kTimeInfinity when rate <= 0).
inline MicroDuration ArrivalGap(double rate_per_sec) {
  return rate_per_sec > 0 ? static_cast<MicroDuration>(1e6 / rate_per_sec)
                          : kTimeInfinity;
}

struct FeEvent {
  FeProcedure procedure = FeProcedure::kAuthenticate;
  uint64_t subscriber = 0;
  sim::SiteId serving = 0;    ///< Site whose FE runs the procedure.
  int64_t location_area = 0;  ///< Written by kUpdateLocation only.
  bool defer = false;  ///< Park in the PoA dispatch window, not inline.
};

/// A driver scores inline outcomes of Issue with the same fold —
/// fold(const FeEvent&, const ProcedureResult&) — it hands to Drive.
class FeFleet {
 public:
  FeFleet(Testbed& bed, bool batched);

  /// Runs `e` at its serving site's FE, naming the subscriber by the one
  /// identity the procedure uses. nullopt: the event parked in the ledger.
  std::optional<telecom::ProcedureResult> Issue(const FeEvent& e);

  /// Folds every parked event whose window flushed, in issue order, in one
  /// stable compaction pass over the ledger. Returns at once when no event
  /// has completed at the UDR since the last pass.
  template <typename Fold>
  void Collect(Fold&& fold);

  /// Runs to `horizon`: wake-ups (Testbed::PumpDue) due by `next_tick()` go
  /// before `tick(now)`; collects after each. Ends with every window flushed.
  template <typename NextTick, typename Tick, typename Fold>
  void Drive(MicroTime horizon, NextTick&& next_tick, Tick&& tick,
             Fold&& fold);

  /// Time each collected event spent parked in its window (µs).
  const Histogram& queue_delay() const { return queue_delay_; }

 private:
  /// Passes an inline outcome through; parks a deferred one in the ledger.
  std::optional<telecom::ProcedureResult> Settle(const FeEvent& e,
                                                 telecom::FrontEnd& fe,
                                                 telecom::ProcedureResult r);

  struct Parked {
    uint64_t handle = 0;
    telecom::FrontEnd* fe = nullptr;
    FeEvent event;
  };

  Testbed& bed_;
  std::vector<std::unique_ptr<telecom::HlrFe>> hlr_;
  std::vector<std::unique_ptr<telecom::HssFe>> hss_;
  std::vector<Parked> parked_;
  /// UdrNf::event_completions() when the last pass started.
  uint64_t seen_completions_ = 0;
  Histogram queue_delay_;
};

template <typename Fold>
void FeFleet::Collect(Fold&& fold) {
  // Read before the pass: an event a fold completes forces the next one.
  const uint64_t completions = bed_.udr().event_completions();
  if (completions == seen_completions_) return;
  seen_completions_ = completions;
  size_t kept = 0;
  for (size_t i = 0; i < parked_.size(); ++i) {
    const Parked& p = parked_[i];
    std::optional<telecom::ProcedureResult> done = p.fe->TakeDeferred(p.handle);
    if (!done.has_value()) {
      parked_[kept++] = p;
      continue;
    }
    queue_delay_.Record(done->queue_delay);
    fold(p.event, *done);
  }
  parked_.resize(kept);
}

template <typename NextTick, typename Tick, typename Fold>
void FeFleet::Drive(MicroTime horizon, NextTick&& next_tick, Tick&& tick,
                    Fold&& fold) {
  while (true) {
    const MicroTime next = next_tick();
    if (!bed_.PumpDue(std::min(next, horizon))) {
      if (next > horizon) break;
      bed_.clock().AdvanceTo(next);
      tick(next);  // A burst may close a window via its size cap.
    }
    Collect(fold);
  }
  bed_.clock().AdvanceTo(horizon);
  bed_.udr().FlushEvents();  // End-of-run barrier.
  Collect(fold);
}

}  // namespace udr::workload

#endif  // UDR_WORKLOAD_FE_FLEET_H_
