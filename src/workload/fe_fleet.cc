#include "workload/fe_fleet.h"

namespace udr::workload {

using location::IdentityType;
using telecom::ProcedureResult;

FeProcedure FeProcedureAt(bool ims, double pick) {
  if (ims) {
    if (pick < 0.55) return FeProcedure::kImsLocate;
    if (pick < 0.80) return FeProcedure::kImsRegister;
    return FeProcedure::kImsDeregister;
  }
  if (pick < 0.35) return FeProcedure::kAuthenticate;
  if (pick < 0.55) return FeProcedure::kSendRoutingInfo;
  if (pick < 0.70) return FeProcedure::kSmsRouting;
  if (pick < 0.80) return FeProcedure::kInterrogateSs;
  return FeProcedure::kUpdateLocation;
}

FeProcedure DrawFeProcedure(Rng& rng, double ims_fraction) {
  const bool ims = rng.Bernoulli(ims_fraction);
  return FeProcedureAt(ims, rng.NextDouble());
}

bool IsWriteProcedure(FeProcedure p) {
  return p == FeProcedure::kImsRegister || p == FeProcedure::kImsDeregister ||
         p == FeProcedure::kUpdateLocation;
}

FeFleet::FeFleet(Testbed& bed, bool batched) : bed_(bed) {
  for (uint32_t s = 0; s < bed.options().sites; ++s) {
    hlr_.push_back(std::make_unique<telecom::HlrFe>(s, &bed.udr(), batched));
    hss_.push_back(std::make_unique<telecom::HssFe>(s, &bed.udr(), batched));
  }
}

std::optional<ProcedureResult> FeFleet::Issue(const FeEvent& e) {
  // Only the identity the procedure uses, never the whole profile.
  auto id = [&](IdentityType type) {
    return bed_.factory().IdentityOf(e.subscriber, type);
  };
  telecom::HlrFe& hlr = *hlr_[e.serving];
  telecom::HssFe& hss = *hss_[e.serving];
  hlr.set_deferred(e.defer);
  hss.set_deferred(e.defer);
  switch (e.procedure) {
    case FeProcedure::kImsLocate:
      return Settle(e, hss, hss.ImsLocate(id(IdentityType::kImpu)));
    case FeProcedure::kImsRegister:
      return Settle(e, hss,
                    hss.ImsRegister(id(IdentityType::kImpu),
                                    "scscf" + std::to_string(e.serving)));
    case FeProcedure::kImsDeregister:
      return Settle(e, hss, hss.ImsDeregister(id(IdentityType::kImpu)));
    case FeProcedure::kAuthenticate:
      return Settle(e, hlr, hlr.Authenticate(id(IdentityType::kImsi)));
    case FeProcedure::kSendRoutingInfo:
      return Settle(e, hlr, hlr.SendRoutingInfo(id(IdentityType::kMsisdn)));
    case FeProcedure::kSmsRouting:
      return Settle(e, hlr, hlr.SmsRouting(id(IdentityType::kMsisdn)));
    case FeProcedure::kInterrogateSs:
      return Settle(e, hlr, hlr.InterrogateSs(id(IdentityType::kMsisdn)));
    case FeProcedure::kUpdateLocation:
      return Settle(e, hlr,
                    hlr.UpdateLocation(id(IdentityType::kImsi),
                                       "vlr" + std::to_string(e.serving),
                                       e.location_area));
  }
  return std::nullopt;  // Unreachable: every procedure is a case above.
}

std::optional<ProcedureResult> FeFleet::Settle(const FeEvent& e,
                                               telecom::FrontEnd& fe,
                                               ProcedureResult r) {
  if (!r.deferred()) return r;
  parked_.push_back({*r.pending, &fe, e});
  return std::nullopt;
}

}  // namespace udr::workload
