// Synthetic subscriber population: E.212 IMSIs, E.164 MSISDNs, IMS
// identities and a realistic GSM/IMS service profile. Deterministic: the
// subscriber with index i is identical across runs and processes.

#ifndef UDR_TELECOM_SUBSCRIBER_H_
#define UDR_TELECOM_SUBSCRIBER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "location/identity.h"
#include "sim/topology.h"
#include "storage/record.h"
#include "udr/udr_nf.h"

namespace udr::telecom {

/// Attribute names of the subscriber profile schema.
namespace attr {
inline constexpr char kImsi[] = "imsi";
inline constexpr char kMsisdn[] = "msisdn";
inline constexpr char kImpi[] = "impi";
inline constexpr char kImpu[] = "impu";
inline constexpr char kAuthKey[] = "authkey";
inline constexpr char kSqn[] = "sqn";
inline constexpr char kCategory[] = "category";
inline constexpr char kOdbPremium[] = "odb-premium-barred";
inline constexpr char kCallForwardingUncond[] = "cfu-number";
inline constexpr char kServingVlr[] = "serving-vlr";
inline constexpr char kServingSgsn[] = "serving-sgsn";
inline constexpr char kLocationArea[] = "location-area";
inline constexpr char kRegistrationState[] = "registration-state";
inline constexpr char kServingCscf[] = "s-cscf";
inline constexpr char kChargingProfile[] = "charging-profile";
inline constexpr char kTeleservices[] = "teleservices";
inline constexpr char kRoamingAllowed[] = "roaming-allowed";
inline constexpr char kHomeSite[] = "homesite";
}  // namespace attr

/// One generated subscriber.
struct Subscriber {
  std::string imsi;
  std::string msisdn;
  std::string impi;
  std::vector<std::string> impus;
  storage::Record profile;

  location::Identity ImsiId() const {
    return {location::IdentityType::kImsi, imsi};
  }
  location::Identity MsisdnId() const {
    return {location::IdentityType::kMsisdn, msisdn};
  }
  location::Identity ImpuId() const {
    return {location::IdentityType::kImpu, impus.front()};
  }
};

/// Deterministic subscriber generator.
class SubscriberFactory {
 public:
  /// `mcc`/`mnc` seed the E.212 numbering plan; `cc` the E.164 country code.
  explicit SubscriberFactory(uint64_t seed = 42, int mcc = 214, int mnc = 5,
                             int cc = 34);

  /// Builds subscriber `index` (same index -> same subscriber).
  Subscriber Make(uint64_t index) const;

  /// Builds a UDR creation spec for subscriber `index`, optionally pinned to
  /// a home site (selective placement).
  udrnf::UdrNf::CreateSpec MakeSpec(
      uint64_t index, std::optional<sim::SiteId> home_site = std::nullopt) const;

  /// IMSI of subscriber `index` without building the whole profile.
  std::string ImsiOf(uint64_t index) const;
  /// MSISDN of subscriber `index`.
  std::string MsisdnOf(uint64_t index) const;
  /// First (SIP) IMPU of subscriber `index`: `Make(index).impus.front()`.
  std::string ImpuOf(uint64_t index) const;

  /// Subscriber `index`'s identity of one type, derived without building the
  /// profile — what a traffic tick needs to name the subscriber of an FE
  /// procedure (kImpu is the first IMPU).
  location::Identity IdentityOf(uint64_t index,
                                location::IdentityType type) const;

 private:
  uint64_t seed_;
  // Per-factory identity parts, formatted once: a traffic loop derives one
  // identity per event, so the per-index work is digits only.
  std::string imsi_prefix_;    ///< MCC (3) + MNC (2, zero padded).
  std::string msisdn_prefix_;  ///< "+" CC "6".
  std::string ims_domain_;     ///< Home IMS domain suffix of IMPI / SIP IMPU.
};

}  // namespace udr::telecom

#endif  // UDR_TELECOM_SUBSCRIBER_H_
