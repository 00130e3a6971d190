#include "telecom/subscriber.h"

#include "common/strings.h"

namespace udr::telecom {

namespace {

/// Appends `value` in decimal, zero padded to at least `width` digits
/// (printf "%0<width>llu").
void AppendPadded(std::string* out, uint64_t value, size_t width) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  if (n < width) out->append(width - n, '0');
  while (n > 0) out->push_back(digits[--n]);
}

/// Appends the low 32 bits of `value` as 8 lowercase hex digits (printf
/// "%08llx" of a value below 2^32).
void AppendHex32(std::string* out, uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out->push_back(kHex[(value >> shift) & 0xF]);
  }
}

}  // namespace

SubscriberFactory::SubscriberFactory(uint64_t seed, int mcc, int mnc, int cc)
    : seed_(seed),
      imsi_prefix_(StrFormat("%03d%02d", mcc, mnc)),
      msisdn_prefix_(StrFormat("+%d6", cc)),
      ims_domain_(
          StrFormat("@ims.mnc%03d.mcc%03d.3gppnetwork.org", mnc, mcc)) {}

std::string SubscriberFactory::ImsiOf(uint64_t index) const {
  // MCC (3) + MNC (2, zero padded) + 10-digit MSIN.
  std::string out;
  out.reserve(imsi_prefix_.size() + 10);
  out += imsi_prefix_;
  AppendPadded(&out, index + 1, 10);
  return out;
}

std::string SubscriberFactory::MsisdnOf(uint64_t index) const {
  std::string out;
  out.reserve(msisdn_prefix_.size() + 8);
  out += msisdn_prefix_;
  AppendPadded(&out, index + 1, 8);
  return out;
}

std::string SubscriberFactory::ImpuOf(uint64_t index) const {
  std::string out = "sip:";
  out += MsisdnOf(index);
  out += ims_domain_;
  return out;
}

location::Identity SubscriberFactory::IdentityOf(
    uint64_t index, location::IdentityType type) const {
  switch (type) {
    case location::IdentityType::kImsi:
      return {type, ImsiOf(index)};
    case location::IdentityType::kMsisdn:
      return {type, MsisdnOf(index)};
    case location::IdentityType::kImpu:
      return {type, ImpuOf(index)};
    case location::IdentityType::kImpi:
      return {type, ImsiOf(index) + ims_domain_};
  }
  return {type, ImsiOf(index)};
}

Subscriber SubscriberFactory::Make(uint64_t index) const {
  Subscriber s;
  s.imsi = ImsiOf(index);
  s.msisdn = MsisdnOf(index);
  s.impi = s.imsi + ims_domain_;
  s.impus = {"sip:" + s.msisdn + ims_domain_, "tel:" + s.msisdn};

  Rng rng(seed_ ^ (index * 0x9E3779B97F4A7C15ULL + 1));
  storage::Record& p = s.profile;
  auto set = [&](const char* name, storage::Value v) {
    p.Set(name, std::move(v), 0, 0);
  };
  set(attr::kImsi, s.imsi);
  set(attr::kMsisdn, s.msisdn);
  set(attr::kImpi, s.impi);
  set(attr::kImpu, s.impus);

  // 128-bit authentication key (Ki), hex encoded.
  std::string ki;
  ki.reserve(32);
  for (int i = 0; i < 4; ++i) AppendHex32(&ki, rng.Next() & 0xFFFFFFFFULL);
  set(attr::kAuthKey, ki);
  set(attr::kSqn, static_cast<int64_t>(rng.Uniform(1 << 20)));
  set(attr::kCategory,
      std::string(rng.Bernoulli(0.05) ? "priority" : "ordinary"));
  set(attr::kOdbPremium, rng.Bernoulli(0.12));
  set(attr::kCallForwardingUncond, std::string());
  set(attr::kServingVlr, std::string());
  set(attr::kServingSgsn, std::string());
  set(attr::kLocationArea, static_cast<int64_t>(0));
  set(attr::kRegistrationState, std::string("deregistered"));
  set(attr::kServingCscf, std::string());
  set(attr::kChargingProfile, static_cast<int64_t>(rng.Uniform(8)));
  std::vector<std::string> ts = {"ts11", "ts21", "ts22"};
  if (rng.Bernoulli(0.4)) ts.push_back("ts62");
  set(attr::kTeleservices, ts);
  set(attr::kRoamingAllowed, !rng.Bernoulli(0.03));
  return s;
}

udrnf::UdrNf::CreateSpec SubscriberFactory::MakeSpec(
    uint64_t index, std::optional<sim::SiteId> home_site) const {
  Subscriber s = Make(index);
  udrnf::UdrNf::CreateSpec spec;
  spec.identities.push_back(s.ImsiId());
  spec.identities.push_back(s.MsisdnId());
  spec.identities.push_back({location::IdentityType::kImpi, s.impi});
  for (const auto& impu : s.impus) {
    spec.identities.push_back({location::IdentityType::kImpu, impu});
  }
  spec.profile = std::move(s.profile);
  if (home_site.has_value()) {
    spec.profile.Set(attr::kHomeSite, static_cast<int64_t>(*home_site), 0, 0);
    spec.home_site = home_site;
  }
  return spec;
}

}  // namespace udr::telecom
