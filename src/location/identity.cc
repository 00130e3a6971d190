#include "location/identity.h"

#include "common/flat_table.h"

namespace udr::location {

const char* IdentityTypeName(IdentityType type) {
  switch (type) {
    case IdentityType::kImsi:
      return "IMSI";
    case IdentityType::kMsisdn:
      return "MSISDN";
    case IdentityType::kImpu:
      return "IMPU";
    case IdentityType::kImpi:
      return "IMPI";
  }
  return "?";
}

uint64_t HashIdentity(const Identity& id) {
  uint64_t h = 14695981039346656037ULL;
  h = (h ^ static_cast<uint8_t>(id.type)) * 1099511628211ULL;
  for (unsigned char c : id.value) {
    h = (h ^ c) * 1099511628211ULL;
  }
  // FNV-1a avalanches poorly in the high bits, and ring ownership compares
  // full 64-bit values: sequential numbering-plan identities (IMSI blocks
  // differing only in trailing digits) would otherwise cluster on one ring
  // arc and land on 1-2 partitions. Finish with the splitmix64 mixer.
  return Mix64(h);
}

}  // namespace udr::location
