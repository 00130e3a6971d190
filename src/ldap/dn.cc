#include "ldap/dn.h"

#include "common/strings.h"

namespace udr::ldap {

StatusOr<Dn> Dn::Parse(const std::string& text) {
  std::vector<Rdn> rdns;
  std::string current;
  std::vector<std::string> parts;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\' && i + 1 < text.size() && text[i + 1] == ',') {
      current.push_back(',');
      ++i;
    } else if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);

  for (const std::string& part : parts) {
    std::string_view trimmed = Trim(part);
    if (trimmed.empty()) {
      if (parts.size() == 1) return Dn();  // Empty DN (root DSE).
      return Status::InvalidArgument("empty RDN in DN: " + text);
    }
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("malformed RDN '" + std::string(trimmed) +
                                     "' in DN: " + text);
    }
    Rdn rdn;
    rdn.attr = ToLower(Trim(trimmed.substr(0, eq)));
    rdn.value = std::string(Trim(trimmed.substr(eq + 1)));
    if (rdn.value.empty()) {
      return Status::InvalidArgument("empty value in RDN '" +
                                     std::string(trimmed) + "'");
    }
    rdns.push_back(std::move(rdn));
  }
  return Dn(std::move(rdns));
}

std::string Dn::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(rdns_.size());
  for (const Rdn& rdn : rdns_) {
    std::string value;
    for (char c : rdn.value) {
      if (c == ',') value += "\\,";
      else value.push_back(c);
    }
    parts.push_back(rdn.attr + "=" + value);
  }
  return Join(parts, ",");
}

Dn Dn::Parent() const {
  if (rdns_.empty()) return Dn();
  return Dn(std::vector<Rdn>(rdns_.begin() + 1, rdns_.end()));
}

Dn Dn::Child(std::string attr, std::string value) const {
  std::vector<Rdn> rdns;
  rdns.reserve(rdns_.size() + 1);
  rdns.push_back(Rdn{ToLower(attr), std::move(value)});
  rdns.insert(rdns.end(), rdns_.begin(), rdns_.end());
  return Dn(std::move(rdns));
}

bool Dn::IsWithin(const Dn& suffix) const {
  if (suffix.rdns_.size() > rdns_.size()) return false;
  size_t offset = rdns_.size() - suffix.rdns_.size();
  for (size_t i = 0; i < suffix.rdns_.size(); ++i) {
    if (!(rdns_[offset + i] == suffix.rdns_[i])) return false;
  }
  return true;
}

Dn SubscribersBase() {
  return Dn({Rdn{"ou", "subscribers"}, Rdn{"dc", "udr"}});
}

Dn SubscriberDn(const std::string& identity_attr, const std::string& value) {
  // SubscribersBase().Child(identity_attr, value) in one allocation.
  std::vector<Rdn> rdns;
  rdns.reserve(3);
  rdns.push_back(Rdn{ToLower(identity_attr), value});
  rdns.push_back(Rdn{"ou", "subscribers"});
  rdns.push_back(Rdn{"dc", "udr"});
  return Dn(std::move(rdns));
}

}  // namespace udr::ldap
