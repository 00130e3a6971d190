// E8 — the data location stage (§3.3.1 decision 1, §3.5, the H-F link).
//
// Compares the three realizations the paper discusses:
//   * provisioned identity-location maps: O(log N) lookups, per-entry RAM
//     stolen from subscriber storage;
//   * cached maps: O(1) hits but a miss broadcasts to every SE in the
//     system (cost grows with #SE);
//   * consistent hashing: O(1), near-zero state — but no selective placement
//     and one data replica per identity type (the paper's impracticality).
//
// Every number here is modelled. The host cost of a resolution is timed by
// udrbench (`location.resolve_ns`, Router::ResolveAt).

#include <map>
#include <string>

#include "common/table.h"
#include "location/location_stage.h"
#include "telecom/subscriber.h"

using namespace udr;
using location::Identity;
using location::IdentityType;
using location::LocationEntry;

namespace {

void PrintLocationTables() {
  location::LocationCostModel model;

  Table t("E8a: provisioned identity-location maps vs subscriber count N "
          "(modelled O(log N) lookup; 2 identities per subscriber)",
          {"N subscribers", "lookup cost", "stage RAM", "RAM vs 200GB SE"});
  for (int64_t n : {10'000LL, 100'000LL, 1'000'000LL}) {
    location::BindingSet bindings;
    location::ProvisionedLocationStage stage(&bindings, model);
    telecom::SubscriberFactory factory(42);
    for (int64_t i = 0; i < n; ++i) {
      LocationEntry e{static_cast<storage::RecordKey>(i),
                      static_cast<uint32_t>(i % 16)};
      bindings.Put({IdentityType::kImsi, factory.ImsiOf(i)}, e);
      bindings.Put({IdentityType::kMsisdn, factory.MsisdnOf(i)}, e);
    }
    auto r = stage.Resolve({IdentityType::kImsi, factory.ImsiOf(n / 2)}, 0);
    double se_fraction = static_cast<double>(stage.ApproxBytes()) /
                         (200.0 * 1000 * 1000 * 1000);
    t.AddRow({Table::Num(n), Table::Dur(r.cost),
              Table::Bytes(stage.ApproxBytes()), Table::Pct(se_fraction, 3)});
  }
  t.Print();

  Table t2("E8b: consistent hashing (O(1)) — the §3.5 alternative",
           {"partitions", "lookup cost", "stage RAM", "data replicas needed",
            "selective placement"});
  for (uint32_t parts : {16u, 256u}) {
    location::ConsistentHashLocationStage stage(parts, 128, model);
    auto r = stage.Resolve({IdentityType::kImsi, "214050000000001"}, 0);
    t2.AddRow({Table::Num(parts), Table::Dur(r.cost),
               Table::Bytes(stage.ApproxBytes()),
               Table::Num(stage.RequiredDataReplicas()) + " (one per identity)",
               "impossible"});
  }
  t2.Print();

  Table t3("E8c: cached maps — miss broadcast cost vs system size (§3.5)",
           {"#SE in system", "hit cost", "miss cost"});
  for (int se_count : {16, 64, 256}) {
    std::map<std::string, LocationEntry> truth;
    truth["x"] = {1, 0};
    location::CachedLocationStage stage(
        [&truth](const Identity& id) -> StatusOr<LocationEntry> {
          auto it = truth.find(id.value);
          if (it == truth.end()) return Status::NotFound("no");
          return it->second;
        },
        [se_count]() { return se_count; }, model);
    auto miss = stage.Resolve({IdentityType::kImsi, "x"}, 0);
    auto hit = stage.Resolve({IdentityType::kImsi, "x"}, 0);
    t3.AddRow({Table::Num(se_count), Table::Dur(hit.cost),
               Table::Dur(miss.cost)});
  }
  t3.Print();

  Table t4("E8d: expected shape", {"check", "result"});
  {
    location::BindingSet b1, b2;
    location::ProvisionedLocationStage s1(&b1, model), s2(&b2, model);
    for (int i = 0; i < 1000; ++i) {
      b1.Put({IdentityType::kImsi, "a" + std::to_string(i)}, {1, 0});
    }
    for (int i = 0; i < 1000000; ++i) {
      b2.Put({IdentityType::kImsi, "b" + std::to_string(i)}, {1, 0});
    }
    auto c1 = s1.Resolve({IdentityType::kImsi, "a5"}, 0).cost;
    auto c2 = s2.Resolve({IdentityType::kImsi, "b5"}, 0).cost;
    location::ConsistentHashLocationStage ch(256, 128, model);
    auto c3 = ch.Resolve({IdentityType::kImsi, "b5"}, 0).cost;
    t4.AddRow({"provisioned lookup grows ~log N (weak H-F link)",
               c2 > c1 && c2 < 3 * c1 ? "PASS" : "FAIL"});
    t4.AddRow({"consistent hashing flat and cheapest",
               c3 <= c1 ? "PASS" : "FAIL"});
  }
  t4.Print();
}

}  // namespace

int main() {
  PrintLocationTables();
  return 0;
}
