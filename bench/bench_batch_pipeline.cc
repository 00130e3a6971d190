// B — the batched data path: multi-op LDAP requests through the staged
// pipeline (resolve all -> group by partition -> grouped dispatch) vs the
// per-op path, and the hash-routed location bypass.
//
// B1 sweeps the batch size for a same-subscriber multi-op signaling event
// (the paper's bind + search + modify pattern): the per-op path pays one
// location lookup and one PoA->storage round trip per op, the batch pays the
// lookups plus ONE round trip per touched partition. B2 shows the same
// effect on real FE procedures (IMS registration, 6 ops). B3 reports the
// location-stage bypass under PlacementKind::kHash deployments — hit rate,
// resolution-cost savings, and routing equivalence with the location stage.
// B4 is the self-checking expected-shape table (acceptance: batched
// throughput >= 2x per-op at batch size 16).

#include <string>
#include <vector>

#include "common/table.h"
#include "routing/batch.h"
#include "routing/router.h"
#include "telecom/front_end.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

using namespace udr;
using location::Identity;
using location::IdentityType;
using routing::BatchRequest;
using routing::BatchResult;
using routing::Mutation;
using routing::Operation;

namespace {

workload::Testbed MakeBed(int64_t subscribers,
                          routing::PlacementKind placement =
                              routing::PlacementKind::kLeastLoaded) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = subscribers;
  o.udr.partitions_per_se = 2;
  o.udr.placement = placement;
  workload::Testbed bed(o);
  // Let asynchronous replication drain so nearest reads see the population.
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
  return bed;
}

/// One signaling event touching `size` ops on one subscriber: reads with a
/// write every 4th op (the multi-op LDAP request of §2.2).
BatchRequest EventOf(const telecom::Subscriber& sub, int size) {
  BatchRequest batch;
  for (int i = 0; i < size; ++i) {
    if (i % 4 == 3) {
      batch.Add(Operation::Write(
          sub.ImsiId(), {{Mutation::Kind::kSet, "sqn",
                          static_cast<int64_t>(i)}}));
    } else {
      batch.Add(Operation::ReadAttribute(sub.ImsiId(), "authkey"));
    }
  }
  return batch;
}

/// Runs the same event per-op through Route + ReplicaSet calls; returns the
/// modelled latency sum.
MicroDuration RunPerOp(workload::Testbed& bed, const BatchRequest& batch) {
  MicroDuration total = 0;
  auto& router = bed.udr().router();
  for (const Operation& op : batch.ops) {
    routing::RouteResult route = router.Route(
        op.identity, 0,
        op.IsRead() ? routing::RouteIntent::kRead : routing::RouteIntent::kWrite);
    if (!route.status.ok()) continue;
    total += route.resolve_cost;
    if (op.kind == Operation::Kind::kWrite) {
      std::vector<storage::WriteOp> ops;
      for (const Mutation& m : op.mutations) {
        storage::WriteOp w;
        w.kind = storage::WriteKind::kUpsertAttr;
        w.key = route.key;
        w.attr_id = storage::InternAttr(m.attr);
        w.attribute.value = m.value;
        ops.push_back(std::move(w));
      }
      total += route.rs->Write(0, std::move(ops)).latency;
    } else {
      total += route.rs
                   ->ReadAttribute(0, route.key, op.attr,
                                   replication::ReadPreference::kNearest)
                   .latency;
    }
  }
  return total;
}

double SpeedupAt(int size, MicroDuration* batched_out = nullptr,
                 MicroDuration* per_op_out = nullptr) {
  workload::Testbed bed = MakeBed(64);
  telecom::Subscriber sub = bed.factory().Make(7);
  BatchRequest event = EventOf(sub, size);
  BatchResult batched = bed.udr().router().RouteBatch(event, 0);
  MicroDuration per_op = RunPerOp(bed, event);
  if (batched_out != nullptr) *batched_out = batched.latency;
  if (per_op_out != nullptr) *per_op_out = per_op;
  return batched.latency > 0
             ? static_cast<double>(per_op) / static_cast<double>(batched.latency)
             : 0.0;
}

void PrintBatchTables() {
  Table t1("B1: batched vs per-op multi-op event (one subscriber, reads + "
           "every-4th-op write)",
           {"batch size", "per-op path", "batched", "per-op ops/s",
            "batched ops/s", "speedup"});
  double speedup16 = 0;  // Reused by the B4 acceptance row.
  for (int size : {1, 4, 16, 64}) {
    MicroDuration batched = 0, per_op = 0;
    double speedup = SpeedupAt(size, &batched, &per_op);
    if (size == 16) speedup16 = speedup;
    auto ops_per_sec = [size](MicroDuration lat) {
      return lat > 0 ? static_cast<int64_t>(size * Seconds(1) / lat) : 0;
    };
    t1.AddRow({Table::Num(size), Table::Dur(per_op), Table::Dur(batched),
               Table::Num(ops_per_sec(per_op)), Table::Num(ops_per_sec(batched)),
               Table::Dbl(speedup, 2) + "x"});
  }
  t1.Print();

  Table t2("B2: FE procedures, sequential submits vs one multi-op message "
           "(100 procedures each)",
           {"procedure", "ops", "sequential mean", "batched mean", "speedup"});
  {
    struct Row {
      const char* name;
      int ops;
      MicroDuration seq_total = 0;
      MicroDuration bat_total = 0;
    };
    Row rows[] = {{"HLR update-location", 2}, {"IMS register", 6}};
    for (bool batched : {false, true}) {
      workload::Testbed bed = MakeBed(200);
      telecom::HlrFe hlr(0, &bed.udr(), batched);
      telecom::HssFe hss(0, &bed.udr(), batched);
      for (uint64_t i = 0; i < 100; ++i) {
        telecom::Subscriber sub = bed.factory().Make(i);
        auto ul = hlr.UpdateLocation(sub.ImsiId(), "vlr1", 101);
        auto reg = hss.ImsRegister(sub.ImpuId(), "scscf1");
        (batched ? rows[0].bat_total : rows[0].seq_total) += ul.latency;
        (batched ? rows[1].bat_total : rows[1].seq_total) += reg.latency;
      }
    }
    for (const Row& r : rows) {
      double speedup = r.bat_total > 0 ? static_cast<double>(r.seq_total) /
                                             static_cast<double>(r.bat_total)
                                       : 0.0;
      t2.AddRow({r.name, Table::Num(r.ops), Table::Dur(r.seq_total / 100),
                 Table::Dur(r.bat_total / 100), Table::Dbl(speedup, 2) + "x"});
    }
  }
  t2.Print();

  Table t3("B3: hash-routed location bypass (PlacementKind::kHash, 2,000 "
           "IMSI reads via 125 x 16-op batches)",
           {"deployment", "bypass hits", "hit rate", "mean batch size",
            "mean partition fan-out", "mean resolve cost/op"});
  bool bypass_equivalent = true;
  for (auto placement : {routing::PlacementKind::kLeastLoaded,
                         routing::PlacementKind::kHash}) {
    workload::Testbed bed = MakeBed(500, placement);
    auto& udr = bed.udr();
    MicroDuration resolve_total = 0;
    int64_t ops_total = 0;
    for (int b = 0; b < 125; ++b) {
      BatchRequest batch;
      for (int k = 0; k < 16; ++k) {
        uint64_t index = static_cast<uint64_t>((b * 16 + k) % 500);
        batch.Add(Operation::ReadAttribute(bed.factory().Make(index).ImsiId(),
                                           "authkey"));
      }
      BatchResult r = udr.router().RouteBatch(batch, 0);
      resolve_total += r.resolve_cost;
      ops_total += static_cast<int64_t>(batch.ops.size());
    }
    // Snapshot before the equivalence probes below inflate the counter.
    const int64_t hits = udr.metrics().Get("router.bypass.hits");
    if (placement == routing::PlacementKind::kHash) {
      // Equivalence: the bypass must reproduce the provisioned locations.
      for (uint64_t i = 0; i < 500; ++i) {
        Identity id = bed.factory().Make(i).ImsiId();
        auto fast = udr.router().Route(id, 0, routing::RouteIntent::kRead);
        auto loc = udr.AuthoritativeLookup(id);
        if (!fast.status.ok() || !loc.ok() || fast.partition != loc->partition ||
            fast.key != loc->key) {
          bypass_equivalent = false;
        }
      }
    }
    const Metrics& m = udr.metrics();
    t3.AddRow({placement == routing::PlacementKind::kHash ? "hash placement"
                                                          : "least-loaded",
               Table::Num(hits),
               Table::Pct(static_cast<double>(hits) /
                              static_cast<double>(ops_total),
                          1),
               Table::Dbl(m.HistOrEmpty("router.batch.size").Mean(), 1),
               Table::Dbl(m.HistOrEmpty("router.batch.groups").Mean(), 1),
               Table::Dur(resolve_total / ops_total)});
  }
  t3.Print();

  Table t4("B4: expected shape", {"check", "result"});
  {
    t4.AddRow({"batched >= 2x per-op at batch size 16",
               speedup16 >= 2.0 ? "PASS" : "FAIL"});
    t4.AddRow({"hash bypass routes == location-stage routes (500 ids)",
               bypass_equivalent ? "PASS" : "FAIL"});
    workload::Testbed bed = MakeBed(32);
    // Route() is a thin wrapper over a size-1 batch: identical decisions.
    bool wrapper_ok = true;
    for (uint64_t i = 0; i < 32; ++i) {
      Identity id = bed.factory().Make(i).ImsiId();
      auto route = bed.udr().router().Route(id, 0, routing::RouteIntent::kRead);
      BatchRequest one;
      one.Add(Operation::ReadRecord(id));
      BatchResult batch = bed.udr().router().RouteBatch(one, 0);
      if (!route.status.ok() || !batch.ok() ||
          route.partition != batch.outcomes[0].partition ||
          route.key != batch.outcomes[0].key) {
        wrapper_ok = false;
      }
    }
    t4.AddRow({"Route == size-1 RouteBatch decisions", wrapper_ok ? "PASS" : "FAIL"});
  }
  t4.Print();
}

}  // namespace

int main() {
  PrintBatchTables();
  return 0;
}
