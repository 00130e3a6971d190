// Tests for the PoA cross-event dispatch window: routing::Coalescer window
// mechanics (deadline close, size-cap close, passthrough), demultiplexed
// per-event results with per-event error isolation and the queueing-delay /
// service-latency split, the enqueue path through the LDAP layers
// (UdrNf::SubmitEvent / PumpEvents / TakeEvent), FeFleet's collection of
// parked events, the deferred front-end mode, and the concurrent-event
// traffic driver.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "routing/coalescer.h"
#include "routing/router.h"
#include "telecom/front_end.h"
#include "telecom/subscriber.h"
#include "workload/fe_fleet.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr::routing {
namespace {

using location::Identity;
using location::IdentityType;

workload::TestbedOptions CoalesceOptions(int64_t subscribers,
                                         MicroDuration window,
                                         int max_ops = 0) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = subscribers;
  o.udr.coalesce_window_us = window;
  o.udr.coalesce_max_ops = max_ops;
  return o;
}

void Settle(workload::Testbed& bed) {
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
}

ldap::LdapRequest ReadOf(const telecom::Subscriber& sub,
                         bool master_only = false) {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", sub.imsi);
  req.master_only = master_only;
  return req;
}

ldap::LdapRequest ModifyOf(const telecom::Subscriber& sub,
                           const std::string& attr, std::string value) {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kModify;
  req.dn = ldap::SubscriberDn("imsi", sub.imsi);
  req.mods.push_back(
      {ldap::ModType::kReplace, attr, storage::Value(std::move(value))});
  return req;
}

/// Payload equality of two LDAP results (codes, entries, staleness), with
/// latencies excluded — the coalesced path redistributes time on purpose.
void ExpectSamePayload(const ldap::LdapResult& a, const ldap::LdapResult& b) {
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.stale, b.stale);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const storage::Record& ra = a.entries[i].record;
    const storage::Record& rb = b.entries[i].record;
    ASSERT_EQ(ra.entries().size(), rb.entries().size());
    for (const storage::PackedAttr& e : ra.entries()) {
      std::string_view name = storage::AttrNameOf(e.name_id);
      auto v = rb.Get(name);
      ASSERT_TRUE(v.has_value()) << name;
      EXPECT_EQ(storage::ValueToString(e.attr.value),
                storage::ValueToString(*v));
    }
  }
}

// ---------------------------------------------------------------------------
// Coalescer window mechanics (routing layer)
// ---------------------------------------------------------------------------

TEST(CoalescerTest, DeadlineClosesTheWindow) {
  workload::Testbed bed(CoalesceOptions(10, Millis(2)));
  Settle(bed);
  Coalescer* window = bed.udr().coalescer(0);
  ASSERT_NE(window, nullptr);

  BatchRequest a;
  a.Add(Operation::ReadRecord(bed.factory().Make(1).ImsiId()));
  EventId ev_a = window->Submit(std::move(a));
  const MicroTime deadline = window->deadline();
  EXPECT_EQ(deadline, bed.clock().Now() + Millis(2));

  bed.clock().Advance(Millis(1));
  BatchRequest b;
  b.Add(Operation::ReadRecord(bed.factory().Make(2).ImsiId()));
  EventId ev_b = window->Submit(std::move(b));
  // A later arrival does not extend the open window's deadline.
  EXPECT_EQ(window->deadline(), deadline);

  // Before the deadline nothing flushes.
  EXPECT_FALSE(window->FlushIfDue());
  EXPECT_FALSE(window->Take(ev_a).has_value());
  EXPECT_EQ(window->pending_events(), 2u);

  bed.clock().AdvanceTo(deadline);
  EXPECT_TRUE(window->FlushIfDue());
  auto out_a = window->Take(ev_a);
  auto out_b = window->Take(ev_b);
  ASSERT_TRUE(out_a.has_value());
  ASSERT_TRUE(out_b.has_value());
  EXPECT_TRUE(out_a->ok());
  EXPECT_TRUE(out_b->ok());
  EXPECT_EQ(out_a->coalesced_events, 2);
  // Queueing-delay split: the opener waited the whole window, the later
  // arrival only the remainder; both share the same service latency.
  EXPECT_EQ(out_a->queue_delay, Millis(2));
  EXPECT_EQ(out_b->queue_delay, Millis(1));
  EXPECT_EQ(out_a->service_latency, out_b->service_latency);
  EXPECT_GT(out_a->service_latency, 0);
}

TEST(CoalescerTest, SizeCapClosesTheWindowEarly) {
  workload::Testbed bed(CoalesceOptions(10, Seconds(10), /*max_ops=*/3));
  Settle(bed);
  Coalescer* window = bed.udr().coalescer(0);

  BatchRequest a;
  a.Add(Operation::ReadRecord(bed.factory().Make(1).ImsiId()));
  a.Add(Operation::ReadRecord(bed.factory().Make(2).ImsiId()));
  EventId ev_a = window->Submit(std::move(a));
  EXPECT_FALSE(window->Take(ev_a).has_value());

  BatchRequest b;
  b.Add(Operation::ReadRecord(bed.factory().Make(3).ImsiId()));
  EventId ev_b = window->Submit(std::move(b));  // 3 ops >= cap: flush now.
  auto out_a = window->Take(ev_a);
  auto out_b = window->Take(ev_b);
  ASSERT_TRUE(out_a.has_value());
  ASSERT_TRUE(out_b.has_value());
  // No clock advance happened: the cap close adds zero queueing delay.
  EXPECT_EQ(out_a->queue_delay, 0);
  EXPECT_EQ(out_b->queue_delay, 0);
  EXPECT_FALSE(window->HasPending());
}

TEST(CoalescerTest, PerEventErrorIsolation) {
  workload::Testbed bed(CoalesceOptions(10, Millis(1)));
  Settle(bed);
  Coalescer* window = bed.udr().coalescer(0);

  BatchRequest bad;
  bad.Add(Operation::ReadRecord(
      Identity{IdentityType::kImsi, "999999999999999"}));
  EventId ev_bad = window->Submit(std::move(bad));
  BatchRequest good;
  good.Add(Operation::ReadRecord(bed.factory().Make(4).ImsiId()));
  EventId ev_good = window->Submit(std::move(good));

  bed.clock().Advance(Millis(1));
  ASSERT_TRUE(window->FlushIfDue());
  auto out_bad = window->Take(ev_bad);
  auto out_good = window->Take(ev_good);
  ASSERT_TRUE(out_bad.has_value());
  ASSERT_TRUE(out_good.has_value());
  EXPECT_EQ(out_bad->failed_ops, 1);
  EXPECT_TRUE(out_good->ok());
  ASSERT_EQ(out_good->outcomes.size(), 1u);
  EXPECT_TRUE(out_good->outcomes[0].record.has_value());
}

TEST(CoalescerTest, CrossEventPerKeyOrderIsArrivalOrder) {
  workload::Testbed bed(CoalesceOptions(10, Millis(1)));
  Settle(bed);
  Coalescer* window = bed.udr().coalescer(0);
  Identity id = bed.factory().Make(6).ImsiId();

  BatchRequest writer;
  writer.Add(Operation::Write(
      id, {{Mutation::Kind::kSet, "cfu-number", std::string("coalesced")}}));
  EventId ev_w = window->Submit(std::move(writer));
  BatchRequest reader;  // A different event, same subscriber, arrives later.
  reader.Add(Operation::ReadAttribute(id, "cfu-number",
                                      replication::ReadPreference::kMasterOnly));
  EventId ev_r = window->Submit(std::move(reader));

  bed.clock().Advance(Millis(1));
  ASSERT_TRUE(window->FlushIfDue());
  auto out_w = window->Take(ev_w);
  auto out_r = window->Take(ev_r);
  ASSERT_TRUE(out_w.has_value() && out_w->ok());
  ASSERT_TRUE(out_r.has_value() && out_r->ok());
  // Both events shared one partition-group dispatch...
  EXPECT_EQ(out_r->partition_groups, 1);
  // ...and the later event's read observed the earlier event's write.
  ASSERT_TRUE(out_r->outcomes[0].value.has_value());
  EXPECT_EQ(storage::ValueToString(*out_r->outcomes[0].value), "coalesced");
}

// ---------------------------------------------------------------------------
// Enqueue path through the LDAP layers
// ---------------------------------------------------------------------------

TEST(SubmitEventTest, ZeroWindowIsPassthroughIdenticalToSubmitBatch) {
  workload::TestbedOptions o = CoalesceOptions(10, /*window=*/0);
  workload::Testbed bed(o);
  workload::Testbed twin(o);
  Settle(bed);
  Settle(twin);

  telecom::Subscriber sub = bed.factory().Make(3);
  std::vector<ldap::LdapRequest> requests{
      ReadOf(sub), ModifyOf(sub, "serving-vlr", "vlr7"),
      ReadOf(sub, /*master_only=*/true)};

  auto handle = bed.udr().SubmitEvent(requests, 0);
  ASSERT_TRUE(handle.ok());
  // No window: the event completed at enqueue, no pumping needed.
  auto deferred = bed.udr().TakeEvent(*handle);
  ASSERT_TRUE(deferred.has_value());
  EXPECT_EQ(deferred->queue_delay, 0);

  ldap::LdapBatchResult inline_result = twin.udr().SubmitBatch(requests, 0);
  ASSERT_EQ(deferred->results.size(), inline_result.results.size());
  for (size_t i = 0; i < deferred->results.size(); ++i) {
    ExpectSamePayload(deferred->results[i], inline_result.results[i]);
  }
  EXPECT_EQ(deferred->latency, inline_result.latency);
  EXPECT_EQ(deferred->partition_groups, inline_result.partition_groups);
}

TEST(SubmitEventTest, CoalescedResultsMatchSerialExecution) {
  workload::TestbedOptions o = CoalesceOptions(24, Millis(2));
  workload::Testbed bed(o);
  workload::TestbedOptions serial_o = CoalesceOptions(24, /*window=*/0);
  workload::Testbed twin(serial_o);
  Settle(bed);
  Settle(twin);

  // Eight concurrent events, each one subscriber's read + modify + read.
  std::vector<std::vector<ldap::LdapRequest>> events;
  for (uint64_t i = 0; i < 8; ++i) {
    telecom::Subscriber sub = bed.factory().Make(i);
    events.push_back({ReadOf(sub),
                      ModifyOf(sub, "serving-vlr", "vlr" + std::to_string(i)),
                      ReadOf(sub, /*master_only=*/true)});
  }

  std::vector<uint64_t> handles;
  for (const auto& event : events) {
    auto h = bed.udr().SubmitEvent(event, 0);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
    bed.clock().Advance(Micros(100));  // Staggered arrivals inside the window.
    bed.udr().PumpEvents();
  }
  bed.clock().AdvanceTo(bed.udr().NextEventDeadline());
  bed.udr().PumpEvents();

  for (size_t e = 0; e < events.size(); ++e) {
    auto coalesced = bed.udr().TakeEvent(handles[e]);
    ASSERT_TRUE(coalesced.has_value()) << e;
    // Per-event demux must reproduce serial execution byte for byte.
    ldap::LdapBatchResult serial = twin.udr().SubmitBatch(events[e], 0);
    ASSERT_EQ(coalesced->results.size(), serial.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i) {
      ExpectSamePayload(coalesced->results[i], serial.results[i]);
    }
    // Events that shared the window report the shared flush.
    EXPECT_GT(coalesced->coalesced_events, 1) << e;
    // Added queueing delay is bounded by the window.
    EXPECT_LE(coalesced->queue_delay, Millis(2)) << e;
  }
  // Identical state effects on both testbeds.
  for (uint64_t i = 0; i < 8; ++i) {
    for (auto* which : {&bed, &twin}) {
      auto loc =
          which->udr().AuthoritativeLookup(which->factory().Make(i).ImsiId());
      ASSERT_TRUE(loc.ok());
      auto record =
          which->udr().partition(loc->partition)
              ->ReadRecord(0, loc->key, replication::ReadPreference::kMasterOnly);
      ASSERT_TRUE(record.ok());
      EXPECT_EQ(storage::ValueToString(*record->Get("serving-vlr")),
                "vlr" + std::to_string(i));
    }
  }
}

TEST(SubmitEventTest, AddEventClosesTheWindowAndExecutesInline) {
  workload::Testbed bed(CoalesceOptions(5, Millis(1)));
  Settle(bed);
  telecom::Subscriber fresh = bed.factory().Make(50);
  int64_t before = bed.udr().SubscriberCount();

  // An earlier event parks in the window...
  auto parked = bed.udr().SubmitEvent({ReadOf(bed.factory().Make(1))}, 0);
  ASSERT_TRUE(parked.ok());
  EXPECT_FALSE(bed.udr().TakeEvent(*parked).has_value());

  // ...then an Add-carrying event arrives: it must not reorder against the
  // parked ops, so the window closes (the parked event dispatches first)
  // and the whole Add event executes inline, as serial execution would.
  ldap::LdapRequest add;
  add.op = ldap::LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", fresh.imsi);
  add.add_entry = fresh.profile;
  auto handle =
      bed.udr().SubmitEvent({add, ReadOf(fresh, /*master_only=*/true)}, 0);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(bed.udr().SubscriberCount(), before + 1);

  auto earlier = bed.udr().TakeEvent(*parked);
  ASSERT_TRUE(earlier.has_value());
  EXPECT_TRUE(earlier->ok());
  auto out = bed.udr().TakeEvent(*handle);  // No pump needed: ran inline.
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok()) << out->results[0].diagnostic << " / "
                         << out->results[1].diagnostic;
  ASSERT_EQ(out->results[1].entries.size(), 1u);
  EXPECT_EQ(out->queue_delay, 0);
}

TEST(SubmitEventTest, AddAfterParkedDeleteKeepsArrivalOrder) {
  workload::Testbed bed(CoalesceOptions(6, Millis(1)));
  Settle(bed);
  telecom::Subscriber sub = bed.factory().Make(2);
  const int64_t before = bed.udr().SubscriberCount();

  // Event A parks a delete of X; event B re-adds X. Serial order is
  // delete-then-add, so B must observe A's delete — an Add running ahead of
  // the parked window would fail with entryAlreadyExists instead.
  ldap::LdapRequest del;
  del.op = ldap::LdapOp::kDelete;
  del.dn = ldap::SubscriberDn("imsi", sub.imsi);
  del.master_only = true;
  auto a = bed.udr().SubmitEvent({del}, 0);
  ASSERT_TRUE(a.ok());
  ldap::LdapRequest add;
  add.op = ldap::LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", sub.imsi);
  add.add_entry = sub.profile;
  auto b = bed.udr().SubmitEvent({add}, 0);
  ASSERT_TRUE(b.ok());

  auto out_a = bed.udr().TakeEvent(*a);
  auto out_b = bed.udr().TakeEvent(*b);
  ASSERT_TRUE(out_a.has_value());
  ASSERT_TRUE(out_b.has_value());
  EXPECT_EQ(out_a->results[0].code, ldap::LdapResultCode::kSuccess);
  EXPECT_EQ(out_b->results[0].code, ldap::LdapResultCode::kSuccess)
      << out_b->results[0].diagnostic;
  EXPECT_EQ(bed.udr().SubscriberCount(), before);  // Deleted, then re-added.
}

/// The values the owning partition's log committed to `attr` of `id`'s
/// record, in log order.
std::vector<std::string> CommittedValues(workload::Testbed& bed,
                                         const Identity& id,
                                         const std::string& attr) {
  std::vector<std::string> out;
  auto entry = bed.udr().AuthoritativeLookup(id);
  if (!entry.ok()) return out;
  const replication::ReplicaSet* rs =
      bed.udr().partition_map().partition(entry->partition);
  for (const storage::LogEntry& log_entry : rs->log().entries()) {
    for (const storage::WriteOp& op : log_entry.ops) {
      if (op.key == entry->key && op.kind == storage::WriteKind::kUpsertAttr &&
          op.attr_name() == attr) {
        out.push_back(storage::ValueToString(op.attribute.value));
      }
    }
  }
  return out;
}

TEST(SubmitEventTest, WritesToAParkedRecordCommitInArrivalOrder) {
  // A window that never closes on its own: only an order close dispatches it.
  workload::Testbed bed(CoalesceOptions(10, Seconds(30)));
  Settle(bed);
  telecom::Subscriber sub = bed.factory().Make(4);
  udrnf::UdrNf& udr = bed.udr();
  const size_t provisioned =
      CommittedValues(bed, sub.ImsiId(), "serving-vlr").size();

  // A direct write at the PoA where a write to its record is parked.
  auto a = udr.SubmitEvent({ModifyOf(sub, "serving-vlr", "parked-a")}, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(udr.TakeEvent(*a).has_value());
  EXPECT_TRUE(udr.Submit(ModifyOf(sub, "serving-vlr", "direct-a"), 0).ok());
  auto out_a = udr.TakeEvent(*a);
  ASSERT_TRUE(out_a.has_value());
  EXPECT_TRUE(out_a->ok());

  // A direct batch at another site's PoA.
  auto b = udr.SubmitEvent({ModifyOf(sub, "serving-vlr", "parked-b")}, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(
      udr.SubmitBatch({ModifyOf(sub, "serving-vlr", "direct-b")}, 2).ok());
  EXPECT_TRUE(udr.TakeEvent(*b).has_value());

  // A write parking at another PoA than the one holding its record.
  auto c = udr.SubmitEvent({ModifyOf(sub, "serving-vlr", "parked-c")}, 0);
  auto d = udr.SubmitEvent({ModifyOf(sub, "serving-vlr", "parked-d")}, 1);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_TRUE(udr.TakeEvent(*c).has_value());
  EXPECT_FALSE(udr.TakeEvent(*d).has_value());
  udr.FlushEvents();
  EXPECT_TRUE(udr.TakeEvent(*d).has_value());

  const std::vector<std::string> values =
      CommittedValues(bed, sub.ImsiId(), "serving-vlr");
  ASSERT_GE(values.size(), provisioned);
  EXPECT_EQ(std::vector<std::string>(values.begin() + provisioned,
                                     values.end()),
            (std::vector<std::string>{"parked-a", "direct-a", "parked-b",
                                      "direct-b", "parked-c", "parked-d"}));
  EXPECT_EQ(udr.metrics().Get("udr.event.order_close"), 3);

  // A read of a parked record does not close its window.
  auto e = udr.SubmitEvent({ModifyOf(sub, "serving-vlr", "parked-e")}, 0);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(udr.Submit(ReadOf(sub), 0).ok());
  EXPECT_FALSE(udr.TakeEvent(*e).has_value());
  udr.FlushEvents();
}

TEST(SubmitEventTest, FlushEventsIsAnEndOfRunBarrier) {
  workload::Testbed bed(CoalesceOptions(10, Seconds(30)));
  Settle(bed);
  auto handle = bed.udr().SubmitEvent({ReadOf(bed.factory().Make(1))}, 0);
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(bed.udr().TakeEvent(*handle).has_value());
  bed.udr().FlushEvents();  // No clock advance: barrier close.
  auto out = bed.udr().TakeEvent(*handle);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok());
  EXPECT_EQ(out->queue_delay, 0);
}

TEST(SubmitEventTest, ParkedDeleteUnbindsAndAdjustsThePopulation) {
  workload::Testbed bed(CoalesceOptions(8, Millis(1)));
  Settle(bed);
  telecom::Subscriber sub = bed.factory().Make(3);
  const auto entry = bed.udr().AuthoritativeLookup(sub.ImsiId());
  ASSERT_TRUE(entry.ok());
  const int64_t subscribers = bed.udr().SubscriberCount();
  const int64_t population =
      bed.udr().partition_map().population(entry->partition);

  ldap::LdapRequest del;
  del.op = ldap::LdapOp::kDelete;
  del.dn = ldap::SubscriberDn("imsi", sub.imsi);
  del.master_only = true;
  auto handle = bed.udr().SubmitEvent({del}, 0);
  ASSERT_TRUE(handle.ok());
  // Parked: nothing has happened to the subscriber yet.
  EXPECT_FALSE(bed.udr().TakeEvent(*handle).has_value());
  EXPECT_TRUE(bed.udr().router().IsBound(sub.ImsiId()));
  EXPECT_EQ(bed.udr().SubscriberCount(), subscribers);

  bed.clock().Advance(Millis(1));
  bed.udr().PumpEvents();
  auto out = bed.udr().TakeEvent(*handle);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->results[0].code, ldap::LdapResultCode::kSuccess)
      << out->results[0].diagnostic;
  EXPECT_FALSE(bed.udr().router().IsBound(sub.ImsiId()));
  EXPECT_FALSE(bed.udr().router().IsBound(sub.MsisdnId()));
  EXPECT_FALSE(bed.udr().router().IsBound(sub.ImpuId()));
  EXPECT_EQ(bed.udr().SubscriberCount(), subscribers - 1);
  EXPECT_EQ(bed.udr().partition_map().population(entry->partition),
            population - 1);
}

// ---------------------------------------------------------------------------
// FeFleet: collecting parked events
// ---------------------------------------------------------------------------

workload::FeEvent DeferredAuth(uint64_t subscriber, sim::SiteId site) {
  workload::FeEvent e;
  e.procedure = workload::FeProcedure::kAuthenticate;
  e.subscriber = subscriber;
  e.serving = site;
  e.defer = true;
  return e;
}

TEST(FeFleetCollectTest, FoldsInIssueOrderAcrossWindowsFlushingApart) {
  workload::Testbed bed(CoalesceOptions(20, Micros(200)));
  Settle(bed);
  workload::FeFleet fleet(bed, /*batched=*/true);
  std::vector<uint64_t> folded;
  auto fold = [&](const workload::FeEvent& e,
                  const telecom::ProcedureResult& r) {
    EXPECT_TRUE(r.ok());
    folded.push_back(e.subscriber);
  };

  // Site 0's window opens at t0 and closes at t0 + 200; site 1's opens 50
  // later. Subscriber 3 joins site 0's window after site 1's opened.
  const MicroTime t0 = bed.clock().Now();
  ASSERT_FALSE(fleet.Issue(DeferredAuth(1, 0)).has_value());
  bed.clock().AdvanceTo(t0 + Micros(50));
  ASSERT_FALSE(fleet.Issue(DeferredAuth(2, 1)).has_value());
  bed.clock().AdvanceTo(t0 + Micros(100));
  ASSERT_FALSE(fleet.Issue(DeferredAuth(3, 0)).has_value());

  fleet.Collect(fold);
  EXPECT_TRUE(folded.empty());

  // Site 0 flushes alone: its two events fold, in issue order.
  bed.clock().AdvanceTo(t0 + Micros(200));
  bed.udr().PumpEvents();
  fleet.Collect(fold);
  EXPECT_EQ(folded, (std::vector<uint64_t>{1, 3}));

  // Site 1 flushes later.
  bed.clock().AdvanceTo(t0 + Micros(250));
  bed.udr().PumpEvents();
  fleet.Collect(fold);
  EXPECT_EQ(folded, (std::vector<uint64_t>{1, 3, 2}));

  // Both windows due in one pump, site 1's opened first this time: the
  // fold still follows issue order, not flush order.
  folded.clear();
  const MicroTime t1 = bed.clock().Now();
  ASSERT_FALSE(fleet.Issue(DeferredAuth(4, 1)).has_value());
  bed.clock().AdvanceTo(t1 + Micros(10));
  ASSERT_FALSE(fleet.Issue(DeferredAuth(5, 0)).has_value());
  ASSERT_FALSE(fleet.Issue(DeferredAuth(6, 1)).has_value());
  bed.clock().AdvanceTo(t1 + Micros(400));
  bed.udr().PumpEvents();
  fleet.Collect(fold);
  EXPECT_EQ(folded, (std::vector<uint64_t>{4, 5, 6}));
}

TEST(FeFleetCollectTest, AnAddClosingAWindowCompletesItsParkedEvents) {
  workload::Testbed bed(CoalesceOptions(20, Millis(1)));
  Settle(bed);
  workload::FeFleet fleet(bed, /*batched=*/true);
  std::vector<uint64_t> folded;
  auto fold = [&](const workload::FeEvent& e,
                  const telecom::ProcedureResult& r) {
    EXPECT_TRUE(r.ok());
    folded.push_back(e.subscriber);
  };
  ASSERT_FALSE(fleet.Issue(DeferredAuth(1, 0)).has_value());
  ASSERT_FALSE(fleet.Issue(DeferredAuth(2, 1)).has_value());
  ASSERT_FALSE(fleet.Issue(DeferredAuth(3, 0)).has_value());

  // An Add at site 0 closes that window inline: its events complete with
  // no clock advance and no pump, and the next Collect sees them.
  telecom::Subscriber fresh = bed.factory().Make(50);
  ldap::LdapRequest add;
  add.op = ldap::LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", fresh.imsi);
  add.add_entry = fresh.profile;
  auto handle = bed.udr().SubmitEvent({add}, 0);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(bed.udr().TakeEvent(*handle).has_value());

  fleet.Collect(fold);
  EXPECT_EQ(folded, (std::vector<uint64_t>{1, 3}));
  bed.udr().FlushEvents();
  fleet.Collect(fold);
  EXPECT_EQ(folded, (std::vector<uint64_t>{1, 3, 2}));
}

TEST(FeFleetCollectTest, CollectWithNothingCompletedFoldsNothing) {
  workload::Testbed bed(CoalesceOptions(20, Millis(1)));
  Settle(bed);
  workload::FeFleet fleet(bed, /*batched=*/true);
  int folds = 0;
  auto fold = [&](const workload::FeEvent&, const telecom::ProcedureResult&) {
    ++folds;
  };
  ASSERT_FALSE(fleet.Issue(DeferredAuth(1, 0)).has_value());
  const uint64_t completions = bed.udr().event_completions();
  for (int i = 0; i < 3; ++i) fleet.Collect(fold);
  EXPECT_EQ(folds, 0);
  EXPECT_EQ(bed.udr().event_completions(), completions);

  bed.udr().FlushEvents();
  EXPECT_EQ(bed.udr().event_completions(), completions + 1);
  fleet.Collect(fold);
  EXPECT_EQ(folds, 1);
  fleet.Collect(fold);  // Nothing new since the last pass.
  EXPECT_EQ(folds, 1);
}

// ---------------------------------------------------------------------------
// Deferred front-end procedures and the concurrent-event traffic driver
// ---------------------------------------------------------------------------

TEST(DeferredFrontEndTest, ProcedureCompletesWhenTheWindowFlushes) {
  workload::Testbed bed(CoalesceOptions(20, Millis(2)));
  Settle(bed);
  telecom::HlrFe fe(0, &bed.udr(), /*batched=*/false);
  fe.set_deferred(true);

  telecom::ProcedureResult first = fe.Authenticate(bed.factory().Make(2).ImsiId());
  telecom::ProcedureResult second =
      fe.UpdateLocation(bed.factory().Make(3).ImsiId(), "vlr1", 101);
  ASSERT_TRUE(first.deferred());
  ASSERT_TRUE(second.deferred());
  EXPECT_EQ(fe.procedures_ok(), 0);  // Scored at collection, not enqueue.
  EXPECT_FALSE(fe.TakeDeferred(*first.pending).has_value());

  bed.clock().AdvanceTo(bed.udr().NextEventDeadline());
  bed.udr().PumpEvents();
  auto done_first = fe.TakeDeferred(*first.pending);
  auto done_second = fe.TakeDeferred(*second.pending);
  ASSERT_TRUE(done_first.has_value());
  ASSERT_TRUE(done_second.has_value());
  EXPECT_TRUE(done_first->ok());
  EXPECT_TRUE(done_second->ok());
  EXPECT_EQ(done_first->ldap_ops, 1);
  EXPECT_EQ(done_second->ldap_ops, 2);
  EXPECT_LE(done_first->queue_delay, Millis(2));
  EXPECT_GT(done_first->latency, done_first->queue_delay);
  EXPECT_EQ(fe.procedures_ok(), 2);
}

TEST(ConcurrentTrafficTest, CoalescedTrafficStaysAvailableWithBoundedDelay) {
  workload::TestbedOptions o = CoalesceOptions(200, Millis(5));
  o.udr.coalesce_max_ops = 64;
  workload::Testbed bed(o);
  Settle(bed);

  workload::TrafficOptions t;
  t.duration = Seconds(5);
  t.fe_rate_per_sec = 100.0;
  t.ps_rate_per_sec = 2.0;
  t.subscriber_count = 200;
  t.concurrent_events = 8;
  workload::TrafficReport report = workload::RunTraffic(bed, t);

  workload::ClassStats fe = report.FeAll();
  EXPECT_GT(fe.attempted, 0);
  // Eight events per arrival tick: the driver really multiplied the load.
  EXPECT_GE(fe.attempted, 8 * 400);
  EXPECT_DOUBLE_EQ(fe.availability(), 1.0);
  EXPECT_DOUBLE_EQ(report.ps.availability(), 1.0);
  // Every deferred event was collected and its wait stayed inside the window.
  EXPECT_EQ(report.fe_queue_delay.count(), fe.attempted);
  EXPECT_LE(report.fe_queue_delay.max(), Millis(5));
  // Windows really coalesced events across arrivals.
  EXPECT_GT(bed.udr().metrics().HistOrEmpty("coalescer.flush.events").Mean(),
            1.5);
}

}  // namespace
}  // namespace udr::routing
