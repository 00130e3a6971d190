// Heap-allocation ceilings of the per-op request path and of replica
// catch-up. A replaced global operator new counts every allocation this
// binary makes (its own executable, so no other test pays for the counter).
//
// Request path: each case takes the mean over 1,000 calls after a warm-up on
// a settled 3-site, 200-subscriber testbed. The ceilings hold the request
// path to what its result keeps: a Search keeps its entry vector, the entry's
// DN and the projected record (with any value too long for a short-string
// buffer); everything else (op lists, slots, outcome vectors, projection
// ids) is moved or reused per-instance scratch.
//
// Window path: a deferred HlrFe::UpdateLocation at a PoA with a dispatch
// window, heat tracking and a record cache (SubmitEvent -> flush ->
// TakeDeferred). Parked events, their results and the LDAP layers' per-
// handle bookkeeping live in handle-indexed tables, the cache shares read
// payloads, and a parked Search is projected, so the call allocates for its
// op list, the parked batch and what its result keeps. The count is a
// property of the code, not of the host: 34.75 allocations per call with
// per-handle hash maps, whole-record window reads and deep-copied cache
// entries; 24.01 with the flat tables, window projections and shared
// payloads.
//
// Catch-up: a slave that catches up on provisioning creates adopts the
// master's records (storage::CatchUpRange) instead of rebuilding each one
// from its 18 upserts, so the catch-up allocates for its tables, not per
// record.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/message.h"
#include "replication/replica_set.h"
#include "telecom/front_end.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

// GCC sees the malloc of an inlined operator new reach the free of this
// file's operator delete and reports a mismatch; here they are one allocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Every replaceable non-aligned form, so that no allocation bypasses the
// counter and no block is freed by another allocator than the one that
// made it (the sanitizer stages check that pairing).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace udr {
namespace {

using workload::Testbed;
using workload::TestbedOptions;

constexpr int kWarmup = 200;
constexpr int kCalls = 1000;
constexpr uint64_t kSubscribers = 200;

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : AllocTest(Options()) {}
  explicit AllocTest(const TestbedOptions& options) : bed_(options) {
    bed_.ProvisionDirect(0, static_cast<int64_t>(kSubscribers));
    bed_.clock().Advance(Seconds(1));
    bed_.udr().CatchUpAllPartitions();
  }

  static TestbedOptions Options() {
    TestbedOptions o;
    o.sites = 3;
    return o;
  }

  location::Identity Imsi(int i) const {
    return bed_.factory().IdentityOf(static_cast<uint64_t>(i) % kSubscribers,
                                     location::IdentityType::kImsi);
  }

  ldap::Dn DnOf(int i) const {
    return ldap::SubscriberDn("imsi", Imsi(i).value);
  }

  /// Mean allocations of `call(i)` over kCalls calls after kWarmup ones.
  template <typename Call>
  static double MeanAllocations(const char* label, Call&& call) {
    for (int i = 0; i < kWarmup; ++i) call(i);
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = kWarmup; i < kWarmup + kCalls; ++i) call(i);
    const double mean =
        static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                            before) /
        kCalls;
    std::printf("%-28s %6.2f allocations/call\n", label, mean);
    return mean;
  }

  Testbed bed_;
};

TEST_F(AllocTest, ProcessSearch) {
  // The requests are built up front: only the verb path is counted.
  std::vector<ldap::LdapRequest> requests(kSubscribers);
  for (int i = 0; i < static_cast<int>(kSubscribers); ++i) {
    requests[i].op = ldap::LdapOp::kSearch;
    requests[i].dn = DnOf(i);
    requests[i].requested_attrs = {telecom::attr::kAuthKey,
                                   telecom::attr::kSqn};
  }
  const double mean = MeanAllocations("UdrNf::Process(Search)", [&](int i) {
    ldap::LdapResult r =
        bed_.udr().Process(requests[i % kSubscribers], /*poa_site=*/0);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.entries.size(), 1u);
    ASSERT_EQ(r.entries[0].record.attribute_count(), 2u);
  });
  EXPECT_LE(mean, 5.0);
}

TEST_F(AllocTest, ProcessModify) {
  std::vector<ldap::LdapRequest> requests(kSubscribers);
  for (int i = 0; i < static_cast<int>(kSubscribers); ++i) {
    requests[i].op = ldap::LdapOp::kModify;
    requests[i].dn = DnOf(i);
    requests[i].mods.push_back(ldap::Modification{
        ldap::ModType::kReplace, telecom::attr::kServingVlr,
        std::string("vlr-") + std::to_string(i % 10)});
  }
  const double mean = MeanAllocations("UdrNf::Process(Modify)", [&](int i) {
    ldap::LdapResult r =
        bed_.udr().Process(requests[i % kSubscribers], /*poa_site=*/0);
    ASSERT_TRUE(r.ok());
  });
  EXPECT_LE(mean, 6.0);
}

TEST_F(AllocTest, HlrAuthenticate) {
  telecom::HlrFe fe(0, &bed_.udr());
  std::vector<location::Identity> ids;
  for (int i = 0; i < static_cast<int>(kSubscribers); ++i) {
    ids.push_back(Imsi(i));
  }
  const double mean = MeanAllocations("HlrFe::Authenticate", [&](int i) {
    ASSERT_TRUE(fe.Authenticate(ids[i % kSubscribers]).ok());
  });
  EXPECT_LE(mean, 9.0);
}

TEST_F(AllocTest, HlrUpdateLocation) {
  telecom::HlrFe fe(0, &bed_.udr());
  std::vector<location::Identity> ids;
  for (int i = 0; i < static_cast<int>(kSubscribers); ++i) {
    ids.push_back(Imsi(i));
  }
  const std::string vlr = "vlr-7";
  const double mean = MeanAllocations("HlrFe::UpdateLocation", [&](int i) {
    ASSERT_TRUE(fe.UpdateLocation(ids[i % kSubscribers], vlr, i % 50).ok());
  });
  EXPECT_LE(mean, 18.0);
}

/// A PoA that parks events in a 200 us window, samples every op into the
/// heat sketch and caches hot records.
class WindowAllocTest : public AllocTest {
 protected:
  WindowAllocTest() : AllocTest(WindowOptions()) {}

  static TestbedOptions WindowOptions() {
    TestbedOptions o = Options();
    o.udr.coalesce_window_us = Micros(200);
    o.udr.heat_tracking = true;
    o.udr.poa_cache_bytes = 1024 * 1024;
    return o;
  }
};

TEST_F(WindowAllocTest, DeferredHlrUpdateLocation) {
  telecom::HlrFe fe(0, &bed_.udr());
  fe.set_deferred(true);
  std::vector<location::Identity> ids;
  for (int i = 0; i < static_cast<int>(kSubscribers); ++i) {
    ids.push_back(Imsi(i));
  }
  const std::string vlr = "vlr-7";
  const double mean =
      MeanAllocations("deferred UpdateLocation", [&](int i) {
        telecom::ProcedureResult parked =
            fe.UpdateLocation(ids[i % kSubscribers], vlr, i % 50);
        ASSERT_TRUE(parked.deferred());
        bed_.udr().FlushEvents();
        std::optional<telecom::ProcedureResult> done =
            fe.TakeDeferred(*parked.pending);
        ASSERT_TRUE(done.has_value());
        ASSERT_TRUE(done->ok());
      });
  EXPECT_LE(mean, 26.0);
}

/// Records held by all of the deployment's storage elements.
int64_t StoredRecords(udrnf::UdrNf& udr) {
  std::set<const storage::StorageElement*> ses;
  for (uint32_t p = 0; p < udr.partition_count(); ++p) {
    const replication::ReplicaSet* rs = udr.partition(p);
    for (uint32_t id = 0; id < rs->replica_count(); ++id) {
      ses.insert(rs->replica_se(id));
    }
  }
  int64_t records = 0;
  for (const storage::StorageElement* se : ses) records += se->store().Count();
  return records;
}

TEST(CatchUpAllocTest, AdoptingCatchUpAllocatesAtMostOncePerRecord) {
  constexpr int64_t kCreates = 2000;
  TestbedOptions o;
  o.sites = 3;
  Testbed bed(o);
  ASSERT_EQ(bed.ProvisionDirect(0, kCreates), kCreates);
  bed.clock().Advance(Seconds(1));
  const int64_t records_before = StoredRecords(bed.udr());
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  bed.udr().CatchUpAllPartitions();
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  // Records the catch-up put on slaves: at least one slave per partition
  // lagged on every create.
  const int64_t records = StoredRecords(bed.udr()) - records_before;
  ASSERT_GE(records, kCreates);
  const double per_record =
      static_cast<double>(allocations) / static_cast<double>(records);
  std::printf("%-28s %6.2f allocations/record (%lld records)\n",
              "CatchUpAllPartitions", per_record,
              static_cast<long long>(records));
  EXPECT_LE(per_record, 1.0);
}

}  // namespace
}  // namespace udr
