// Packed-record layout benchmark (self-checking, plain main):
//
//   L1  bytes/subscriber at 1M records — the packed (interned-name + sorted
//       vector) layout's modelled footprint against what the legacy
//       std::map<std::string, Attribute> layout costs for the SAME profiles,
//       plus the process's real RSS growth as a cross-check. GATE: >= 40%
//       reduction.
//   L2  attribute-lookup hot path — ns/op for packed Record::Find (pool
//       lookup + binary search, zero per-call std::string construction)
//       against the legacy map lookup that builds a std::string key per
//       call. GATE: 0 heap allocations per packed lookup, proven by a global
//       operator new counter around the timed loop.
//
// Emits BENCH_record_layout.json (to $UDR_BENCH_RECORD_LAYOUT_JSON, or
// ./BENCH_record_layout.json) for the bench trajectory.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <unistd.h>
#include <new>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table.h"
#include "storage/attr_pool.h"
#include "storage/record.h"
#include "telecom/subscriber.h"

using namespace udr;
using storage::Attribute;
using storage::Record;

// ---------------------------------------------------------------------------
// Global allocation counter: proves the packed lookup path is allocation-free.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr int64_t kSubscribers = 1'000'000;
constexpr int64_t kMapSample = 200'000;  ///< Real-RSS sample of the map layout.
constexpr int64_t kLookups = 2'000'000;

/// Resident set size from /proc/self/statm, in bytes.
int64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long pages_total = 0, pages_resident = 0;
  int n = std::fscanf(f, "%lld %lld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0;
  return pages_resident * sysconf(_SC_PAGESIZE);
}

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

struct LayoutResult {
  int64_t packed_model_per_sub = 0;
  int64_t map_model_per_sub = 0;
  int64_t packed_rss_per_sub = 0;
  int64_t map_rss_per_sub = 0;
  double reduction = 0.0;
  double attrs_per_record = 0.0;
};

LayoutResult MeasureLayout(const std::vector<Record>& records,
                           int64_t packed_rss_delta) {
  LayoutResult r;
  int64_t packed_model = 0, map_model = 0, attrs = 0;
  for (const Record& rec : records) {
    packed_model += rec.ApproxBytes();
    map_model += rec.MapLayoutBytes();
    attrs += static_cast<int64_t>(rec.attribute_count());
  }
  const int64_t n = static_cast<int64_t>(records.size());
  r.packed_model_per_sub = packed_model / n;
  r.map_model_per_sub = map_model / n;
  r.packed_rss_per_sub = packed_rss_delta / n;
  r.attrs_per_record = static_cast<double>(attrs) / static_cast<double>(n);
  r.reduction =
      1.0 - static_cast<double>(packed_model) / static_cast<double>(map_model);

  // Real-RSS cross-check of the map layout on a sample (the full map copy of
  // 1M records would double the bench's footprint for no extra signal).
  {
    const int64_t before = RssBytes();
    std::vector<std::map<std::string, Attribute>> maps;
    maps.reserve(kMapSample);
    for (int64_t i = 0; i < kMapSample; ++i) {
      maps.push_back(records[static_cast<size_t>(i)].ToMap());
    }
    r.map_rss_per_sub = (RssBytes() - before) / kMapSample;
  }
  return r;
}

struct LookupResult {
  double packed_ns_per_op = 0.0;
  double by_id_ns_per_op = 0.0;
  double map_ns_per_op = 0.0;
  uint64_t packed_allocs = 0;
  int64_t checksum = 0;  ///< Defeats dead-code elimination.
};

LookupResult MeasureLookup(const std::vector<Record>& records) {
  // Name universe of the profile schema, as raw C strings — the form a
  // protocol layer hands the storage layer (LDAP attribute descriptions).
  std::vector<const char*> names;
  for (const auto& e : records.front().entries()) {
    names.push_back(storage::AttrNameOf(e.name_id).data());
  }

  LookupResult r;
  const size_t sample = 1024;  // Rotate over records to beat the cache a bit.

  // Packed path: Record::Find(string_view) — pool probe + binary search.
  {
    const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < kLookups; ++i) {
      const Record& rec = records[static_cast<size_t>(i) % sample];
      const char* name = names[static_cast<size_t>(i) % names.size()];
      const Attribute* a = rec.Find(name);
      if (a != nullptr) r.checksum += a->writer + 1;
    }
    r.packed_ns_per_op =
        static_cast<double>(NowNs() - t0) / static_cast<double>(kLookups);
    r.packed_allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
  }

  // Pre-interned path: Record::FindById — what the data path itself runs
  // (WriteOps and the store's inner loops carry AttrIds, not names).
  {
    std::vector<storage::AttrId> ids;
    for (const char* name : names) ids.push_back(storage::LookupAttr(name));
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < kLookups; ++i) {
      const Record& rec = records[static_cast<size_t>(i) % sample];
      const Attribute* a =
          rec.FindById(ids[static_cast<size_t>(i) % ids.size()]);
      if (a != nullptr) r.checksum += a->writer + 1;
    }
    r.by_id_ns_per_op =
        static_cast<double>(NowNs() - t0) / static_cast<double>(kLookups);
  }

  // Legacy path: std::map keyed by std::string; every call pays the key
  // construction the old layout forced on the hot path.
  {
    std::vector<std::map<std::string, Attribute>> maps;
    maps.reserve(sample);
    for (size_t i = 0; i < sample; ++i) maps.push_back(records[i].ToMap());
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < kLookups; ++i) {
      const auto& m = maps[static_cast<size_t>(i) % sample];
      auto it = m.find(std::string(names[static_cast<size_t>(i) % names.size()]));
      if (it != m.end()) r.checksum += it->second.writer + 1;
    }
    r.map_ns_per_op =
        static_cast<double>(NowNs() - t0) / static_cast<double>(kLookups);
  }
  return r;
}

void WriteJson(const LayoutResult& layout, const LookupResult& lookup,
               bool pass) {
  std::string path = bench::JsonPath("UDR_BENCH_RECORD_LAYOUT_JSON",
                                     "BENCH_record_layout.json");
  bench::RunMeta meta;  // Wall-measured layout/lookup bench: no seed/sim time.
  meta.knobs = {{"subscribers", std::to_string(kSubscribers)},
                {"map_sample", std::to_string(kMapSample)},
                {"lookups", std::to_string(kLookups)}};
  FILE* f = bench::OpenJson(path, "bench_record_layout", meta);
  if (f == nullptr) return;
  std::fprintf(
      f,
      "  \"layout\": {\"packed_model_bytes_per_sub\": %lld, "
      "\"map_model_bytes_per_sub\": %lld, \"packed_rss_bytes_per_sub\": %lld, "
      "\"map_rss_bytes_per_sub\": %lld, \"reduction\": %.4f},\n",
      static_cast<long long>(layout.packed_model_per_sub),
      static_cast<long long>(layout.map_model_per_sub),
      static_cast<long long>(layout.packed_rss_per_sub),
      static_cast<long long>(layout.map_rss_per_sub), layout.reduction);
  std::fprintf(f,
               "  \"lookup\": {\"packed_ns_per_op\": %.2f, "
               "\"by_id_ns_per_op\": %.2f, \"map_ns_per_op\": "
               "%.2f, \"packed_allocs_per_%lld_lookups\": %llu},\n",
               lookup.packed_ns_per_op, lookup.by_id_ns_per_op,
               lookup.map_ns_per_op, static_cast<long long>(kLookups),
               static_cast<unsigned long long>(lookup.packed_allocs));
  bench::CloseJson(f, path, "bench_record_layout", pass);
}

}  // namespace

int main() {
  std::printf("bench_record_layout: building %lld subscriber profiles...\n",
              static_cast<long long>(kSubscribers));
  telecom::SubscriberFactory factory(42);
  const int64_t rss_before = RssBytes();
  std::vector<Record> records;
  records.reserve(kSubscribers);
  for (int64_t i = 0; i < kSubscribers; ++i) {
    records.push_back(factory.Make(static_cast<uint64_t>(i)).profile);
  }
  const int64_t packed_rss_delta = RssBytes() - rss_before;

  LayoutResult layout = MeasureLayout(records, packed_rss_delta);
  LookupResult lookup = MeasureLookup(records);

  Table t1("L1: bytes/subscriber at 1M records (packed vs map layout)",
           {"layout", "model B/sub", "real RSS B/sub"});
  t1.AddRow({"map<string,Attribute>", Table::Num(layout.map_model_per_sub),
             Table::Num(layout.map_rss_per_sub) + " (200k sample)"});
  t1.AddRow({"packed (interned ids)", Table::Num(layout.packed_model_per_sub),
             Table::Num(layout.packed_rss_per_sub)});
  t1.AddRow({"attrs/record", Table::Dbl(layout.attrs_per_record, 1), "-"});
  t1.SetBasis(2, Table::Basis::kHost);
  t1.Print();
  std::printf("\n");

  Table t2("L2: attribute lookup hot path (2M lookups)",
           {"path", "ns/op", "heap allocs"});
  t2.AddRow({"map + per-call std::string", Table::Dbl(lookup.map_ns_per_op, 1),
             "per-call key"});
  t2.AddRow({"packed Find(string_view)", Table::Dbl(lookup.packed_ns_per_op, 1),
             Table::Num(static_cast<int64_t>(lookup.packed_allocs))});
  t2.AddRow({"packed FindById (data path)",
             Table::Dbl(lookup.by_id_ns_per_op, 1), "0"});
  t2.SetBasis(1, Table::Basis::kHost);
  t2.Print();
  std::printf("\n");

  const bool reduction_ok = layout.reduction >= 0.40;
  const bool alloc_ok = lookup.packed_allocs == 0;
  const bool pass = reduction_ok && alloc_ok;

  Table t3("L3: self-check (any failed row breaks the CI smoke)",
           {"check", "value", "target", "verdict"});
  t3.AddRow({"bytes/sub reduction", Table::Pct(layout.reduction, 1), ">= 40%",
             reduction_ok ? "PASS" : "FAIL"});
  t3.AddRow({"packed lookup allocations",
             Table::Num(static_cast<int64_t>(lookup.packed_allocs)), "0",
             alloc_ok ? "PASS" : "FAIL"});
  t3.Print();

  WriteJson(layout, lookup, pass);
  (void)lookup.checksum;
  return pass ? 0 : 1;
}
