// Unit tests for src/common: Status/StatusOr, Rng, Histogram, strings,
// time intervals, table formatting, the handle table.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/handle_table.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/time.h"

namespace udr {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoryConstructorsSetCodes) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::DeadlineExceeded().IsDeadlineExceeded());
  EXPECT_TRUE(Status::FailedPrecondition().IsFailedPrecondition());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::Internal().IsInternal());
}

TEST(StatusTest, MessageIsPreserved) {
  Status s = Status::NotFound("subscriber 42");
  EXPECT_EQ(s.message(), "subscriber 42");
  EXPECT_EQ(s.ToString(), "NotFound: subscriber 42");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAborted), "Aborted");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Unavailable("down");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsUnavailable());
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 5);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  UDR_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(3, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) lo = true;
    if (v == 3) hi = true;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t r = rng.Zipf(1000, 1.0);
    EXPECT_LT(r, 1000u);
    if (r < 10) ++low;
    if (r >= 500) ++high;
  }
  EXPECT_GT(low, high);
}

TEST(RngTest, ZipfZeroSkewIsUniform) {
  Rng rng(23);
  int64_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Zipf(100, 0.0) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 10000.0, 0.5, 0.05);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P50(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.Mean(), 42.0);
  EXPECT_EQ(h.P50(), 42);
  EXPECT_EQ(h.P99(), 42);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 16; ++i) h.Record(i);
  EXPECT_EQ(h.Percentile(10), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 15);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.Uniform(1000000)));
  }
  int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.Record(i);
  // p50 of 1..100000 is ~50000; bucket resolution is 1/8 relative.
  int64_t p50 = h.P50();
  EXPECT_GT(p50, 50000 * 0.85);
  EXPECT_LT(p50, 50000 * 1.15);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, RecordMany) {
  Histogram h;
  h.RecordMany(7, 100);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 700);
  EXPECT_EQ(h.P50(), 7);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Record(1LL << 40);
  EXPECT_EQ(h.max(), 1LL << 40);
  EXPECT_GE(h.P99(), (1LL << 40) * 7 / 8);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmpty) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("MsIsDn=+34"), "msisdn=+34");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("sip:+34600", "sip:"));
  EXPECT_FALSE(StartsWith("tel:+34600", "sip:"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%03d-%s", 7, "x"), "007-x");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Millis(1), 1000);
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Minutes(1), 60000000);
  EXPECT_EQ(Hours(1), 3600000000LL);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

TEST(TimeTest, FormatDurationAdaptive) {
  EXPECT_EQ(FormatDuration(Micros(500)), "500us");
  EXPECT_EQ(FormatDuration(Millis(12)), "12.00ms");
  EXPECT_EQ(FormatDuration(Seconds(3)), "3.00s");
  EXPECT_EQ(FormatDuration(Minutes(2)), "2.0min");
}

TEST(TimeTest, IntervalContains) {
  TimeInterval iv{10, 20};
  EXPECT_FALSE(iv.Contains(9));
  EXPECT_TRUE(iv.Contains(10));
  EXPECT_TRUE(iv.Contains(19));
  EXPECT_FALSE(iv.Contains(20));
  EXPECT_EQ(iv.length(), 10);
}

TEST(TimeTest, IntervalOverlaps) {
  TimeInterval a{10, 20};
  EXPECT_TRUE(a.Overlaps({15, 25}));
  EXPECT_TRUE(a.Overlaps({0, 11}));
  EXPECT_FALSE(a.Overlaps({20, 30}));
  EXPECT_FALSE(a.Overlaps({0, 10}));
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, FormattersProduceReadableCells) {
  EXPECT_EQ(Table::Num(1234567), "1,234,567");
  EXPECT_EQ(Table::Num(-42), "-42");
  EXPECT_EQ(Table::Num(0), "0");
  EXPECT_EQ(Table::Dbl(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Pct(0.99999, 3), "99.999%");
  EXPECT_EQ(Table::Bytes(1536), "1.5 KB");
  EXPECT_EQ(Table::Bytes(200), "200 B");
}

TEST(TableTest, PrintAlignsColumns) {
  Table t("test", {"col-a", "b"});
  t.AddRow({"1", "22"});
  t.AddRow({"333", "4"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("== test =="), std::string::npos);
  EXPECT_NE(out.find("col-a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

// ---------------------------------------------------------------------------
// HandleTable
// ---------------------------------------------------------------------------

TEST(HandleTableTest, MatchesAMapOracle) {
  // Mostly increasing handles taken in about issue order, as on the
  // enqueue/take chains, plus out-of-order puts, overwrites and takes from
  // the middle, through several ring growths and wraparounds.
  for (uint64_t seed : {1u, 2u, 3u}) {
    HandleTable<std::string> table;
    std::map<uint64_t, std::string> oracle;
    Rng rng(seed);
    uint64_t next = 1;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t pick = rng.Uniform(100);
      if (pick < 55) {
        const uint64_t handle = next;
        next += 1 + rng.Uniform(3);  // Sparse runs too.
        table.Put(handle, std::to_string(step));
        oracle[handle] = std::to_string(step);
      } else if (pick < 60 && next > 1) {
        const uint64_t handle = 1 + rng.Uniform(next - 1);
        table.Put(handle, "again" + std::to_string(step));
        oracle[handle] = "again" + std::to_string(step);
      } else if (!oracle.empty()) {
        // Take the oldest live handle most of the time, else any.
        auto it = oracle.begin();
        if (rng.Uniform(4) == 0) {
          it = oracle.lower_bound(1 + rng.Uniform(next));
          if (it == oracle.end()) it = oracle.begin();
        }
        std::string* value = table.Find(it->first);
        ASSERT_NE(value, nullptr) << "step " << step;
        ASSERT_EQ(*value, it->second) << "step " << step;
        ASSERT_TRUE(table.Erase(it->first)) << "step " << step;
        ASSERT_FALSE(table.Erase(it->first)) << "step " << step;
        oracle.erase(it);
      }
      ASSERT_EQ(table.size(), oracle.size()) << "step " << step;
      const uint64_t probe = rng.Uniform(next + 2);
      const auto it = oracle.find(probe);
      std::string* found = table.Find(probe);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << "step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "step " << step;
      }
    }
    for (const auto& [handle, value] : oracle) {
      ASSERT_NE(table.Find(handle), nullptr);
      EXPECT_EQ(*table.Find(handle), value);
    }
  }
}


// ---------------------------------------------------------------------------
// FlatTable
// ---------------------------------------------------------------------------

struct TestSlot {
  uint64_t key = 0;
  int64_t value = 0;
};
struct TestTraits {
  using Slot = TestSlot;
  static uint64_t HashOf(const TestSlot& s) { return Mix64(s.key); }
};
using TestTable = FlatTable<TestTraits>;
using TestOracle = std::unordered_map<uint64_t, int64_t>;

size_t IndexOf(const TestTable& table, uint64_t key) {
  return table.Find(Mix64(key),
                    [key](const TestSlot& s) { return s.key == key; });
}

/// Binds `key` to `value`; returns the key's slot index.
size_t Put(TestTable* table, uint64_t key, int64_t value) {
  size_t i = IndexOf(*table, key);
  if (i == TestTable::kNotFound) {
    i = table->Insert(Mix64(key));
    EXPECT_EQ(table->at(i).key, 0u) << "a free slot holds Slot{}";
    EXPECT_EQ(table->at(i).value, 0) << "a free slot holds Slot{}";
    table->at(i).key = key;
  }
  table->at(i).value = value;
  return i;
}

bool Erase(TestTable* table, uint64_t key) {
  const size_t i = IndexOf(*table, key);
  if (i == TestTable::kNotFound) return false;
  table->EraseAt(i);
  return true;
}

/// `table` holds exactly `oracle`: each key of `universe` is found (or not)
/// with its value, and ForEach visits the oracle's keys once each.
void ExpectMatches(const TestTable& table, const TestOracle& oracle,
                   const std::vector<uint64_t>& universe,
                   const std::string& where) {
  ASSERT_EQ(table.size(), oracle.size()) << where;
  for (uint64_t key : universe) {
    const size_t i = IndexOf(table, key);
    const auto it = oracle.find(key);
    ASSERT_EQ(i != TestTable::kNotFound, it != oracle.end())
        << where << " key " << key;
    if (i != TestTable::kNotFound) {
      ASSERT_EQ(table.at(i).value, it->second) << where << " key " << key;
    }
  }
  TestOracle seen;
  table.ForEach([&](const TestSlot& s) {
    EXPECT_TRUE(seen.emplace(s.key, s.value).second) << where << " twice";
  });
  ASSERT_EQ(seen, oracle) << where;
}

/// The first `n` keys whose home slot in an 8-slot table is `home`.
std::vector<uint64_t> KeysHomedAt(uint64_t home, size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if ((Mix64(k) & 7) == home) keys.push_back(k);
  }
  return keys;
}

TEST(FlatTableTest, EraseShiftsAProbeRunBackAcrossTheEnd) {
  const std::vector<uint64_t> last = KeysHomedAt(7, 3);
  const uint64_t first = KeysHomedAt(0, 1)[0];
  TestTable table;
  EXPECT_EQ(Put(&table, last[0], 1), 7u);
  EXPECT_EQ(Put(&table, last[1], 2), 0u);  // Wraps past the end.
  EXPECT_EQ(Put(&table, first, 3), 1u);    // Home 0, displaced.
  EXPECT_EQ(Put(&table, last[2], 4), 2u);
  ASSERT_EQ(table.slot_count(), 8u);

  // Erasing the run's head pulls each member back one slot, across the end
  // for the first.
  ASSERT_TRUE(Erase(&table, last[0]));
  EXPECT_EQ(IndexOf(table, last[0]), TestTable::kNotFound);
  EXPECT_EQ(IndexOf(table, last[1]), 7u);
  EXPECT_EQ(IndexOf(table, first), 0u);
  EXPECT_EQ(IndexOf(table, last[2]), 1u);
  EXPECT_EQ(table.at(2).key, 0u) << "the vacated slot is reset";
  // A member already at its home slot stays there.
  ASSERT_TRUE(Erase(&table, last[1]));
  EXPECT_EQ(IndexOf(table, first), 0u);
  EXPECT_EQ(IndexOf(table, last[2]), 7u);
  EXPECT_FALSE(Erase(&table, last[1]));
  EXPECT_EQ(table.size(), 2u);

  // Churn over keys homed in the last two slots and the first, never
  // outgrowing the eight slots, against an oracle.
  std::vector<uint64_t> universe = KeysHomedAt(6, 2);
  for (uint64_t k : last) universe.push_back(k);
  universe.push_back(first);
  TestOracle oracle = {{first, 3}, {last[2], 4}};
  Rng rng(41);
  for (int step = 0; step < 5000; ++step) {
    const uint64_t key = universe[rng.Uniform(universe.size())];
    if (rng.Uniform(2) == 0) {
      Put(&table, key, step);
      oracle[key] = step;
    } else {
      EXPECT_EQ(Erase(&table, key), oracle.erase(key) == 1);
    }
    ASSERT_EQ(table.slot_count(), 8u);
    ExpectMatches(table, oracle, universe, "step " + std::to_string(step));
  }
}

TEST(FlatTableTest, RebuildCallsFixOnEachSlotAtItsNewIndex) {
  TestTable table;
  TestOracle oracle;
  std::vector<uint64_t> universe;
  for (uint64_t k = 1; k <= 6; ++k) {
    Put(&table, k * 1000, static_cast<int64_t>(k));
    oracle[k * 1000] = static_cast<int64_t>(k);
    universe.push_back(k * 1000);
  }
  ASSERT_EQ(table.slot_count(), 8u);
  std::unordered_map<uint64_t, const TestSlot*> moved_to;
  table.Rebuild(64, [&](TestSlot& s) {
    EXPECT_TRUE(moved_to.emplace(s.key, &s).second);
    s.value *= 10;  // What a user moves along with the slot.
  });
  for (auto& [key, value] : oracle) value *= 10;
  EXPECT_EQ(table.slot_count(), 64u);
  EXPECT_EQ(moved_to.size(), oracle.size());
  for (uint64_t key : universe) {
    EXPECT_EQ(moved_to[key], &table.at(IndexOf(table, key)));
  }
  ExpectMatches(table, oracle, universe, "after Rebuild");
  // Rebuilding at the same size keeps the keys too.
  table.Rebuild(64, [](TestSlot&) {});
  ExpectMatches(table, oracle, universe, "after a same-size Rebuild");
}

TEST(FlatTableTest, ReserveSizesForInsertsThatNeverRebuild) {
  TestTable table;
  table.Reserve(96);  // 96 keys need 128 slots at 3/4 load.
  ASSERT_EQ(table.slot_count(), 128u);
  const TestSlot* base = &table.at(0);
  for (uint64_t k = 1; k <= 96; ++k) {
    EXPECT_EQ(table.GrownSlotCount(), 128u);
    Put(&table, k, 0);
  }
  EXPECT_EQ(table.slot_count(), 128u);
  EXPECT_EQ(&table.at(0), base) << "an insert rebuilt the table";
  table.Reserve(10);  // Never shrinks.
  EXPECT_EQ(table.slot_count(), 128u);
  EXPECT_EQ(table.GrownSlotCount(), 256u);
  Put(&table, 97, 0);
  EXPECT_EQ(table.slot_count(), 256u);
}

TEST(FlatTableTest, ClearKeepsTheSlotArray) {
  TestTable table;
  TestOracle oracle;
  std::vector<uint64_t> universe;
  for (uint64_t k = 1; k <= 20; ++k) {
    Put(&table, k, static_cast<int64_t>(k));
    universe.push_back(k);
  }
  ASSERT_EQ(table.slot_count(), 32u);
  table.Clear();
  EXPECT_EQ(table.slot_count(), 32u);
  ExpectMatches(table, oracle, universe, "after Clear");
  for (uint64_t k = 1; k <= 20; ++k) {
    Put(&table, k + 100, static_cast<int64_t>(k));  // Checks Slot{}.
    oracle[k + 100] = static_cast<int64_t>(k);
    universe.push_back(k + 100);
  }
  EXPECT_EQ(table.slot_count(), 32u);
  ExpectMatches(table, oracle, universe, "refilled");
}

TEST(FlatTableTest, SeededChurnMatchesAnUnorderedMapOracle) {
  // Sequential keys and Mix64-scattered ones, through growth from 8 slots
  // to several hundred and long insert/erase churn at a stable size.
  std::vector<uint64_t> universe;
  for (uint64_t k = 0; k < 300; ++k) universe.push_back(k);
  for (uint64_t k = 0; k < 300; ++k) universe.push_back(Mix64(k + 7));
  for (uint64_t seed : {1u, 2u, 3u}) {
    TestTable table;
    TestOracle oracle;
    Rng rng(seed);
    size_t max_slots = 0;
    for (int step = 0; step < 6000; ++step) {
      const uint64_t key = universe[rng.Uniform(universe.size())];
      // Insert-heavy first, then balanced churn.
      if (rng.Uniform(100) < (step < 1500 ? 80u : 50u)) {
        Put(&table, key, step);
        oracle[key] = step;
      } else {
        ASSERT_EQ(Erase(&table, key), oracle.erase(key) == 1);
      }
      ASSERT_LE(table.size() * 4, table.slot_count() * 3);
      if (step % 50 == 0) {
        ExpectMatches(table, oracle, universe,
                      "seed " + std::to_string(seed) + " step " +
                          std::to_string(step));
      }
      max_slots = std::max(max_slots, table.slot_count());
    }
    ExpectMatches(table, oracle, universe, "end");
    EXPECT_GE(max_slots, 512u);
  }
}

}  // namespace
}  // namespace udr
