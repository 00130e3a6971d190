// Golden scenario outputs: ScenarioReport::Serialize() of the five standard
// scenarios, plus the attach storm with the time-series sampler on and the
// attach storm over cache-on-miss location stages, must equal the committed
// files under tests/golden/ byte for byte. Run with
// UDR_UPDATE_GOLDEN=1 (tools/update_golden.py does) to rewrite them; the
// diff then names every modelled row that moved.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/engine.h"
#include "scenario/scenarios.h"
#include "udr/blade_cluster.h"
#include "udr/udr_nf.h"

namespace udr::scenario {
namespace {

void ExpectGolden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(UDR_GOLDEN_DIR) + "/" + file;
  if (std::getenv("UDR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path << " missing; run tools/update_golden.py";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << file << " moved; regenerate with tools/update_golden.py if intended";
}

TEST(GoldenTest, StandardScenariosSerializeAsCommitted) {
  for (const ScenarioSpec& spec : StandardScenarios()) {
    ExpectGolden("scenario_" + spec.name + ".txt",
                 RunScenario(spec).Serialize());
  }
}

TEST(GoldenTest, SampledScenarioSerializesAsCommitted) {
  ScenarioSpec spec = AttachStorm();
  spec.testbed.udr.obs_sample_interval_us = Millis(10);
  ExpectGolden("scenario_" + spec.name + "-sampled.txt",
               RunScenario(spec).Serialize());
}

// The attach storm over cache-on-miss location stages (§3.5) with heat
// tracking and a PoA cache. A mid-storm scale-out adds a cached PoA to a
// populated UDR, and a rebalance just after the storm moves primaries under
// the remaining traffic (during the storm it would break the storm-p99 SLO).
// Each PoA stage's hit/miss counters and entry/byte accounting follow the
// report.
TEST(GoldenTest, CachedLocationStormSerializesAsCommitted) {
  ScenarioSpec spec = AttachStorm();
  spec.name = "attach-storm-cached";
  spec.testbed.udr.location_kind = udrnf::LocationKind::kCached;
  spec.testbed.udr.heat_tracking = true;
  spec.testbed.udr.poa_cache_bytes = 256 * 1024;
  spec.testbed.udr.migration_bandwidth_bps = 4 * 1024 * 1024;
  spec.testbed.udr.migration_chunk_bytes = 32 * 1024;
  spec.script.ScaleOut(Seconds(5), /*site=*/2);
  spec.script.StartRebalance(Seconds(7) + Millis(500));
  Engine engine(spec);
  std::ostringstream out;
  out << engine.Run().Serialize();
  udrnf::UdrNf& udr = engine.testbed().udr();
  for (uint32_t c = 0; c < udr.cluster_count(); ++c) {
    const auto* stage = dynamic_cast<const location::CachedLocationStage*>(
        udr.cluster(c)->location_stage());
    ASSERT_NE(stage, nullptr);
    out << "stage cluster=" << c << " entries=" << stage->EntryCount()
        << " bytes=" << stage->ApproxBytes()
        << " hits=" << stage->cache_hits()
        << " misses=" << stage->cache_misses() << "\n";
  }
  ExpectGolden("scenario_" + spec.name + ".txt", out.str());
}

}  // namespace
}  // namespace udr::scenario
