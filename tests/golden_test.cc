// Golden scenario outputs: ScenarioReport::Serialize() of the five standard
// scenarios, plus the attach storm with the time-series sampler on, must
// equal the committed files under tests/golden/ byte for byte. Run with
// UDR_UPDATE_GOLDEN=1 (tools/update_golden.py does) to rewrite them; the
// diff then names every modelled row that moved.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/engine.h"
#include "scenario/scenarios.h"

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

}  // namespace
}  // namespace udr::scenario
