// Technology-conformance suite: every backend registered in the
// TechnologyRegistry is held to the same contract — anchor reproduction,
// sane scaling laws, the shared Vdd² energy law, leakage linearity,
// well-formed outputs over a fuzzed configuration grid, and a name that
// round-trips through the parser. Adding a technology means making these
// tests pass for it (docs/technologies.md has the checklist); nothing
// here is specific to any one backend.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nvsim/tech_backend.hpp"

namespace respin::nvsim {
namespace {

// 4 significant digits.
constexpr double kRelTol = 5e-4;

double rel_err(double actual, double expected) {
  return std::abs(actual - expected) / std::max(std::abs(expected), 1e-300);
}

ArrayConfig base_config(MemTech tech) {
  ArrayConfig config;
  config.tech = tech;
  config.capacity_bytes = 256 * 1024;
  config.block_bytes = 32;
  config.associativity = 4;
  config.vdd = 1.0;
  config.bank_count = 1;
  return config;
}

class Conformance : public ::testing::TestWithParam<const TechBackend*> {};

}  // namespace

// gtest prints a pointer parameter as its address, and that text becomes
// part of each discovered ctest name; print the backend name instead so
// the names are the same on every build and run.
void PrintTo(const TechBackend* backend, std::ostream* os) {
  *os << backend->name();
}

namespace {

TEST_P(Conformance, ReproducesAnchorsToFourSignificantDigits) {
  const TechBackend& backend = *GetParam();
  const ArrayModelParams params;
  const std::vector<TechAnchor> anchors = backend.anchors(params);
  ASSERT_FALSE(anchors.empty()) << backend.name();
  for (const TechAnchor& a : anchors) {
    SCOPED_TRACE(a.label);
    ASSERT_EQ(a.config.tech, backend.tech());
    const ArrayFigures f = evaluate(a.config, params);
    // Latencies are integer picoseconds: allow the rounding slack on top
    // of the 4-significant-digit band.
    EXPECT_LE(std::abs(static_cast<double>(f.read_latency) - a.read_ps),
              kRelTol * a.read_ps + 0.75);
    EXPECT_LE(std::abs(static_cast<double>(f.write_latency) - a.write_ps),
              kRelTol * a.write_ps + 0.75);
    EXPECT_LE(rel_err(f.read_energy, a.read_pj), kRelTol);
    EXPECT_LE(rel_err(f.write_energy, a.write_pj), kRelTol);
    EXPECT_LE(rel_err(f.leakage_power, a.leakage_w), kRelTol);
    EXPECT_LE(rel_err(f.area_mm2, a.area_mm2), kRelTol);
  }
}

TEST_P(Conformance, LatencyAndEnergyMonotonicInCapacity) {
  const TechBackend& backend = *GetParam();
  ArrayConfig config = base_config(backend.tech());
  ArrayFigures prev{};
  bool first = true;
  for (const std::uint64_t kb : {64, 128, 256, 512, 1024, 4096}) {
    config.capacity_bytes = kb * 1024;
    const ArrayFigures f = evaluate(config);
    if (!first) {
      SCOPED_TRACE(std::to_string(kb) + "KB");
      EXPECT_GE(f.read_latency, prev.read_latency);
      EXPECT_GE(f.write_latency, prev.write_latency);
      EXPECT_GT(f.read_energy, prev.read_energy);
      EXPECT_GT(f.write_energy, prev.write_energy);
      EXPECT_GT(f.leakage_power, prev.leakage_power);
      EXPECT_GT(f.area_mm2, prev.area_mm2);
    }
    prev = f;
    first = false;
  }
}

TEST_P(Conformance, AccessEnergyFollowsVddSquared) {
  const TechBackend& backend = *GetParam();
  ArrayConfig config = base_config(backend.tech());
  const ArrayModelParams params;
  const ArrayFigures nominal = evaluate(config, params);
  for (const double vdd : {0.5, 0.65, 0.8, 1.0}) {
    SCOPED_TRACE(vdd);
    config.vdd = vdd;
    const ArrayFigures f = evaluate(config, params);
    const double scale = (vdd / params.nominal_vdd) * (vdd / params.nominal_vdd);
    EXPECT_LE(rel_err(f.read_energy, nominal.read_energy * scale), 1e-9);
    EXPECT_LE(rel_err(f.write_energy, nominal.write_energy * scale), 1e-9);
  }
}

TEST_P(Conformance, LeakageIsLinearInCapacity) {
  const TechBackend& backend = *GetParam();
  // Leakage (including any always-on tax like eDRAM refresh) must scale
  // linearly with capacity at every operating voltage.
  for (const double vdd : {0.65, 1.0}) {
    ArrayConfig config = base_config(backend.tech());
    config.vdd = vdd;
    const ArrayFigures one = evaluate(config);
    config.capacity_bytes *= 2;
    const ArrayFigures two = evaluate(config);
    SCOPED_TRACE(vdd);
    EXPECT_LE(rel_err(two.leakage_power, 2.0 * one.leakage_power), 1e-9);
    EXPECT_LE(rel_err(two.area_mm2, 2.0 * one.area_mm2), 1e-9);
  }
}

TEST_P(Conformance, WellFormedOverFuzzedConfigurationGrid) {
  const TechBackend& backend = *GetParam();
  const ArrayModelParams params;
  // Deterministic LCG so failures reproduce; spans capacity, geometry and
  // the full validity voltage range.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int i = 0; i < 200; ++i) {
    ArrayConfig config;
    config.tech = backend.tech();
    config.capacity_bytes = (std::uint64_t{16} << (next() % 9)) * 1024;
    config.block_bytes = 32u << (next() % 2);
    config.associativity = 1u << (next() % 5);
    config.bank_count = 1u << (next() % 4);
    config.vdd = params.min_vdd +
                 (params.nominal_vdd - params.min_vdd) *
                     (static_cast<double>(next() % 1000) / 999.0);
    SCOPED_TRACE(describe(config) + " assoc=" +
                 std::to_string(config.associativity) + " banks=" +
                 std::to_string(config.bank_count));
    const ArrayFigures f = evaluate(config, params);
    EXPECT_GT(f.read_latency, 0);
    EXPECT_GT(f.write_latency, 0);
    EXPECT_GE(f.write_latency, f.read_latency);  // Writes never beat reads.
    EXPECT_TRUE(std::isfinite(f.read_energy) && f.read_energy > 0.0);
    EXPECT_TRUE(std::isfinite(f.write_energy) && f.write_energy > 0.0);
    EXPECT_TRUE(std::isfinite(f.leakage_power) && f.leakage_power > 0.0);
    EXPECT_TRUE(std::isfinite(f.area_mm2) && f.area_mm2 > 0.0);
  }
}

TEST_P(Conformance, RegistryNameRoundTrips) {
  const TechBackend& backend = *GetParam();
  EXPECT_STREQ(to_string(backend.tech()), backend.name());
  EXPECT_EQ(parse_mem_tech(backend.name()), backend.tech());
  EXPECT_EQ(TechnologyRegistry::instance().find(backend.name()), &backend);
  EXPECT_EQ(&TechnologyRegistry::instance().backend(backend.tech()),
            &backend);
}

TEST_P(Conformance, TraitsPickExactlyOneFaultModel) {
  // The fault subsystem has two injection mechanisms; a backend opts into
  // at most one of them (a hybrid array composes technologies instead).
  const TechTraits traits = GetParam()->traits();
  EXPECT_FALSE(traits.static_cell_faults && traits.write_retry_faults);
  EXPECT_GT(traits.write_fail_multiplier, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, Conformance,
    ::testing::ValuesIn(TechnologyRegistry::instance().all()),
    [](const ::testing::TestParamInfo<const TechBackend*>& info) {
      std::string name = info.param->name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- ArrayConfig validation (regression: zero geometry used to flow
// silently into the set/scaling math as a division hazard) ---------------

TEST(ConformanceValidation, RejectsZeroCapacity) {
  ArrayConfig config = base_config(MemTech::kSram);
  config.capacity_bytes = 0;
  EXPECT_THROW(evaluate(config), InvalidArrayConfig);
  EXPECT_THROW(ArrayConfig::validated(config), InvalidArrayConfig);
}

TEST(ConformanceValidation, RejectsZeroAssociativity) {
  ArrayConfig config = base_config(MemTech::kSttRam);
  config.associativity = 0;
  EXPECT_THROW(evaluate(config), InvalidArrayConfig);
  EXPECT_THROW(ArrayConfig::validated(config), InvalidArrayConfig);
}

TEST(ConformanceValidation, RejectsZeroBlockZeroBanksAndLowVdd) {
  ArrayConfig config = base_config(MemTech::kPcm);
  config.block_bytes = 0;
  EXPECT_THROW(evaluate(config), InvalidArrayConfig);
  config = base_config(MemTech::kEdram);
  config.bank_count = 0;
  EXPECT_THROW(evaluate(config), InvalidArrayConfig);
  config = base_config(MemTech::kSram);
  config.vdd = 0.1;
  EXPECT_THROW(evaluate(config), InvalidArrayConfig);
}

TEST(ConformanceValidation, ValidatedReturnsTheConfigUnchanged) {
  const ArrayConfig config = ArrayConfig::validated(base_config(MemTech::kSram));
  EXPECT_EQ(config.capacity_bytes, 256u * 1024u);
  EXPECT_EQ(config.associativity, 4u);
}

TEST(ConformanceValidation, ErrorsRemainLogicErrorsForExistingCallers) {
  // InvalidArrayConfig derives std::invalid_argument -> std::logic_error,
  // so pre-refactor catch sites keep working.
  ArrayConfig config = base_config(MemTech::kSram);
  config.capacity_bytes = 0;
  EXPECT_THROW(evaluate(config), std::logic_error);
  EXPECT_THROW(parse_mem_tech("FeRAM"), std::logic_error);
  EXPECT_THROW(parse_mem_tech("sram"), InvalidArrayConfig);  // Case matters.
}

}  // namespace
}  // namespace respin::nvsim
