#include "datapath/dtcs_dac.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "core/statistics.hpp"
#include "core/units.hpp"

namespace spinsim {
namespace {

DtcsDacDesign paper_design() {
  DtcsDacDesign d;
  d.bits = 5;
  d.full_scale_current = 10 * units::uA;
  d.delta_v = 30 * units::mV;
  return d;
}

TEST(DtcsDacDesign, UnitConductance) {
  const DtcsDacDesign d = paper_design();
  // g_unit * 31 * 30 mV = 10 uA.
  EXPECT_NEAR(d.unit_conductance() * 31.0 * 30e-3, 10e-6, 1e-12);
  EXPECT_EQ(d.max_code(), 31u);
}

TEST(DtcsDac, ZeroCodeGivesZeroCurrent) {
  const DtcsDac dac(paper_design());
  EXPECT_DOUBLE_EQ(dac.output_current(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dac.conductance(0), 0.0);
}

TEST(DtcsDac, FullScaleIntoIdealLoad) {
  const DtcsDac dac(paper_design());
  EXPECT_NEAR(dac.output_current(31, 0.0), 10e-6, 0.3e-6);
}

TEST(DtcsDac, MonotoneInCode) {
  const DtcsDac dac(paper_design());
  double last = -1.0;
  for (std::uint32_t code = 0; code <= 31; ++code) {
    const double i = dac.output_current(code, 20e-3);
    EXPECT_GT(i, last);
    last = i;
  }
}

TEST(DtcsDac, BinaryWeightingHolds) {
  const DtcsDac dac(paper_design());
  // Conductance of code 2^k doubles with k.
  for (unsigned k = 0; k + 1 < 5; ++k) {
    const double g_k = dac.conductance(1u << k);
    const double g_k1 = dac.conductance(1u << (k + 1));
    EXPECT_NEAR(g_k1 / g_k, 2.0, 0.02);
  }
}

TEST(DtcsDac, IdealLoadIsLinear) {
  const DtcsDac dac(paper_design());
  EXPECT_LT(dac.integral_nonlinearity(0.0), 0.01);
}

TEST(DtcsDac, NonlinearityGrowsAsLoadShrinks) {
  // Paper Fig. 8b: smaller G_TS (higher memristor resistance) compresses
  // the transfer characteristic.
  const DtcsDac dac(paper_design());
  const double inl_strong = dac.integral_nonlinearity(50e-3);  // G_TS = 50 mS
  const double inl_weak = dac.integral_nonlinearity(1e-3);     // G_TS = 1 mS
  EXPECT_GT(inl_weak, 3.0 * inl_strong);
}

TEST(DtcsDac, SeriesDivisionFormulaExact) {
  const DtcsDac dac(paper_design());
  const double g_t = dac.conductance(17);
  const double g_l = 5e-3;
  const double expected = 30e-3 * g_t * g_l / (g_t + g_l);
  EXPECT_NEAR(dac.output_current(17, g_l), expected, 1e-15);
}

TEST(DtcsDac, IdealCurrentStraightLine) {
  const DtcsDac dac(paper_design());
  EXPECT_DOUBLE_EQ(dac.ideal_current(0), 0.0);
  EXPECT_DOUBLE_EQ(dac.ideal_current(31), 10e-6);
  EXPECT_NEAR(dac.ideal_current(16), 10e-6 * 16.0 / 31.0, 1e-18);
}

TEST(DtcsDac, MismatchSpreadsFullScale) {
  DtcsDacDesign d = paper_design();
  d.sigma_vt_override = 20e-3;  // exaggerate for the test
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 400; ++i) {
    const DtcsDac dac(d, rng);
    stats.add(dac.output_current(31, 0.0));
  }
  EXPECT_GT(stats.stddev(), 0.0);
  EXPECT_NEAR(stats.mean(), 10e-6, 1e-6);
}

TEST(DtcsDac, MismatchAffectsSingleStepOnly) {
  // The paper argues the DTCS-DAC's variation is a single-step error;
  // verify two dies differ by a static gain-like error, not cumulative.
  DtcsDacDesign d = paper_design();
  d.sigma_vt_override = 10e-3;
  Rng rng(43);
  const DtcsDac a(d, rng);
  const DtcsDac b(d, rng);
  // Their transfer curves differ, but each stays monotone.
  double last_a = -1.0;
  for (std::uint32_t code = 0; code <= 31; ++code) {
    const double ia = a.output_current(code, 20e-3);
    EXPECT_GT(ia, last_a);
    last_a = ia;
  }
  EXPECT_NE(a.output_current(31, 0.0), b.output_current(31, 0.0));
}

TEST(DtcsDac, CodeOutOfRangeThrows) {
  const DtcsDac dac(paper_design());
  EXPECT_THROW(dac.conductance(32), InvalidArgument);
  EXPECT_THROW(dac.ideal_current(99), InvalidArgument);
}

TEST(DtcsDac, ThreeBitVariant) {
  DtcsDacDesign d = paper_design();
  d.bits = 3;
  const DtcsDac dac(d);
  EXPECT_EQ(d.max_code(), 7u);
  EXPECT_NEAR(dac.output_current(7, 0.0), 10e-6, 0.3e-6);
}

// %a captures of every code's conductance (paper_design(), Rng(2013),
// Pelgrom mismatch), taken while the table still re-evaluated each bit
// device for every code. The table sums set bits in ascending-bit order;
// any other order rounds differently, so these pin it.
constexpr double kMismatch3Bit[] = {
    0x0p+0, 0x1.9bb06700e0b68p-15, 0x1.9091110343e24p-14, 0x1.2f34a241da1ecp-13,
    0x1.8f084fcf5b797p-13, 0x1.f5f4698f93a71p-13, 0x1.2ba86c287eb54p-12, 0x1.5f1e79089acc2p-12,
};
constexpr double kMismatch5Bit[] = {
    0x0p+0, 0x1.80326093e38bbp-17, 0x1.6ac6038a06bbcp-16, 0x1.156f99e9fc40dp-15,
    0x1.67facebc70131p-15, 0x1.c80766e168f6p-15, 0x1.0eaee840b9b88p-14, 0x1.3eb534533629fp-14,
    0x1.5d59b934dee8fp-14, 0x1.8d6005475b5a6p-14, 0x1.b80b3a176097ep-14, 0x1.e8118629dd096p-14,
    0x1.08ab90498b794p-13, 0x1.20aeb652c9b2p-13, 0x1.360450bacc50cp-13, 0x1.4e0776c40a897p-13,
    0x1.68952017bae21p-13, 0x1.80984620f91adp-13, 0x1.95ede088fbb98p-13, 0x1.adf1069239f24p-13,
    0x1.c293d3c6d6e6dp-13, 0x1.da96f9d0151f9p-13, 0x1.efec943817be5p-13, 0x1.03f7dd20aafb8p-12,
    0x1.0ba0fe59152b4p-12, 0x1.17a2915db447ap-12, 0x1.224d5e91b597p-12, 0x1.2e4ef19654b36p-12,
    0x1.38a05830a32dap-12, 0x1.44a1eb35424ap-12, 0x1.4f4cb86943996p-12, 0x1.5b4e4b6de2b5cp-12,
};

void expect_table(unsigned bits, const double* expected) {
  DtcsDacDesign d = paper_design();
  d.bits = bits;
  Rng rng(2013);
  const DtcsDac dac(d, rng);
  for (std::uint32_t code = 0; code <= d.max_code(); ++code) {
    EXPECT_EQ(dac.conductance(code), expected[code]) << bits << "-bit code " << code;
  }
}

TEST(DtcsDac, MismatchCodeTableBitIdentical) {
  static_assert(std::size(kMismatch3Bit) == 8 && std::size(kMismatch5Bit) == 32);
  expect_table(3, kMismatch3Bit);
  expect_table(5, kMismatch5Bit);
}

}  // namespace
}  // namespace spinsim
