#include "datapath/read_latch.hpp"

#include <gtest/gtest.h>

#include "device/mtj.hpp"
#include "support/latch_transient.hpp"

namespace spinsim {
namespace {

TEST(ReadLatch, DecidesParallelState) {
  const ReadLatch latch{ReadLatchDesign{}};
  const MtjSpec mtj;
  EXPECT_TRUE(latch.decide(mtj.r_parallel, mtj.reference_resistance()));
  EXPECT_FALSE(latch.decide(mtj.r_antiparallel, mtj.reference_resistance()));
}

TEST(ReadLatch, OffsetShiftsDecisionPoint) {
  ReadLatchDesign d;
  d.offset_sigma = 0.5;  // huge spread
  bool saw_flip = false;
  // With a 50 % offset sigma, some dies must misread a borderline input.
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const ReadLatch latch(d, rng);
    // Input exactly 2 % below the reference: nominally "parallel".
    if (!latch.decide(9.8e3, 10e3)) {
      saw_flip = true;
      break;
    }
  }
  EXPECT_TRUE(saw_flip);
}

TEST(ReadLatch, ZeroOffsetIsDeterministic) {
  ReadLatchDesign d;
  d.offset_sigma = 0.0;
  Rng rng(1);
  const ReadLatch latch(d, rng);
  EXPECT_TRUE(latch.decide(9.99e3, 10e3));
  EXPECT_FALSE(latch.decide(10.01e3, 10e3));
}

TEST(ReadLatch, DecisionEnergyFormula) {
  ReadLatchDesign d;
  d.sense_cap = 2e-15;
  EXPECT_NEAR(d.decision_energy().in(units::J), 2.0 * 2e-15 * 1.0, 1e-18);
}

TEST(ReadLatch, TransientAgreesWithBehavioralOnClearMargins) {
  const ReadLatch latch{ReadLatchDesign{}};
  const MtjSpec mtj;
  const double r_ref = mtj.reference_resistance();

  const LatchTransient parallel = simulate_read_latch(latch.design(), mtj.r_parallel, r_ref);
  EXPECT_TRUE(parallel.decided_parallel);
  EXPECT_EQ(parallel.decided_parallel, latch.decide(mtj.r_parallel, r_ref));

  const LatchTransient anti = simulate_read_latch(latch.design(), mtj.r_antiparallel, r_ref);
  EXPECT_FALSE(anti.decided_parallel);
  EXPECT_EQ(anti.decided_parallel, latch.decide(mtj.r_antiparallel, r_ref));
}

TEST(ReadLatch, TransientSeparationGrowsWithTmr) {
  const ReadLatch latch{ReadLatchDesign{}};
  const LatchTransient strong = simulate_read_latch(latch.design(), 5e3, 10e3);
  const LatchTransient weak = simulate_read_latch(latch.design(), 9e3, 10e3);
  EXPECT_GT(strong.branch_separation, weak.branch_separation);
}

TEST(ReadLatch, TransientEqualResistancesBarelySeparate) {
  const ReadLatch latch{ReadLatchDesign{}};
  const LatchTransient t = simulate_read_latch(latch.design(), 10e3, 10e3);
  EXPECT_LT(t.branch_separation, 1e-6);
}

TEST(ReadLatch, RejectsNonPositiveResistance) {
  const ReadLatch latch{ReadLatchDesign{}};
  EXPECT_THROW(latch.decide(0.0, 10e3), InvalidArgument);
  EXPECT_THROW(simulate_read_latch(latch.design(), -5.0, 10e3), InvalidArgument);
}

}  // namespace
}  // namespace spinsim
