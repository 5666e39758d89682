/// \file read_latch.hpp
/// Dynamic CMOS latch that senses the DWN's MTJ state (paper Fig. 7b).
///
/// Both load branches are precharged to VDD and then discharged, one
/// through the DWN MTJ and one through a reference MTJ whose resistance
/// sits midway between R_parallel and R_antiparallel. The branch with the
/// smaller resistance discharges faster; the cross-coupled pair
/// regenerates the difference to full swing. Because the read current is
/// a short transient, it does not disturb the DWN state.
///
/// The model is behavioral: `decide` compares the two resistances with
/// an input-referred offset sampled at construction, once per SAR cycle
/// of the WTA loop. The tests validate it against a backward-Euler
/// simulation of the two discharge branches.

#pragma once

#include "core/random.hpp"
#include "core/units.hpp"
#include "device/tech45.hpp"

namespace spinsim {

/// Electrical design of the read latch.
struct ReadLatchDesign {
  double sense_cap = 2e-15;      ///< per-branch sense capacitance [F]
  double offset_sigma = 0.01;    ///< relative resistance offset spread
  double sense_time = 200e-12;   ///< discharge window before regeneration [s]

  /// Energy of one decision: both branches swing VDD.
  Energy decision_energy(const Tech45& tech = Tech45::nominal()) const {
    return (2.0 * sense_cap * tech.vdd * tech.vdd) * units::J;
  }
};

/// One latch instance with sampled offset.
class ReadLatch {
 public:
  explicit ReadLatch(const ReadLatchDesign& design);
  ReadLatch(const ReadLatchDesign& design, Rng& rng);

  const ReadLatchDesign& design() const { return design_; }

  /// Behavioral decision: true when `r_mtj` reads below the reference
  /// (i.e. the MTJ is in the parallel state), with the sampled offset
  /// applied. This is what the SAR loop consumes each cycle.
  bool decide(double r_mtj, double r_reference) const;

 private:
  ReadLatchDesign design_;
  double offset_ = 0.0;  // relative resistance offset
};

}  // namespace spinsim
