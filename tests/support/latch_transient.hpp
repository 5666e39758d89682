/// \file latch_transient.hpp
/// Circuit-level simulation of the read latch's discharge phase (paper
/// Fig. 7b), the reference the behavioral ReadLatch::decide is validated
/// against.

#pragma once

#include "datapath/read_latch.hpp"
#include "device/tech45.hpp"
#include "support/transient.hpp"

namespace spinsim {

/// Result of a circuit-level latch simulation.
struct LatchTransient {
  bool decided_parallel = false;  ///< true if the DWN branch discharged faster
  double branch_separation = 0.0; ///< |v_dwn - v_ref| at the sense instant [V]
  TransientTrace trace;           ///< full waveform (nodes: see latch_transient.cpp)
};

/// Backward-Euler RC simulation of an offset-free latch's two discharge
/// branches, one through `r_mtj` and one through `r_reference`.
LatchTransient simulate_read_latch(const ReadLatchDesign& design, double r_mtj,
                                   double r_reference, const Tech45& tech = Tech45::nominal());

}  // namespace spinsim
