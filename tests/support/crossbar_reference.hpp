/// \file crossbar_reference.hpp
/// An independent reference for a programmed RcmArray's parasitic column
/// currents.
///
/// It assembles the array's reduced wire-junction network from the
/// array's public conductance() and row_conductance() alone, without
/// RcmArray::prepare or ResistiveNetwork, and solves it per input: by
/// Jacobi-preconditioned CG, or by one full SparseLdlt solve in
/// crossbar_elimination_order(). Elements are stamped in the order
/// RcmArray::prepare stamps them, so the matrix matches the array's own
/// to rounding: each dummy pad is recovered as the row conductance minus
/// the row's crosspoint sum.

#pragma once

#include <cstddef>
#include <vector>

#include "core/cholesky.hpp"
#include "core/sparse.hpp"
#include "crossbar/rcm.hpp"

namespace spinsim::testing {

class CrossbarReference {
 public:
  /// Assembles `array`'s network with every column bar, and the dummy bar,
  /// terminated at ground.
  explicit CrossbarReference(const RcmArray& array);

  /// Column currents by CG from zero to 1e-10 of ||b|| (the CgOptions
  /// defaults); throws NumericalError if CG does not converge.
  std::vector<double> currents_cg(const std::vector<double>& input_currents) const;

  /// Column currents by one full forward and back substitution over the
  /// LDL^T factor, eliminated in crossbar_elimination_order() (factored
  /// on the first call).
  std::vector<double> currents_direct(const std::vector<double>& input_currents);

 private:
  std::vector<double> rhs(const std::vector<double>& input_currents) const;
  std::vector<double> column_currents(const std::vector<double>& voltages) const;

  std::size_t rows_;
  std::size_t cols_;
  double g_seg_;
  CsrMatrix a_;
  SparseLdlt ldlt_;
};

}  // namespace spinsim::testing
