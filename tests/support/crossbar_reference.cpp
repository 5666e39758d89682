#include "support/crossbar_reference.hpp"

#include <string>

#include "core/error.hpp"
#include "support/cg.hpp"

namespace spinsim::testing {

CrossbarReference::CrossbarReference(const RcmArray& array)
    : rows_(array.rows()),
      cols_(array.cols()),
      g_seg_(1.0 / array.config().segment_resistance()) {
  // Unknowns are the junctions, numbered as crossbar_elimination_order()
  // numbers them; the column terminations and the dummy bar are grounded.
  const std::size_t n = 2 * rows_ * cols_;
  const auto row_node = [&](std::size_t i, std::size_t j) { return i * cols_ + j; };
  const auto col_node = [&](std::size_t i, std::size_t j) { return (rows_ + i) * cols_ + j; };
  CooBuilder builder(n, n);
  const auto between = [&](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  const auto to_ground = [&](std::size_t a, double g) { builder.add(a, a, g); };

  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j + 1 < cols_; ++j) {
      between(row_node(i, j), row_node(i, j + 1), g_seg_);
    }
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t i = 0; i + 1 < rows_; ++i) {
      between(col_node(i, j), col_node(i + 1, j), g_seg_);
    }
    to_ground(col_node(rows_ - 1, j), g_seg_);
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      between(row_node(i, j), col_node(i, j), array.conductance(i, j));
    }
  }
  if (array.config().dummy_column) {
    for (std::size_t i = 0; i < rows_; ++i) {
      double crosspoints = 0.0;
      for (std::size_t j = 0; j < cols_; ++j) {
        crosspoints += array.conductance(i, j);
      }
      const double pad = array.row_conductance(i) - crosspoints;
      if (pad > 0.0) {
        to_ground(row_node(i, cols_ - 1), pad);
      }
    }
  }
  a_ = builder.compress();
}

std::vector<double> CrossbarReference::rhs(const std::vector<double>& input_currents) const {
  require(input_currents.size() == rows_, "CrossbarReference: need one input current per row");
  std::vector<double> b(2 * rows_ * cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    b[i * cols_] += input_currents[i];
  }
  return b;
}

std::vector<double> CrossbarReference::column_currents(const std::vector<double>& voltages) const {
  std::vector<double> out(cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    out[j] = voltages[(2 * rows_ - 1) * cols_ + j] * g_seg_;
  }
  return out;
}

std::vector<double> CrossbarReference::currents_cg(
    const std::vector<double>& input_currents) const {
  const CgResult result = conjugate_gradient(a_, rhs(input_currents));
  if (!result.converged) {
    throw NumericalError("CrossbarReference: CG failed to converge (residual " +
                         std::to_string(result.residual) + ")");
  }
  return column_currents(result.x);
}

std::vector<double> CrossbarReference::currents_direct(
    const std::vector<double>& input_currents) {
  if (!ldlt_.factorized()) {
    ldlt_.factorize(a_, crossbar_elimination_order(rows_, cols_));
  }
  return column_currents(ldlt_.solve(rhs(input_currents)));
}

}  // namespace spinsim::testing
