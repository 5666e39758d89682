/// \file column_currents.hpp
/// One query through an RcmArray: prepare(), then a batch of 1.

#pragma once

#include <vector>

#include "crossbar/rcm.hpp"

namespace spinsim::testing {

/// `array`'s column currents for one vector of per-row input currents.
inline std::vector<double> column_currents(RcmArray& array, const std::vector<double>& inputs) {
  array.prepare();
  std::vector<double> out(array.cols());
  array.column_currents(inputs.data(), 1, out.data());
  return out;
}

}  // namespace spinsim::testing
