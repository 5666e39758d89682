/// \file random_features.hpp
/// Shared generator for random feature vectors in tests.

#pragma once

#include <cstdint>

#include "core/random.hpp"
#include "vision/features.hpp"

namespace spinsim::testing {

/// A feature vector with every element drawn uniformly from the spec's
/// digital levels; the analog value is the level on the [0, 1] grid.
inline FeatureVector random_feature_vector(const FeatureSpec& spec, Rng& rng) {
  FeatureVector f;
  f.spec = spec;
  const double top = static_cast<double>(spec.levels() - 1);
  f.analog.resize(spec.dimension());
  f.digital.resize(spec.dimension());
  for (std::size_t i = 0; i < spec.dimension(); ++i) {
    const auto level = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.levels()) - 1));
    f.digital[i] = level;
    f.analog[i] = static_cast<double>(level) / top;
  }
  return f;
}

}  // namespace spinsim::testing
