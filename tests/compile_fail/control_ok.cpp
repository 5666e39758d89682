// Positive control for the compile-fail harness: well-formed Quantity
// code and a literal-message require(), the same constructs the negative
// cases abuse. If this stops compiling, the harness setup (include path,
// standard) is broken and the negative verdicts below it prove nothing.
#include "core/error.hpp"
#include "core/units.hpp"

int main() {
  using namespace spinsim;
  require(true, "control_ok: literal messages are accepted");
  const Power p = 65e-6 * units::W;
  const Time cycle = 1.0 / (100e6 * units::Hz);
  const Energy e = p * cycle;                    // Power * Time -> Energy
  const EnergyPerQuery epq = e / units::query;   // Energy / Queries
  const Energy back = epq * (3.0 * units::query);
  return (e + back).in(units::pJ) > 0.0 ? 0 : 1;
}
