// MUST NOT COMPILE: require() takes its message as a const char*, so a
// check that passes builds no std::string. A formatted message would
// allocate on every call, passing or not; a caller that needs one tests
// the condition itself and throws InvalidArgument on failure.
#include <string>

#include "core/error.hpp"

int main() {
  const std::string context = "add_resistor";
  spinsim::require(true, context + ": node id out of range");  // formatted message
  return 0;
}
