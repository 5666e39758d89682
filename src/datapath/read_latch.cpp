#include "datapath/read_latch.hpp"

#include "core/error.hpp"

namespace spinsim {

ReadLatch::ReadLatch(const ReadLatchDesign& design) : design_(design) {
  require(design.sense_cap > 0.0 && design.sense_time > 0.0, "ReadLatch: bad design");
}

ReadLatch::ReadLatch(const ReadLatchDesign& design, Rng& rng) : ReadLatch(design) {
  offset_ = rng.normal(0.0, design.offset_sigma);
}

bool ReadLatch::decide(double r_mtj, double r_reference) const {
  require(r_mtj > 0.0 && r_reference > 0.0, "ReadLatch::decide: resistances must be positive");
  // The offset shifts the effective comparison point, the dominant
  // non-ideality of a dynamic latch.
  return r_mtj < r_reference * (1.0 + offset_);
}

}  // namespace spinsim
