#include "energy/power_report.hpp"

#include <sstream>

#include "core/error.hpp"
#include "core/table.hpp"

namespace spinsim {

void PowerReport::add(std::string name, PowerKind kind, Power power) {
  if (!(power >= Power{})) {  // also rejects NaN
    throw InvalidArgument("PowerReport::add: negative power for '" + name + "'");
  }
  items_.push_back({std::move(name), kind, power});
}

void PowerReport::add_all_prefixed(const std::string& prefix, const PowerReport& other) {
  for (const auto& item : other.items_) {
    add(prefix + item.name, item.kind, item.power);
  }
}

Power PowerReport::static_total() const {
  Power acc;
  for (const auto& item : items_) {
    if (item.kind == PowerKind::kStatic) {
      acc += item.power;
    }
  }
  return acc;
}

Power PowerReport::dynamic_total() const {
  Power acc;
  for (const auto& item : items_) {
    if (item.kind == PowerKind::kDynamic) {
      acc += item.power;
    }
  }
  return acc;
}

Energy PowerReport::energy_per_op(Frequency op_rate) const {
  require(op_rate > Frequency{}, "PowerReport::energy_per_op: rate must be positive");
  return total() / op_rate;
}

std::string PowerReport::str() const {
  std::ostringstream out;
  for (const auto& item : items_) {
    out << "  " << (item.kind == PowerKind::kStatic ? "[static]  " : "[dynamic] ") << item.name
        << ": " << AsciiTable::eng(item.power.in(units::W), "W") << "\n";
  }
  out << "  static total:  " << AsciiTable::eng(static_total().in(units::W), "W") << "\n";
  out << "  dynamic total: " << AsciiTable::eng(dynamic_total().in(units::W), "W") << "\n";
  out << "  total:         " << AsciiTable::eng(total().in(units::W), "W") << "\n";
  return out.str();
}

}  // namespace spinsim
