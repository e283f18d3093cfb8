#include "sim/metrics.h"

#include <sstream>
#include <string_view>

namespace teleport::sim {

namespace {

/// Display name of a ToString section; group tokens must be identifiers so
/// the X-macro can stringize them, hence this one mapping.
std::string_view GroupLabel(std::string_view group) {
  return group == "memory_pool" ? "memory pool" : group;
}

}  // namespace

std::string Metrics::ToString() const {
  struct Row {
    std::string_view group;
    std::string_view label;
    uint64_t value;
  };
  const Row rows[] = {
#define TELEPORT_SIM_METRICS_ROW(field, group, label) {#group, #label, field},
      TELEPORT_SIM_METRICS_FIELDS(TELEPORT_SIM_METRICS_ROW)
#undef TELEPORT_SIM_METRICS_ROW
  };
  // Opt-in groups are elided while all-zero so golden dumps predating the
  // feature stay byte-identical: txn exists only when the OLTP engine ran,
  // netq only when a contended fabric backend (non-kIdeal) was active.
  bool txn_all_zero = true;
  bool netq_all_zero = true;
  for (const Row& r : rows) {
    if (r.group == "txn" && r.value != 0) txn_all_zero = false;
    if (r.group == "netq" && r.value != 0) netq_all_zero = false;
  }
  std::ostringstream os;
  std::string_view current;
  for (const Row& r : rows) {
    if (r.group == "none") continue;
    if (r.group == "txn" && txn_all_zero) continue;
    if (r.group == "netq" && netq_all_zero) continue;
    if (r.group != current) {
      if (!current.empty()) os << "\n";
      os << GroupLabel(r.group) << ": ";
      current = r.group;
    } else {
      os << " ";
    }
    os << r.label << "=" << r.value;
  }
  return os.str();
}

}  // namespace teleport::sim
