// Carrier enumeration mapping to the calibrated access profiles (Table 1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netem/access.h"

namespace mpr::experiment {

enum class Carrier { kAtt, kVerizon, kSprint };

[[nodiscard]] inline std::string to_string(Carrier c) {
  switch (c) {
    case Carrier::kAtt: return "AT&T";
    case Carrier::kVerizon: return "Verizon";
    case Carrier::kSprint: return "Sprint";
  }
  return "?";
}

/// Campaign-spec/CLI name -> carrier: att | verizon (or vzw) | sprint.
[[nodiscard]] inline std::optional<Carrier> carrier_from_string(const std::string& s) {
  if (s == "att") return Carrier::kAtt;
  if (s == "verizon" || s == "vzw") return Carrier::kVerizon;
  if (s == "sprint") return Carrier::kSprint;
  return std::nullopt;
}

[[nodiscard]] inline netem::AccessProfile carrier_profile(Carrier c) {
  switch (c) {
    case Carrier::kAtt: return netem::att_lte();
    case Carrier::kVerizon: return netem::verizon_lte();
    case Carrier::kSprint: return netem::sprint_evdo();
  }
  return netem::att_lte();
}

[[nodiscard]] inline std::vector<Carrier> all_carriers() {
  return {Carrier::kAtt, Carrier::kVerizon, Carrier::kSprint};
}

}  // namespace mpr::experiment
