#include "experiment/table.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <system_error>

namespace mpr::experiment {

std::string fmt_box(const analysis::Summary& s, const std::string& unit) {
  if (s.n == 0) return "-";  // empty summaries are all-NaN by contract
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.2f/%.2f/%.2f/%.2f/%.2f%s", s.min, s.q1, s.median, s.q3,
                s.max, unit.c_str());
  return buf;
}

std::string fmt_scalar(double v, const std::string& unit, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%s", precision, v, unit.c_str());
  return buf;
}

std::string fmt_size(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 && bytes % (1024ull * 1024) == 0) {
    std::snprintf(buf, sizeof buf, "%lluMB", static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%lluKB", static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::optional<std::uint64_t> parse_size(std::string_view text) {
  std::uint64_t mult = 1;
  switch (text.empty() ? '\0' : text.back()) {
    case 'k': case 'K': mult = 1024; break;
    case 'm': case 'M': mult = 1024 * 1024; break;
    case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
    default: break;
  }
  const char* end = text.data() + text.size() - (mult == 1 ? 0 : 1);
  std::uint64_t base = 0;
  // from_chars takes no sign for an unsigned type and reports overflow.
  const auto [ptr, ec] = std::from_chars(text.data(), end, base);
  if (ec != std::errc{} || ptr != end || base < 1 ||
      base > std::numeric_limits<std::uint64_t>::max() / mult) {
    return std::nullopt;
  }
  return base * mult;
}

}  // namespace mpr::experiment
