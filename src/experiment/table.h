// Small fixed-width table formatting helpers for the bench binaries, which
// print paper-style rows (mean ± stderr, box summaries, CCDF points), and
// the size parser that the CLI flags and the campaign spec share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/stats.h"

namespace mpr::experiment {

/// Box summary "min/q1/median/q3/max" with the given unit suffix.
[[nodiscard]] std::string fmt_box(const analysis::Summary& s, const std::string& unit = "s");

/// "12.3ms" style scalar.
[[nodiscard]] std::string fmt_scalar(double v, const std::string& unit = "", int precision = 2);

/// Human file size ("64KB", "4MB").
[[nodiscard]] std::string fmt_size(std::uint64_t bytes);

/// Parses a size of at least 1 byte: decimal digits with an optional k, m or
/// g suffix (binary multiples, either case). Nullopt for anything else — a
/// sign, a stray character, zero, or a value past 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_size(std::string_view text);

}  // namespace mpr::experiment
