// Tiny --flag=value / --flag value parser for the CLI tools.
//
// Every getter records the name it was asked for. Once a tool has read all
// the flags it honours, all_read() refuses the rest, so a typo such as
// --carier exits 1 instead of running the default. A flag given twice is
// refused the same way: neither value silently wins.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "experiment/table.h"

namespace mpr::tools {

/// A finite decimal number spanning all of `s`: no leading space or '+',
/// no trailing characters, no hex, nan or inf.
inline std::optional<double> parse_number(std::string_view s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

class Flags {
 public:
  /// Parses argv. A flag given twice, in any of the three forms, prints
  /// "<tool>: --<name> given twice" to stderr, and all_read() then refuses.
  Flags(const char* tool, int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      std::string value = "true";
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg.resize(eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      if (!values_.emplace(arg, std::move(value)).second && !repeated_) {
        std::fprintf(stderr, "%s: --%s given twice\n", tool, arg.c_str());
        repeated_ = true;
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return find(name) != nullptr; }

  [[nodiscard]] std::string get(const std::string& name, const std::string& def = "") const {
    const std::string* v = find(name);
    return v == nullptr ? def : *v;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const {
    const std::string* v = find(name);
    if (v == nullptr) return def;
    return *v != "false" && *v != "0";
  }

  /// A count flag: decimal digits only, within [min, max].
  [[nodiscard]] std::optional<std::uint64_t> get_count(
      const char* tool, const std::string& name, std::uint64_t def, std::uint64_t min,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const std::string* s = find(name);
    if (s == nullptr) return def;
    std::uint64_t v = 0;
    const char* end = s->data() + s->size();
    const auto [ptr, ec] = std::from_chars(s->data(), end, v);
    if (ec == std::errc{} && ptr == end && v >= min && v <= max) return v;
    std::fprintf(stderr, "%s: --%s %s: expected an integer >= %llu", tool, name.c_str(),
                 s->c_str(), static_cast<unsigned long long>(min));
    if (max != std::numeric_limits<std::uint64_t>::max()) {
      std::fprintf(stderr, " and <= %llu", static_cast<unsigned long long>(max));
    }
    std::fprintf(stderr, "\n");
    return std::nullopt;
  }

  /// A size flag like "64k", "4m", "512": decimal digits with an optional
  /// k/m/g suffix (powers of 1024), at least 1 byte.
  [[nodiscard]] std::optional<std::uint64_t> get_size(const char* tool, const std::string& name,
                                                      std::uint64_t def) const {
    const std::string* s = find(name);
    if (s == nullptr) return def;
    if (const auto bytes = experiment::parse_size(*s)) return bytes;
    std::fprintf(stderr, "%s: --%s %s: expected a size of at least 1 byte, digits with an "
                 "optional k, m or g suffix\n", tool, name.c_str(), s->c_str());
    return std::nullopt;
  }

  /// A duration flag in seconds, within [0, max_s].
  [[nodiscard]] std::optional<double> get_seconds(const char* tool, const std::string& name,
                                                  double def, double max_s) const {
    const std::string* s = find(name);
    if (s == nullptr) return def;
    if (const auto v = parse_number(*s); v && *v >= 0 && *v <= max_s) return *v;
    std::fprintf(stderr, "%s: --%s %s: expected seconds in [0, %g]\n", tool, name.c_str(),
                 s->c_str(), max_s);
    return std::nullopt;
  }

  /// Looks up an enum-valued flag through `parse`, one of the library's
  /// *_from_string functions. An unknown value prints
  /// "<tool>: --<name> <value>: expected <choices>" to stderr and yields
  /// std::nullopt, so the tool can exit 1 instead of guessing.
  template <typename Parse>
  [[nodiscard]] auto get_choice(const char* tool, const std::string& name, const std::string& def,
                                Parse parse, const char* choices) const {
    const std::string value = get(name, def);
    const auto parsed = parse(value);
    if (!parsed) {
      std::fprintf(stderr, "%s: --%s %s: expected %s\n", tool, name.c_str(), value.c_str(),
                   choices);
    }
    return parsed;
  }

  /// Call once the tool has read every flag it honours. A flag no getter
  /// asked for prints "<tool>: unknown flag --<name>", a positional
  /// argument "<tool>: unexpected argument <arg>", to stderr; either, or a
  /// flag given twice, makes this false, so the tool can exit 1.
  [[nodiscard]] bool all_read(const char* tool) const {
    if (repeated_) return false;
    for (const auto& [name, value] : values_) {
      if (!read_.contains(name)) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", tool, name.c_str());
        return false;
      }
    }
    if (!positional_.empty()) {
      std::fprintf(stderr, "%s: unexpected argument %s\n", tool, positional_.front().c_str());
      return false;
    }
    return true;
  }

 private:
  /// The value of --name, or nullptr; records that the tool reads it.
  [[nodiscard]] const std::string* find(const std::string& name) const {
    read_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool repeated_{false};
  mutable std::set<std::string> read_;
};

}  // namespace mpr::tools
