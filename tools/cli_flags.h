// Tiny --flag=value / --flag value parser for the CLI tools.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "experiment/table.h"

namespace mpr::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return values_.contains(name); }

  [[nodiscard]] std::string get(const std::string& name, const std::string& def = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  /// A count flag: decimal digits only, within [min, max].
  [[nodiscard]] std::optional<std::uint64_t> get_count(
      const char* tool, const std::string& name, std::uint64_t def, std::uint64_t min,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    std::uint64_t v = 0;
    const char* end = it->second.data() + it->second.size();
    const auto [ptr, ec] = std::from_chars(it->second.data(), end, v);
    if (ec == std::errc{} && ptr == end && v >= min && v <= max) return v;
    std::fprintf(stderr, "%s: --%s %s: expected an integer >= %llu", tool, name.c_str(),
                 it->second.c_str(), static_cast<unsigned long long>(min));
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
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    if (const auto bytes = experiment::parse_size(it->second)) return bytes;
    std::fprintf(stderr, "%s: --%s %s: expected a size of at least 1 byte, digits with an "
                 "optional k, m or g suffix\n", tool, name.c_str(), it->second.c_str());
    return std::nullopt;
  }

  /// A duration flag in seconds, within [0, max_s].
  [[nodiscard]] std::optional<double> get_seconds(const char* tool, const std::string& name,
                                                  double def, double max_s) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    double v = 0;
    const char* end = it->second.data() + it->second.size();
    const auto [ptr, ec] = std::from_chars(it->second.data(), end, v);
    if (ec == std::errc{} && ptr == end && v >= 0 && v <= max_s) return v;
    std::fprintf(stderr, "%s: --%s %s: expected seconds in [0, %g]\n", tool, name.c_str(),
                 it->second.c_str(), max_s);
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

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mpr::tools
