// Tiny --flag=value / --flag value parser for the CLI tools.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

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

  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  /// Parses sizes like "64k", "4m", "512".
  [[nodiscard]] std::uint64_t get_size(const std::string& name, std::uint64_t def) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return def;
    const std::string& v = it->second;
    char* end = nullptr;
    const double base = std::strtod(v.c_str(), &end);
    std::uint64_t mult = 1;
    if (end != nullptr && *end != '\0') {
      switch (*end) {
        case 'k': case 'K': mult = 1024; break;
        case 'm': case 'M': mult = 1024 * 1024; break;
        case 'g': case 'G': mult = 1024ull * 1024 * 1024; break;
        default: break;
      }
    }
    return static_cast<std::uint64_t>(base * static_cast<double>(mult));
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
