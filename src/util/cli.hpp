// Minimal command-line flag parsing for the bench binaries and examples.
// Flags look like --name=value or --name value. Only the command line sets
// them: a stray environment variable cannot change a bench's flags (the
// few DUTI_* variables that exist, such as DUTI_THREADS, are read by their
// own modules).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace duti {

class Cli {
 public:
  /// Parse argv; throws InvalidArgument on malformed flags.
  Cli(int argc, const char* const* argv);

  /// The flag's value as given on the command line, if it was.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Typed getters throw InvalidArgument naming the flag unless the whole
  /// value parses: --trials=150x or --eps=0.5.3 is an error, not a prefix.

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. --ks=1,2,4,8.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --help/-h was passed.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace duti
