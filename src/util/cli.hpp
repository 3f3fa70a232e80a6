// Minimal command-line flag parsing for the bench binaries and examples.
// Flags look like --name=value or --name value. Only the command line sets
// them: a stray environment variable cannot change a bench's flags (the
// few DUTI_* variables that exist, such as DUTI_THREADS, are read by their
// own modules). A binary reads its flags, then calls reject_unread(), so a
// misspelt flag fails instead of silently running the defaults.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace duti {

class Cli {
 public:
  /// Parse argv; throws InvalidArgument on malformed flags and on any
  /// argument that is not a flag or a flag's value (no binary takes one).
  Cli(int argc, const char* const* argv);

  /// The flag's value as given on the command line, if it was. Every
  /// getter goes through here and marks `name` as read.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Throws InvalidArgument naming every flag given on the command line
  /// that no getter has asked for (`--trails=5` for `--trials`). Call it
  /// after reading every flag the invocation uses and before any work.
  void reject_unread() const;

  /// Typed getters throw InvalidArgument naming the flag unless the whole
  /// value parses: --trials=150x or --eps=0.5.3 is an error, not a prefix.

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// A non-negative integer that fits T, e.g. get_uint<unsigned>("k", 64):
  /// --k=-1 or --k=4294967296 throws InvalidArgument naming the flag and
  /// the value instead of wrapping.
  template <std::integral T>
  [[nodiscard]] T get_uint(const std::string& name, T fallback) const {
    return static_cast<T>(uint_at_most(
        name, static_cast<std::uint64_t>(fallback),
        static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
  }

  /// Comma-separated list of non-negative integers that fit T, e.g.
  /// --ks=1,2,4,8; range-checked like get_uint.
  template <std::integral T>
  [[nodiscard]] std::vector<T> get_uint_list(const std::string& name,
                                             std::vector<T> fallback) const {
    if (!get(name)) return fallback;
    std::vector<T> out;
    for (const std::uint64_t v : uint_list_at_most(
             name, static_cast<std::uint64_t>(std::numeric_limits<T>::max()))) {
      out.push_back(static_cast<T>(v));
    }
    return out;
  }

  /// True if --help/-h was passed.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }

 private:
  // The flag's value (or `fallback` when absent), and each value of the
  // flag's list, as an integer in [0, max].
  [[nodiscard]] std::uint64_t uint_at_most(const std::string& name,
                                           std::uint64_t fallback,
                                           std::uint64_t max) const;
  [[nodiscard]] std::vector<std::uint64_t> uint_list_at_most(
      const std::string& name, std::uint64_t max) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;  // every name a getter asked for
  bool help_ = false;
};

}  // namespace duti
