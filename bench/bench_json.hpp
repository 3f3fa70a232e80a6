// The benches' output directory and the JSON string escape, split out of
// bench_common.hpp so they stand without the stats/sweep layers:
// tools/duti_lint escapes its --json report with json_escape. Everything
// here is dependency-free standard library; names stay in duti::bench.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

namespace duti::bench {

/// Where CSVs land; created on demand. A failed create_directories is
/// REPORTED (path + reason) and falls back to "." so artifacts still land
/// somewhere readable instead of vanishing into a nonexistent directory.
inline std::string output_dir() {
  const char* env = std::getenv("DUTI_BENCH_OUT");
  std::string dir = env ? env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    std::cerr << "warning: cannot create bench output dir '" << dir << "'"
              << (ec ? " (" + ec.message() + ")" : "")
              << "; writing to '.' instead\n";
    return ".";
  }
  return dir;
}

/// `s` with JSON's string escapes applied (quotes, backslashes and control
/// characters), for duti-lint's --json report.
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace duti::bench
