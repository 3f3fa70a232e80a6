// Stamped BENCH_*.json emission, split out of bench_common.hpp so the JSON
// helpers stand without the stats/sweep layers: tools/duti_lint escapes its
// report with json_escape. Everything here is dependency-free standard
// library; names stay in duti::bench.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// --- BENCH_*.json emission -------------------------------------------------
// Every artifact carries the same stamped header (bench name, schema
// version, and the resolved configuration that shaped the results), so
// downstream comparisons can refuse to diff runs from different
// configurations.

/// Schema of the stamped header; bump when the header shape changes.
inline constexpr int kBenchJsonSchemaVersion = 3;

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

[[nodiscard]] inline std::string json_str(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

[[nodiscard]] inline std::string json_bool(bool b) {
  return b ? "true" : "false";
}

[[nodiscard]] inline std::string json_u64(std::uint64_t v) {
  return std::to_string(v);
}

[[nodiscard]] inline std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// One top-level field of a BENCH_*.json artifact: (key, pre-rendered JSON
/// value). Values are emitted verbatim, so nested objects/arrays are just
/// strings the bench assembles.
using JsonFields = std::vector<std::pair<std::string, std::string>>;

/// Write $DUTI_BENCH_OUT/BENCH_<name>.json with the stamped header —
/// schema_version, then an "env" object holding `env` (the resolved library
/// configuration the artifact was produced under: bench::resolved_env() in
/// bench_common.hpp, or empty for a tool that runs none of the library)
/// and hardware_concurrency — followed by `fields` in order. Returns the
/// path, or "" on failure (reported to stderr).
inline std::string emit_bench_json(const std::string& name,
                                   const JsonFields& env,
                                   const JsonFields& fields) {
  const std::string path = output_dir() + "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "warning: cannot write " << path << "\n";
    return "";
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", json_escape(name).c_str());
  std::fprintf(f, "  \"schema_version\": %d,\n", kBenchJsonSchemaVersion);
  std::fprintf(f, "  \"env\": {");
  for (const auto& [key, value] : env) {
    std::fprintf(f, "\"%s\": %s, ", json_escape(key).c_str(), value.c_str());
  }
  std::fprintf(f, "\"hardware_concurrency\": %u},\n",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %s%s\n", json_escape(fields[i].first).c_str(),
                 fields[i].second.c_str(),
                 i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return path;
}

}  // namespace duti::bench
