// CLI driver for duti-analyze, separated from main() so tests can invoke it
// in-process. Exit codes match duti_lint: 0 clean, 1 findings, 2 usage or
// I/O error. --bench-json stamps BENCH_analyze.json via the shared
// bench::emit_bench_json helper (same header as every other artifact).
#include "analyze.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "bench/bench_json.hpp"

namespace duti::analyze {
namespace {

int usage(std::ostream& out, int code) {
  out << "usage: duti_analyze [--root <dir>] [--layers <file>] [--json]"
         " [--out <file>] [--dot] [--list-rules] [--bench-json] [paths...]\n"
         "  --root <dir>    repository root to scan (default: .)\n"
         "  --layers <file> layer policy (default: "
         "<root>/tools/duti_analyze/layers.txt)\n"
         "  --json          machine-readable report on stdout (or --out)\n"
         "  --out <file>    write the report to <file> instead of stdout\n"
         "  --dot           emit the module DAG as Graphviz dot\n"
         "  --list-rules    print the rule registry and exit\n"
         "  --bench-json    also stamp $DUTI_BENCH_OUT/BENCH_analyze.json\n"
         "  paths           files/dirs relative to root"
         " (default: src bench tests tools examples)\n";
  return code;
}

/// Graph metrics + rule counts, stamped with the standard bench header so
/// BENCH_analyze.json diffs like every other artifact. The analyzer runs
/// none of the library, so its env stamp carries only hardware_concurrency;
/// the fingerprint is a pure function of the sources.
void stamp_bench_json(const AnalyzeReport& report) {
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(report.fingerprint));
  std::string counts = "{";
  bool first = true;
  for (const auto& [rule, count] : report.rule_counts) {
    counts += std::string(first ? "" : ", ") + bench::json_str(rule) + ": " +
              bench::json_u64(count);
    first = false;
  }
  counts += "}";
  const std::string path = bench::emit_bench_json(
      "analyze", /*env=*/{},
      {{"fingerprint", bench::json_str(fp)},
       {"files_scanned", bench::json_u64(report.files_scanned)},
       {"modules", bench::json_u64(report.modules.size())},
       {"module_edges", bench::json_u64(report.module_edges.size())},
       {"include_directives", bench::json_u64(report.include_directives)},
       {"functions", bench::json_u64(report.functions)},
       {"call_edges", bench::json_u64(report.call_edges)},
       {"entry_points", bench::json_u64(report.entry_points)},
       {"reachable_functions",
        bench::json_u64(report.reachable_functions)},
       {"suppressions_used", bench::json_u64(report.suppressions_used)},
       {"total_findings", bench::json_u64(report.findings.size())},
       {"rule_counts", counts}});
  if (!path.empty()) std::printf("duti-analyze: stamped %s\n", path.c_str());
}

}  // namespace

int run_analyze_cli(int argc, const char* const* argv, std::ostream& out,
                    std::ostream& err) {
  std::string root = ".";
  std::string layers_path;
  std::string out_path;
  bool json = false, dot = false, bench_json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--bench-json") {
      bench_json = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : default_rules())
        out << rule.name << "\n    " << rule.description << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(out, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "duti_analyze: unknown option '" << arg << "'\n";
      return usage(err, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (!std::filesystem::is_directory(root)) {
    err << "duti_analyze: root '" << root << "' is not a directory\n";
    return 2;
  }

  AnalyzeReport report;
  LayerPolicy policy;
  try {
    const std::string policy_file =
        layers_path.empty()
            ? (std::filesystem::path(root) / "tools/duti_analyze/layers.txt")
                  .generic_string()
            : layers_path;
    std::ifstream pin(policy_file, std::ios::binary);
    if (!pin) throw std::runtime_error("cannot read '" + policy_file + "'");
    std::ostringstream pbuf;
    pbuf << pin.rdbuf();
    std::string error;
    if (!parse_layer_policy(pbuf.str(), policy, error))
      throw std::runtime_error(policy_file + ": " + error);
    report = analyze_tree(root, paths, policy_file);
  } catch (const std::exception& e) {
    err << "duti_analyze: " << e.what() << "\n";
    return 2;
  }

  const std::string rendered = dot    ? to_dot(report, policy)
                               : json ? to_json(report)
                                      : to_human(report);
  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::binary);
    if (!file) {
      err << "duti_analyze: cannot write '" << out_path << "'\n";
      return 2;
    }
    file << rendered;
  } else {
    out << rendered;
  }
  if (bench_json) stamp_bench_json(report);
  return report.findings.empty() ? 0 : 1;
}

}  // namespace duti::analyze
