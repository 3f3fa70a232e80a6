// CLI driver for duti-lint, separated from main() so tests can invoke it
// in-process and pin the exit-code contract:
//
//   0  clean (no findings)
//   1  findings reported
//   2  usage error or I/O error (bad flag, bad root, missing or malformed
//      tools/duti_lint/layers.txt, unwritable --out)
#include "lint.hpp"

#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>

namespace duti::lint {
namespace {

int usage(std::ostream& out, int code) {
  out << "usage: duti_lint [--root <dir>] [--json] [--out <file>] [--dot]"
         " [--list-rules] [paths...]\n"
         "  --root <dir>   repository root to scan (default: .); the layer"
         " policy is\n"
         "                 <root>/tools/duti_lint/layers.txt\n"
         "  --json         machine-readable report on stdout (or --out)\n"
         "  --out <file>   write the report to <file> instead of stdout\n"
         "  --dot          emit the module DAG as Graphviz dot\n"
         "  --list-rules   print the rule registry and exit\n"
         "  paths          files/dirs relative to root"
         " (default: src bench tests tools examples perfbench)\n";
  return code;
}

}  // namespace

int run_lint_cli(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
  std::string root = ".";
  std::string out_path;
  bool json = false, dot = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : default_rules()) {
        out << rule.name << "\n    " << rule.description << "\n    scope:";
        if (rule.include.empty()) out << " (everywhere)";
        for (const auto& p : rule.include) out << " " << p;
        for (const auto& p : rule.exclude) out << " -" << p;
        if (rule.headers_only) out << " [headers only]";
        out << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(out, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "duti_lint: unknown option '" << arg << "'\n";
      return usage(err, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty())
    paths = {"src", "bench", "tests", "tools", "examples", "perfbench"};
  if (!std::filesystem::is_directory(root)) {
    err << "duti_lint: root '" << root << "' is not a directory\n";
    return 2;
  }

  LayerPolicy policy;
  LintReport report;
  try {
    policy = load_layer_policy(root);
    report = lint_tree(root, paths, policy);
  } catch (const std::exception& e) {
    err << "duti_lint: " << e.what() << "\n";
    return 2;
  }
  const std::string rendered = dot    ? to_dot(report, policy)
                               : json ? to_json(report)
                                      : to_human(report);
  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::binary);
    if (!file) {
      err << "duti_lint: cannot write '" << out_path << "'\n";
      return 2;
    }
    file << rendered;
  } else {
    out << rendered;
  }
  if (!json && !out_path.empty())
    out << "duti-lint: report written to " << out_path << "\n";
  return report.findings.empty() ? 0 : 1;
}

}  // namespace duti::lint
