// Report renderers for duti-lint: human-readable (file:line anchors plus a
// summary), machine-readable JSON (stable key order, used by BENCH_lint.json
// and any CI consumer), and the module DAG in Graphviz dot.
#include "lint.hpp"

#include <cstdio>
#include <sstream>

#include "bench/bench_json.hpp"

namespace duti::lint {
namespace {

std::string fingerprint_hex(const LintReport& report) {
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(report.fingerprint));
  return fp;
}

}  // namespace

std::string to_human(const LintReport& report) {
  std::ostringstream out;
  for (const auto& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
    if (!f.path.empty()) out << " (reachable via " << f.path << ")";
    out << "\n";
  }
  out << "\nduti-lint: " << report.findings.size() << " finding"
      << (report.findings.size() == 1 ? "" : "s") << " in "
      << report.files_scanned << " files ("
      << report.suppressions_used << " justified suppression"
      << (report.suppressions_used == 1 ? "" : "s") << " applied)\n";
  out << "  modules=" << report.modules.size()
      << " edges=" << report.module_edges.size()
      << " includes=" << report.include_directives
      << " functions=" << report.functions
      << " call_edges=" << report.call_edges
      << " entries=" << report.entry_points
      << " reachable=" << report.reachable_functions << "\n";
  out << "  fingerprint=" << fingerprint_hex(report) << "\n";
  for (const auto& [rule, count] : report.rule_counts) {
    if (count > 0) out << "  " << rule << ": " << count << "\n";
  }
  return out.str();
}

std::string to_json(const LintReport& report) {
  using bench::json_escape;
  std::ostringstream out;
  out << "{\n  \"tool\": \"duti_lint\",\n  \"schema_version\": 2,\n";
  out << "  \"files_scanned\": " << report.files_scanned << ",\n";
  out << "  \"suppressions_used\": " << report.suppressions_used << ",\n";
  out << "  \"total_findings\": " << report.findings.size() << ",\n";
  out << "  \"fingerprint\": \"" << fingerprint_hex(report) << "\",\n";
  out << "  \"graph\": {\"modules\": " << report.modules.size()
      << ", \"module_edges\": " << report.module_edges.size()
      << ", \"include_directives\": " << report.include_directives
      << ", \"functions\": " << report.functions
      << ", \"call_edges\": " << report.call_edges
      << ", \"entry_points\": " << report.entry_points
      << ", \"reachable_functions\": " << report.reachable_functions
      << "},\n";
  out << "  \"module_edges\": [";
  bool first = true;
  for (const auto& [a, b] : report.module_edges) {
    out << (first ? "\n" : ",\n") << "    [\"" << json_escape(a) << "\", \""
        << json_escape(b) << "\"]";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << ",\n  \"rule_counts\": {";
  first = true;
  for (const auto& [rule, count] : report.rule_counts) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(rule)
        << "\": " << count;
    first = false;
  }
  out << "\n  },\n  \"findings\": [";
  first = true;
  for (const auto& f : report.findings) {
    out << (first ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << json_escape(f.rule) << "\", \"message\": \""
        << json_escape(f.message) << "\", \"path\": \""
        << json_escape(f.path) << "\"}";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::string to_dot(const LintReport& report, const LayerPolicy& policy) {
  std::ostringstream out;
  out << "digraph duti_modules {\n  rankdir=BT;\n  node [shape=box];\n";
  for (std::size_t l = 0; l < policy.layers.size(); ++l) {
    out << "  { rank=same;";
    for (const auto& m : policy.layers[l]) out << " \"" << m << "\";";
    out << " }  // layer " << l << "\n";
  }
  for (const auto& [a, b] : report.module_edges)
    out << "  \"" << a << "\" -> \"" << b << "\";\n";
  out << "}\n";
  return out.str();
}

}  // namespace duti::lint
