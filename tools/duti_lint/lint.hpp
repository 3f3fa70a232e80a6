// duti-lint: the self-hosted determinism & hygiene checker for the duti tree.
//
// The measurement engine promises bit-identical probes at any DUTI_THREADS
// and exact cache replay (DESIGN.md sections 7-8). That contract is easy to
// break silently: one std::random_device, one wall-clock read inside a
// tally, one iteration over an unordered container in a reduction, one
// floating-point accumulator, or a helper two translation units away from
// the reduction that does one of these. duti-lint lexes every source once
// (comments and string/char literals stripped, line numbers preserved) and
// runs one rule registry over those models (see default_rules() and
// DESIGN.md section 9):
//
//   - per-file rules: line-oriented pattern checks, scoped by path prefix;
//   - cross-TU passes: the module include DAG against layers.txt, the reach
//     of every src/ header and every src/ function from the code that uses
//     the library, the RNG-stream dataflow of every function, and the
//     determinism-purity walk of the call graph from every function defined
//     in src/stats.
//
// Suppressions are inline comments with mandatory justification text:
//
//   code();  // duti-lint: allow(<rule>) -- why this use is deliberate
//
// A suppression comment on its own line applies to the next line. A
// file-scoped variant disables a rule for the whole file:
//
//   // duti-lint: allow-file(<rule>) -- why the whole file is exempt
//
// One ledger settles every finding, per-file or cross-TU, against these
// directives. A suppression with no "-- justification" text is itself a
// finding (rule "bare-suppression"), so exemptions stay documented. A
// justified suppression whose rule produces no finding on its line/file is
// dead weight and is reported as "stale-suppression".
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace duti::lint {

/// One rule violation (or suppression-syntax error) at a file:line anchor.
struct Finding {
  std::string file;     ///< repo-relative path, forward slashes
  int line = 0;         ///< 1-based; 0 for file-level findings
  std::string rule;     ///< registry rule name, e.g. "no-wall-clock"
  std::string message;  ///< human-readable explanation
  /// Purity findings only: the call chain from the src/stats entry point
  /// to the offending function, rendered "entry -> mid -> leaf".
  std::string path = {};
};

/// One physical source line after the lexical pass.
struct LexedLine {
  std::string code;     ///< comments removed, string/char contents blanked
  std::string comment;  ///< concatenated comment text on this line
};

/// A per-file check: appends raw (pre-suppression) findings for one file.
using FileCheck = void (*)(const std::string& file,
                           const std::vector<LexedLine>& lines,
                           std::vector<Finding>& out);

/// A registry entry: name, rationale, and for a per-file rule its check and
/// the path scopes it applies to. Scoping is prefix-based on the
/// repo-relative path; an empty include list means "everywhere scanned".
/// Excludes win over includes, which is how the thread-pool implementation
/// itself escapes the raw-thread rule. The cross-TU passes and the ledger
/// emit the rules without a check; their scoping is built into the pass.
struct Rule {
  std::string name;
  std::string description;
  std::vector<std::string> include = {};  ///< path prefixes it applies to
  std::vector<std::string> exclude = {};  ///< path prefixes exempt from it
  bool headers_only = false;              ///< restrict to .hpp/.h files
  FileCheck check = nullptr;  ///< null: a pass or the ledger emits the rule
};

/// The project rule registry (order is the report order).
const std::vector<Rule>& default_rules();

// ---------------------------------------------------------------------------
// Lexer and suppression grammar
// ---------------------------------------------------------------------------

/// Strip comments and literal contents while preserving line numbers.
/// Handles //, /* */, "..." with escapes, '...' (distinguishing digit
/// separators like 1'000'000), and raw strings R"delim(...)delim".
std::vector<LexedLine> lex_lines(const std::string& src);

/// One parsed "duti-lint: allow[-file](rule[, rule]) -- justification"
/// directive from a comment.
struct SuppressionDirective {
  std::vector<std::string> rules;
  bool file_scope = false;
  bool justified = false;
  int line = 0;           ///< 1-based line the comment sits on
  bool own_line = false;  ///< comment-only line: applies to the next line
};

/// Parse every directive out of one line's comment text. Returns directives
/// in order; malformed rule lists yield a directive with empty `rules`.
std::vector<SuppressionDirective> parse_suppressions(const std::string& comment,
                                                     int line, bool own_line);

// ---------------------------------------------------------------------------
// Layer policy (layers.txt)
// ---------------------------------------------------------------------------

/// Parsed layering policy. `layers[i]` lists the modules of layer i (lowest
/// first); an include edge A -> B is legal iff layer(B) < layer(A), A == B,
/// or (A, B) is in `allowed_edges`. Same-layer sibling edges are illegal by
/// default — siblings share a layer precisely because they must not know
/// about each other.
struct LayerPolicy {
  std::vector<std::vector<std::string>> layers;
  std::vector<std::pair<std::string, std::string>> allowed_edges;
};

/// Parse the layers.txt grammar:
///
///   # comment
///   layer <module> [<module>...]     (one line per layer, lowest first)
///   allow <from> <to>                (extra legal edge)
///
/// Returns false and sets `error` on malformed lines or duplicate modules.
bool parse_layer_policy(const std::string& text, LayerPolicy& policy,
                        std::string& error);

/// Read and parse `root`/tools/duti_lint/layers.txt. Throws
/// std::runtime_error when the file is unreadable or malformed.
LayerPolicy load_layer_policy(const std::string& root);

/// Module of a repo-relative path: second component under src/ ("src/util/…"
/// -> "util"), first component otherwise ("bench/…" -> "bench", "tools/…" ->
/// "tools"). Empty for paths with no directory.
std::string module_of(const std::string& rel_path);

// ---------------------------------------------------------------------------
// Token stream and function table, built on lex_lines
// ---------------------------------------------------------------------------

/// One token of blanked code: identifiers, numbers, string/char blanks
/// ("" / ''), and punctuation ("::" and "->" combined, else single chars).
struct Token {
  std::string text;
  int line = 0;  ///< 1-based
};

std::vector<Token> tokenize(const std::vector<LexedLine>& lines);

/// One function definition found in a token stream. Indices are into the
/// tokenize() result; ranges are [begin, end) with `end` one past the
/// closing ')' / '}'. Lambdas are not definitions — their bodies belong to
/// the enclosing function, which is what the dataflow rules want.
struct FunctionDef {
  std::string name;          ///< simple (unqualified) name
  int line = 0;              ///< line of the name token
  std::size_t params_begin = 0, params_end = 0;
  std::size_t body_begin = 0, body_end = 0;
};

/// Heuristic definition finder: identifier + '(' whose matched paren group
/// is followed (modulo const/noexcept(...)/trailing-return/ctor-init-list)
/// by '{'. Deliberately under-approximating: a construct it cannot prove to
/// be a definition is skipped, never misattributed.
std::vector<FunctionDef> find_functions(const std::vector<Token>& tokens);

// ---------------------------------------------------------------------------
// The scan
// ---------------------------------------------------------------------------

/// One input file (repo-relative path + full contents).
struct SourceFile {
  std::string path;
  std::string content;
};

/// Aggregate result of one scan.
struct LintReport {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t suppressions_used = 0;
  /// Finding count per registry rule; every rule is present (zero included)
  /// so JSON consumers see the full registry.
  std::map<std::string, std::size_t> rule_counts;
  /// The module DAG actually observed (sorted, deduplicated).
  std::vector<std::string> modules;
  std::vector<std::pair<std::string, std::string>> module_edges;
  std::size_t include_directives = 0;  ///< resolved in-tree includes
  std::size_t functions = 0;           ///< definitions found
  std::size_t call_edges = 0;          ///< name-resolved call-graph edges
  std::size_t entry_points = 0;        ///< defs in src/stats
  std::size_t reachable_functions = 0; ///< defs reachable from entries
  /// FNV-1a over the sorted module edges, function names, call-edge and
  /// include counts, and rule counts. A pure function of the scanned
  /// sources: invariant to input order, thread count, and environment.
  std::uint64_t fingerprint = 0;
};

/// Lex each source once, run every per-file rule and cross-TU pass against
/// `policy`, and settle all findings through one suppression ledger.
/// Findings are sorted by (file, line, rule). A source under perfbench/,
/// which builds against the library on its own terms, is read only for the
/// names it mentions: the orphan-function pass counts them as uses, and no
/// rule, definition count or include edge comes from it.
LintReport lint_sources(const std::vector<SourceFile>& files,
                        const LayerPolicy& policy);

/// Walk `rel_paths` (files or directories, relative to `root`), load every
/// .hpp/.h/.cpp/.cc found, and lint them with lint_sources.
LintReport lint_tree(const std::string& root,
                     const std::vector<std::string>& rel_paths,
                     const LayerPolicy& policy);

// ---------------------------------------------------------------------------
// Reports and CLI
// ---------------------------------------------------------------------------

/// "file:line: [rule] message (reachable via path)" lines plus a summary of
/// the graph metrics, the fingerprint and the nonzero rule counts.
std::string to_human(const LintReport& report);

/// Render the machine-readable report (stable key order, valid JSON).
std::string to_json(const LintReport& report);

/// The observed module DAG in Graphviz dot format, layer-ranked by the
/// policy (illegal edges are not special-cased: render what is).
std::string to_dot(const LintReport& report, const LayerPolicy& policy);

/// CLI driver behind the duti_lint binary, separated so tests can pin the
/// exit-code contract: 0 clean, 1 findings, 2 usage or I/O error.
int run_lint_cli(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err);

}  // namespace duti::lint
