// Rule engine for duti-lint. Pure standard library: a light lexical pass
// (comments and literal contents removed, line structure preserved) feeds
// line-oriented pattern checks. This is deliberately not a C++ parser —
// every rule is chosen so that lexical evidence is enough, and anything
// deeper belongs in clang-tidy (see .clang-tidy, wired into the lint lane).
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace duti::lint {
namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

}  // namespace

std::vector<LexedLine> lex_lines(const std::string& src) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  std::vector<LexedLine> out;
  LexedLine cur;
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" terminator for the active raw string
  char last_code = '\0';  // last non-blanked code char, for R" detection

  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = src[i];
    const char next = i + 1 < n ? src[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      out.push_back(std::move(cur));
      cur = LexedLine{};
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          cur.code += '"';
          if (last_code == 'R') {
            // Raw string: collect the delimiter up to '('.
            std::string delim;
            std::size_t j = i + 1;
            while (j < n && src[j] != '(' && src[j] != '\n') delim += src[j++];
            raw_close = ")" + delim + "\"";
            state = State::kRaw;
            i = j;  // consume through '('
          } else {
            state = State::kString;
          }
        } else if (c == '\'' && !is_ident(last_code)) {
          cur.code += '\'';
          state = State::kChar;
        } else {
          cur.code += c;
          if (!is_space(c)) last_code = c;
        }
        break;
      case State::kLineComment:
        cur.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          cur.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char (an escaped newline ends no string)
        } else if (c == '"') {
          cur.code += '"';
          state = State::kCode;
          last_code = '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          cur.code += '\'';
          state = State::kCode;
          last_code = '\'';
        }
        break;
      case State::kRaw:
        if (c == ')' && src.compare(i, raw_close.size(), raw_close) == 0) {
          i += raw_close.size() - 1;
          cur.code += '"';
          state = State::kCode;
          last_code = '"';
        }
        break;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

namespace {

/// All positions where `word` occurs in `s` with non-identifier boundaries.
std::vector<std::size_t> word_positions(const std::string& s,
                                        const std::string& word) {
  std::vector<std::size_t> hits;
  std::size_t at = 0;
  while ((at = s.find(word, at)) != std::string::npos) {
    const bool left_ok = at == 0 || !is_ident(s[at - 1]);
    const std::size_t end = at + word.size();
    const bool right_ok = end >= s.size() || !is_ident(s[end]);
    if (left_ok && right_ok) hits.push_back(at);
    at = end;
  }
  return hits;
}

bool has_word(const std::string& s, const std::string& word) {
  return !word_positions(s, word).empty();
}

std::size_t skip_spaces(const std::string& s, std::size_t at) {
  while (at < s.size() && is_space(s[at])) ++at;
  return at;
}

/// True when `word` at one of its positions is immediately (modulo spaces)
/// followed by `follow`.
bool word_followed_by(const std::string& s, const std::string& word,
                      char follow) {
  for (std::size_t at : word_positions(s, word)) {
    const std::size_t after = skip_spaces(s, at + word.size());
    if (after < s.size() && s[after] == follow) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Suppressions — public so tools/duti_analyze reuses the exact grammar.
// ---------------------------------------------------------------------------

std::vector<SuppressionDirective> parse_suppressions(const std::string& comment,
                                                     int line, bool own_line) {
  std::vector<SuppressionDirective> out;
  // A directive comment IS a directive: only whitespace may precede the
  // "duti-lint:" marker. Comments that merely mention the grammar (docs,
  // this file) are not directives.
  const std::size_t at = comment.find("duti-lint:");
  if (at == std::string::npos || skip_spaces(comment, 0) != at) return out;
  {
    std::size_t p = skip_spaces(comment, at + 10);
    SuppressionDirective s;
    s.line = line;
    s.own_line = own_line;
    if (comment.compare(p, 10, "allow-file") == 0) {
      s.file_scope = true;
      p += 10;
    } else if (comment.compare(p, 5, "allow") == 0) {
      p += 5;
    } else {
      return out;  // "duti-lint:" with no allow verb: not a directive
    }
    p = skip_spaces(comment, p);
    if (p < comment.size() && comment[p] == '(') {
      const std::size_t close = comment.find(')', p);
      if (close != std::string::npos) {
        std::string name;
        for (std::size_t k = p + 1; k <= close; ++k) {
          const char c = comment[k];
          if (c == ',' || c == ')') {
            if (!name.empty()) s.rules.push_back(name);
            name.clear();
          } else if (!is_space(c)) {
            name += c;
          }
        }
        p = close + 1;
      }
    }
    // Justification: non-empty text after "--".
    const std::size_t dash = comment.find("--", p);
    if (dash != std::string::npos) {
      std::string why = comment.substr(dash + 2);
      why.erase(0, why.find_first_not_of(" \t"));
      s.justified = !why.empty();
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

const char* kThreadPoolDir = "src/util/thread_pool";

std::vector<Rule> build_rules() {
  return {
      // Determinism: every random draw must flow from an explicit seed.
      {"no-random-device",
       "std::random_device is nondeterministic; derive seeds with "
       "duti::derive_seed from an explicit root seed",
       {"src/", "tests/", "bench/", "tools/"}, {}, false},
      {"no-rand",
       "std::rand/srand use hidden global state; use duti::Xoshiro256pp",
       {"src/", "tests/", "bench/", "tools/"}, {}, false},
      {"no-wall-clock",
       "wall-clock reads (time(), *_clock::now()) break bit-identical "
       "replay; results must depend only on seeds",
       {"src/", "bench/"}, {}, false},
      {"no-default-mt19937",
       "default-constructed std::mt19937 has a fixed but implementation-"
       "defined seed; construct generators from an explicit seed",
       {"src/", "tests/", "bench/", "tools/"}, {}, false},
      {"no-raw-thread",
       "raw std::thread/std::async/OpenMP bypass the deterministic "
       "ThreadPool; use duti::ThreadPool / parallel_for",
       {"src/"}, {kThreadPoolDir}, false},
      {"no-getenv-in-library",
       "library code must not read the environment: an env-configured "
       "global leaks between runs; the one exception is the pool's "
       "DUTI_THREADS, and benches pass everything else in explicitly",
       {"src/"}, {kThreadPoolDir}, false},
      // Reduction discipline (the ProbeResult integer-tally contract).
      {"no-unordered-iteration",
       "iteration order over unordered containers varies across runs and "
       "libraries; reductions must iterate deterministic containers",
       {"src/stats/"}, {}, false},
      {"no-float-accumulate",
       "floating-point += accumulation is order-sensitive; tallies in "
       "reduction paths must stay integral (ProbeResult design)",
       {"src/stats/"}, {}, false},
      // Hygiene.
      {"pragma-once",
       "every header must start with #pragma once",
       {"src/", "tests/", "bench/", "tools/"}, {}, true},
      {"no-using-namespace-header",
       "using namespace in a header leaks into every includer",
       {"src/", "tests/", "bench/", "tools/"}, {}, true},
      {"no-side-effect-assert",
       "assert() with side effects changes behavior under NDEBUG",
       {"src/", "tests/", "bench/", "tools/"}, {}, false},
      {"no-exit-in-library",
       "library code must not call exit/abort/terminate: it kills the "
       "embedding process (and every in-flight cache write); throw a duti "
       "error and let the binary's edge decide",
       {"src/"}, {"src/util/error.hpp"}, false},
      {"no-intrinsics-outside-kernels",
       "no raw SIMD intrinsics or ISA headers anywhere: every computation "
       "has one portable implementation (DESIGN.md section 11), so no "
       "output can depend on the host's instruction set",
       {"src/", "tests/", "bench/"}, {}, false},
      // Protocol-plane discipline (DESIGN.md section 14): trial loops in
      // the sim layer run through reusable flat buffers; per-iteration
      // heap construction is what the batched executor exists to remove.
      {"no-per-trial-alloc",
       "heap allocation (new/make_unique/make_shared) inside a loop in "
       "the sim layer churns the allocator once per trial; reuse flat "
       "per-worker buffers (sim/protocol_batch.hpp) or hoist the "
       "construction out of the loop",
       {"src/sim/"}, {}, false},
      // Sweep discipline: benches that q*-sweep an axis should go through
      // the sweep engine (warm starts, shared cache, point parallelism)
      // instead of a serial loop of cold find_min_param calls.
      {"no-serial-sweep-loop",
       "bench calls find_min_param directly without using run_sweep; "
       "axis sweeps should build SweepPoints and call duti::run_sweep "
       "(src/stats/sweep.hpp) for warm starts and the shared probe cache",
       {"bench/"}, {}, false},
      // Meta rules, emitted by the suppression parser itself.
      {"bare-suppression",
       "duti-lint suppressions must carry '-- <justification>' text",
       {}, {}, false},
      {"unknown-rule",
       "suppression names a rule that is not in the registry",
       {}, {}, false},
      {"stale-suppression",
       "justified suppression whose rule produces no finding on its "
       "line/file; delete it so exemptions track reality",
       {}, {}, false},
  };
}

bool is_header_path(const std::string& path) {
  return path.size() >= 2 &&
         (path.rfind(".hpp") == path.size() - 4 ||
          path.rfind(".h") == path.size() - 2);
}

bool rule_applies(const Rule& rule, const std::string& path, bool header) {
  if (rule.headers_only && !header) return false;
  for (const auto& ex : rule.exclude)
    if (path.rfind(ex, 0) == 0) return false;
  if (rule.include.empty()) return true;
  for (const auto& in : rule.include)
    if (path.rfind(in, 0) == 0) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Checks. Each appends raw findings (pre-suppression) for one file.
// ---------------------------------------------------------------------------

using RawFindings = std::vector<Finding>;

void add(RawFindings& out, const std::string& file, int line,
         const std::string& rule, const std::string& message) {
  out.push_back({file, line, rule, message});
}

void check_random_device(const std::string& file,
                         const std::vector<LexedLine>& lines, RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (has_word(lines[i].code, "random_device"))
      add(out, file, static_cast<int>(i + 1), "no-random-device",
          "std::random_device is nondeterministic; seed explicitly via "
          "duti::derive_seed");
  }
}

void check_rand(const std::string& file, const std::vector<LexedLine>& lines,
                RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (word_followed_by(code, "rand", '(') ||
        word_followed_by(code, "srand", '(') || has_word(code, "std::rand"))
      add(out, file, static_cast<int>(i + 1), "no-rand",
          "std::rand/srand use hidden global state; use duti::Xoshiro256pp");
  }
}

void check_wall_clock(const std::string& file, const std::vector<LexedLine>& lines,
                      RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    bool hit = false;
    // Any qualified static now() call: std::chrono::*_clock::now(), or an
    // alias like Clock::now().
    for (std::size_t at : word_positions(code, "now")) {
      if (at >= 2 && code[at - 1] == ':' && code[at - 2] == ':') hit = true;
    }
    if (word_followed_by(code, "time", '(') ||
        word_followed_by(code, "clock", '(') ||
        has_word(code, "gettimeofday") || has_word(code, "clock_gettime"))
      hit = true;
    if (hit)
      add(out, file, static_cast<int>(i + 1), "no-wall-clock",
          "wall-clock read; probe results must be a pure function of seeds");
  }
}

void check_default_mt19937(const std::string& file,
                           const std::vector<LexedLine>& lines, RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    for (const char* word : {"mt19937", "mt19937_64"}) {
      for (std::size_t at : word_positions(code, word)) {
        std::size_t p = skip_spaces(code, at + std::string(word).size());
        // Skip over a declared identifier, if any.
        std::size_t q = p;
        while (q < code.size() && is_ident(code[q])) ++q;
        q = skip_spaces(code, q);
        bool flagged = false;
        if (q < code.size() && code[q] == ';' && q > p) {
          flagged = true;  // "mt19937 gen;"
        } else if (q < code.size() && (code[q] == '(' || code[q] == '{')) {
          const char close = code[q] == '(' ? ')' : '}';
          if (skip_spaces(code, q + 1) < code.size() &&
              code[skip_spaces(code, q + 1)] == close)
            flagged = true;  // "mt19937 gen{};" or "mt19937()"
        }
        if (flagged) {
          add(out, file, static_cast<int>(i + 1), "no-default-mt19937",
              "default-constructed std::mt19937; pass an explicit seed "
              "derived from the experiment root seed");
          break;
        }
      }
    }
  }
}

void check_raw_thread(const std::string& file, const std::vector<LexedLine>& lines,
                      RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    bool hit = false;
    std::size_t at = 0;
    while ((at = code.find("std::thread", at)) != std::string::npos) {
      const std::size_t end = at + 11;
      // std::thread::hardware_concurrency() and friends are fine; spawning
      // is what bypasses the deterministic pool.
      if (end >= code.size() || (!is_ident(code[end]) && code[end] != ':'))
        hit = true;
      at = end;
    }
    if (has_word(code, "jthread") || has_word(code, "std::async")) hit = true;
    const std::size_t first = skip_spaces(code, 0);
    if (first < code.size() && code[first] == '#' &&
        has_word(code, "pragma") && has_word(code, "omp"))
      hit = true;
    if (hit)
      add(out, file, static_cast<int>(i + 1), "no-raw-thread",
          "raw threading primitive; route parallelism through "
          "duti::ThreadPool so DUTI_THREADS stays deterministic");
  }
}

void check_getenv(const std::string& file, const std::vector<LexedLine>& lines,
                  RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (has_word(code, "getenv") || has_word(code, "secure_getenv"))
      add(out, file, static_cast<int>(i + 1), "no-getenv-in-library",
          "environment read in library code; take the setting as a "
          "parameter and let the binary read the environment");
  }
}

/// Identifiers declared on a line with any of `type_words` (crude but
/// sufficient: the declarations we care about are single-line). Skips
/// function declarations (identifier directly followed by '(').
void collect_declared(const std::string& code,
                      const std::vector<std::string>& type_words,
                      std::set<std::string>& idents) {
  for (const auto& type : type_words) {
    for (std::size_t at : word_positions(code, type)) {
      std::size_t p = at + type.size();
      // For template types, jump past the angle-bracket argument list.
      if (skip_spaces(code, p) < code.size() &&
          code[skip_spaces(code, p)] == '<') {
        int depth = 0;
        p = skip_spaces(code, p);
        while (p < code.size()) {
          if (code[p] == '<') ++depth;
          if (code[p] == '>' && --depth == 0) {
            ++p;
            break;
          }
          ++p;
        }
      }
      p = skip_spaces(code, p);
      if (p < code.size() && code[p] == '&') p = skip_spaces(code, p + 1);
      std::string name;
      while (p < code.size() && is_ident(code[p])) name += code[p++];
      if (name.empty()) continue;
      const std::size_t after = skip_spaces(code, p);
      if (after < code.size() && code[after] == '(') continue;  // function
      idents.insert(name);
    }
  }
}

void check_unordered_iteration(const std::string& file,
                               const std::vector<LexedLine>& lines,
                               RawFindings& out) {
  std::set<std::string> unordered;
  for (const auto& line : lines)
    collect_declared(line.code, {"unordered_map", "unordered_set"}, unordered);
  if (unordered.empty()) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    bool hit = false;
    // Range-for over a known-unordered identifier: "for (... : ident)".
    if (has_word(code, "for")) {
      const std::size_t colon = code.find(" : ");
      if (colon != std::string::npos) {
        std::size_t p = skip_spaces(code, colon + 3);
        std::string name;
        while (p < code.size() && is_ident(code[p])) name += code[p++];
        if (unordered.count(name)) hit = true;
      }
    }
    for (const auto& name : unordered) {
      for (std::size_t at : word_positions(code, name)) {
        const std::size_t after = at + name.size();
        if (code.compare(after, 7, ".begin(") == 0 ||
            code.compare(after, 8, ".cbegin(") == 0)
          hit = true;
      }
    }
    if (hit)
      add(out, file, static_cast<int>(i + 1), "no-unordered-iteration",
          "iteration over an unordered container in a reduction path; "
          "iteration order is not deterministic across runs");
  }
}

void check_float_accumulate(const std::string& file,
                            const std::vector<LexedLine>& lines, RawFindings& out) {
  std::set<std::string> floats;
  for (const auto& line : lines)
    collect_declared(line.code, {"double", "float"}, floats);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    bool hit = false;
    std::size_t at = 0;
    while ((at = code.find("+=", at)) != std::string::npos) {
      // LHS: the identifier ending just before "+=".
      std::size_t end = at;
      while (end > 0 && is_space(code[end - 1])) --end;
      std::size_t begin = end;
      while (begin > 0 && is_ident(code[begin - 1])) --begin;
      const std::string lhs = code.substr(begin, end - begin);
      if (floats.count(lhs)) hit = true;
      // RHS beginning with a floating literal (e.g. "x += 0.5").
      std::size_t r = skip_spaces(code, at + 2);
      std::size_t digits = r;
      while (digits < code.size() &&
             std::isdigit(static_cast<unsigned char>(code[digits])))
        ++digits;
      if (digits > r && digits < code.size() && code[digits] == '.') hit = true;
      at += 2;
    }
    if (hit)
      add(out, file, static_cast<int>(i + 1), "no-float-accumulate",
          "floating-point accumulation in a reduction path; keep tallies "
          "integral and convert once at the edge (ProbeResult design)");
  }
}

void check_pragma_once(const std::string& file, const std::vector<LexedLine>& lines,
                       RawFindings& out) {
  for (const auto& line : lines) {
    const std::size_t first = skip_spaces(line.code, 0);
    if (first < line.code.size() && line.code[first] == '#' &&
        has_word(line.code, "pragma") && has_word(line.code, "once"))
      return;
  }
  add(out, file, 1, "pragma-once", "header is missing #pragma once");
}

void check_using_namespace_header(const std::string& file,
                                  const std::vector<LexedLine>& lines,
                                  RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    for (std::size_t at : word_positions(code, "using")) {
      const std::size_t p = skip_spaces(code, at + 5);
      if (code.compare(p, 9, "namespace") == 0)
        add(out, file, static_cast<int>(i + 1), "no-using-namespace-header",
            "using namespace in a header leaks into every includer");
    }
  }
}

void check_side_effect_assert(const std::string& file,
                              const std::vector<LexedLine>& lines,
                              RawFindings& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    for (std::size_t at : word_positions(code, "assert")) {
      const std::size_t open = skip_spaces(code, at + 6);
      if (open >= code.size() || code[open] != '(') continue;
      // Scan the argument text (to the matching ')' if it closes on this
      // line, else to end of line) for mutation operators.
      int depth = 0;
      std::size_t end = open;
      for (; end < code.size(); ++end) {
        if (code[end] == '(') ++depth;
        if (code[end] == ')' && --depth == 0) break;
      }
      const std::string arg = code.substr(open, end - open);
      bool mutation = arg.find("++") != std::string::npos ||
                      arg.find("--") != std::string::npos;
      for (std::size_t k = 1; !mutation && k + 1 < arg.size(); ++k) {
        if (arg[k] != '=') continue;
        const char prev = arg[k - 1];
        if (arg[k + 1] != '=' && prev != '=' && prev != '!' && prev != '<' &&
            prev != '>')
          mutation = true;
      }
      if (mutation)
        add(out, file, static_cast<int>(i + 1), "no-side-effect-assert",
            "assert() argument mutates state; the mutation disappears "
            "under NDEBUG");
    }
  }
}

void check_exit_in_library(const std::string& file,
                           const std::vector<LexedLine>& lines, RawFindings& out) {
  // Word-boundary matching keeps identifiers like my_exit or set_terminate
  // clean; only a call-shaped use (name followed by '(') is process death.
  static const char* const kKillers[] = {"exit", "_Exit", "quick_exit",
                                         "abort", "terminate"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    for (const char* word : kKillers) {
      if (word_followed_by(code, word, '(')) {
        add(out, file, static_cast<int>(i + 1), "no-exit-in-library",
            std::string(word) +
                "() in library code kills the embedding process; throw a "
                "duti error and decide at the binary's edge");
        break;
      }
    }
  }
}

void check_intrinsics(const std::string& file, const std::vector<LexedLine>& lines,
                      RawFindings& out) {
  // x86 intrinsic headers, vector register types, and _mm*_ call prefixes.
  // Prefix matching (left boundary only) covers the suffixed families
  // (__m256d, _mm256_add_epi64, ...) without enumerating every intrinsic.
  static const char* const kHeaders[] = {"immintrin", "emmintrin",
                                         "xmmintrin", "pmmintrin",
                                         "smmintrin", "tmmintrin",
                                         "nmmintrin", "wmmintrin",
                                         "ammintrin", "zmmintrin"};
  static const char* const kPrefixes[] = {"__m128", "__m256", "__m512",
                                          "_mm_", "_mm256_", "_mm512_"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    bool hit = false;
    for (const char* word : kHeaders)
      if (has_word(code, word)) hit = true;
    for (const char* prefix : kPrefixes) {
      const std::string p(prefix);
      std::size_t at = 0;
      while (!hit && (at = code.find(p, at)) != std::string::npos) {
        if (at == 0 || !is_ident(code[at - 1])) hit = true;
        at += p.size();
      }
    }
    if (hit)
      add(out, file, static_cast<int>(i + 1), "no-intrinsics-outside-kernels",
          "raw SIMD intrinsics; write the portable loop, the one "
          "implementation of each computation (DESIGN.md section 11)");
  }
}

void check_per_trial_alloc(const std::string& file,
                           const std::vector<LexedLine>& lines,
                           RawFindings& out) {
  // Lexical loop tracking: brace-depth bookkeeping plus a small state
  // machine for for/while headers, covering braced bodies and unbraced
  // single-statement bodies. Strings and comments are already blanked by
  // the lexer, so every brace/paren seen here is structural.
  int depth = 0;                 // current brace depth
  std::vector<int> loop_depths;  // depth at which each braced loop body opened
  bool in_header = false;        // inside a for/while (...) header
  int header_parens = 0;
  bool armed = false;            // header closed; body token not yet seen
  bool unbraced = false;         // inside a single-statement loop body
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    for (std::size_t p = 0; p < code.size(); ++p) {
      const char c = code[p];
      if (in_header) {
        if (c == '(') ++header_parens;
        if (c == ')' && --header_parens == 0) {
          in_header = false;
          armed = true;
        }
        continue;
      }
      if (armed && !is_space(c)) {
        armed = false;
        if (c == '{') {
          loop_depths.push_back(depth);
          ++depth;
          continue;
        }
        unbraced = true;  // single-statement body: runs to the next ';'
      }
      if (c == '{') {
        ++depth;
        continue;
      }
      if (c == '}') {
        --depth;
        if (!loop_depths.empty() && loop_depths.back() == depth)
          loop_depths.pop_back();
        continue;
      }
      if (c == ';') {
        unbraced = false;  // ends every nested single-statement body
        continue;
      }
      if (!is_ident(c) || (p > 0 && is_ident(code[p - 1]))) continue;
      auto word_is = [&](const char* w, std::size_t len) {
        return code.compare(p, len, w) == 0 &&
               (p + len >= code.size() || !is_ident(code[p + len]));
      };
      if (word_is("for", 3) || word_is("while", 5)) {
        const std::size_t len = c == 'f' ? 3 : 5;
        const std::size_t after = skip_spaces(code, p + len);
        if (after < code.size() && code[after] == '(') {
          in_header = true;
          header_parens = 1;
          p = after;
        } else {
          p += len - 1;
        }
        continue;
      }
      const bool in_loop = !loop_depths.empty() || unbraced;
      if (in_loop && (word_is("new", 3) || word_is("make_unique", 11) ||
                      word_is("make_shared", 11))) {
        add(out, file, static_cast<int>(i + 1), "no-per-trial-alloc",
            "heap allocation inside a loop on a sim hot path; reuse flat "
            "per-worker buffers (sim/protocol_batch.hpp) or hoist the "
            "construction out of the trial loop");
        // One finding per line is enough; skip the rest of the line.
        p = code.size();
      }
    }
  }
}

void check_serial_sweep_loop(const std::string& file,
                             const std::vector<LexedLine>& lines,
                             RawFindings& out) {
  // A file that calls run_sweep anywhere has adopted the engine; auxiliary
  // find_min_param calls beside it (calibration, one-off searches) are fine.
  for (const auto& line : lines)
    if (has_word(line.code, "run_sweep")) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (word_followed_by(lines[i].code, "find_min_param", '('))
      add(out, file, static_cast<int>(i + 1), "no-serial-sweep-loop",
          "direct find_min_param call in a bench that never calls "
          "run_sweep; sweep the axis through duti::run_sweep to get warm "
          "starts, the shared probe cache, and point-level parallelism");
  }
}

}  // namespace

const std::vector<Rule>& default_rules() {
  static const std::vector<Rule> rules = build_rules();
  return rules;
}

const std::vector<std::string>& foreign_rule_names() {
  // Owned by tools/duti_analyze. unknown-rule accepts them; the stale check
  // skips them (their findings live in the analyzer's report, not here).
  static const std::vector<std::string> names = {
      "layer-violation",          "layer-cycle",
      "layer-unknown-module",     "rng-by-value",
      "rng-copy",                 "rng-captured-in-parallel",
      "pure-wall-clock",          "pure-locale",
      "pure-unordered-iteration", "pure-float-reduce"};
  return names;
}

LintReport make_report() {
  LintReport report;
  for (const auto& rule : default_rules()) report.rule_counts[rule.name] = 0;
  return report;
}

void lint_source(const std::string& rel_path, const std::string& content,
                 LintReport& report) {
  if (report.rule_counts.empty()) report.rule_counts = make_report().rule_counts;
  const std::vector<LexedLine> lines = lex_lines(content);
  const bool header = is_header_path(rel_path);
  ++report.files_scanned;

  RawFindings raw;
  const auto& rules = default_rules();
  auto enabled = [&](const char* name) {
    for (const auto& r : rules)
      if (r.name == name) return rule_applies(r, rel_path, header);
    return false;
  };
  if (enabled("no-random-device")) check_random_device(rel_path, lines, raw);
  if (enabled("no-rand")) check_rand(rel_path, lines, raw);
  if (enabled("no-wall-clock")) check_wall_clock(rel_path, lines, raw);
  if (enabled("no-default-mt19937")) check_default_mt19937(rel_path, lines, raw);
  if (enabled("no-raw-thread")) check_raw_thread(rel_path, lines, raw);
  if (enabled("no-getenv-in-library")) check_getenv(rel_path, lines, raw);
  if (enabled("no-unordered-iteration"))
    check_unordered_iteration(rel_path, lines, raw);
  if (enabled("no-float-accumulate"))
    check_float_accumulate(rel_path, lines, raw);
  if (enabled("pragma-once")) check_pragma_once(rel_path, lines, raw);
  if (enabled("no-using-namespace-header"))
    check_using_namespace_header(rel_path, lines, raw);
  if (enabled("no-side-effect-assert"))
    check_side_effect_assert(rel_path, lines, raw);
  if (enabled("no-exit-in-library"))
    check_exit_in_library(rel_path, lines, raw);
  if (enabled("no-intrinsics-outside-kernels"))
    check_intrinsics(rel_path, lines, raw);
  if (enabled("no-per-trial-alloc"))
    check_per_trial_alloc(rel_path, lines, raw);
  if (enabled("no-serial-sweep-loop"))
    check_serial_sweep_loop(rel_path, lines, raw);

  // Collect suppressions; malformed ones are themselves findings. Each
  // well-formed, justified directive becomes an AllowEntry whose credit
  // count feeds the stale-suppression check below.
  struct AllowEntry {
    std::string rule;
    bool file_scope = false;
    int target = 0;  // line a line-scoped entry covers
    int at = 0;      // line the directive sits on (finding anchor)
    bool foreign = false;
    std::size_t used = 0;
  };
  std::vector<AllowEntry> allows;
  std::set<std::string> known, foreign;
  for (const auto& r : rules) known.insert(r.name);
  for (const auto& n : foreign_rule_names()) foreign.insert(n);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].comment.find("duti-lint") == std::string::npos) continue;
    const bool own_line = skip_spaces(lines[i].code, 0) >= lines[i].code.size();
    for (const auto& s : parse_suppressions(lines[i].comment,
                                            static_cast<int>(i + 1),
                                            own_line)) {
      if (!s.justified)
        add(raw, rel_path, s.line, "bare-suppression",
            "suppression without '-- <justification>' text");
      if (s.rules.empty())
        add(raw, rel_path, s.line, "unknown-rule",
            "suppression names no rule: expected allow(<rule>[, <rule>])");
      for (const auto& name : s.rules) {
        const bool is_foreign = foreign.count(name) > 0;
        if (!known.count(name) && !is_foreign) {
          add(raw, rel_path, s.line, "unknown-rule",
              "suppression names unknown rule '" + name + "'");
          continue;
        }
        if (!s.justified) continue;  // undocumented exemptions don't apply
        AllowEntry e;
        e.rule = name;
        e.file_scope = s.file_scope;
        e.at = s.line;
        e.foreign = is_foreign;
        if (!s.file_scope) {
          // A trailing comment covers its own line; a standalone comment
          // covers the next line that has code (so multi-line
          // justifications work).
          int target = s.line;
          if (s.own_line) {
            std::size_t j = static_cast<std::size_t>(s.line);
            while (j < lines.size() &&
                   skip_spaces(lines[j].code, 0) >= lines[j].code.size())
              ++j;
            target = static_cast<int>(j + 1);
          }
          e.target = target;
        }
        allows.push_back(std::move(e));
      }
    }
  }

  for (auto& f : raw) {
    // Meta findings from the suppression parser are never suppressible.
    const bool meta = f.rule == "bare-suppression" || f.rule == "unknown-rule";
    bool suppressed = false;
    if (!meta) {
      for (auto& e : allows) {
        if (e.foreign || e.rule != f.rule) continue;
        if (e.file_scope || e.target == f.line) {
          ++e.used;
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) {
      ++report.suppressions_used;
      continue;
    }
    ++report.rule_counts[f.rule];
    report.findings.push_back(std::move(f));
  }

  // A justified suppression that credited no finding is dead weight.
  // Foreign (analyzer-owned) rules are exempt: duti_analyze runs its own
  // symmetric stale check over the rules it owns.
  for (const auto& e : allows) {
    if (e.foreign || e.used > 0) continue;
    Finding f{rel_path, e.at, "stale-suppression",
              "suppression of '" + e.rule + "' matches no finding " +
                  (e.file_scope ? "in this file" : "on its line") +
                  "; remove it"};
    ++report.rule_counts[f.rule];
    report.findings.push_back(std::move(f));
  }
}

LintReport lint_tree(const std::string& root,
                     const std::vector<std::string>& rel_paths) {
  namespace fs = std::filesystem;
  LintReport report = make_report();
  std::vector<std::string> files;
  auto consider = [&](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc")
      files.push_back(fs::relative(p, root).generic_string());
  };
  for (const auto& rel : rel_paths) {
    const fs::path p = fs::path(root) / rel;
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p))
        if (e.is_regular_file()) consider(e.path());
    } else if (fs::is_regular_file(p)) {
      consider(p);
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    lint_source(rel, buf.str(), report);
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return report;
}

}  // namespace duti::lint
