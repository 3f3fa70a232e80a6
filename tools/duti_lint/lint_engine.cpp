// Rule engine for duti-lint: the lexer, the suppression grammar, the
// per-file checks and the one rule registry. Pure standard library: a light
// lexical pass (comments and literal contents removed, line structure
// preserved) feeds line-oriented pattern checks. This is deliberately not a
// C++ parser — every per-file rule is chosen so that lexical evidence is
// enough; the cross-TU passes (lint_scan.cpp) build a token stream and a
// function table on the same pass, and anything deeper belongs in clang-tidy
// (see .clang-tidy, wired into the lint lane).
#include "lint.hpp"

#include <cctype>
#include <set>

namespace duti::lint {
namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// True when the quote at `i` is a digit separator (1'000'000): the run of
/// identifier characters, separators and dots right before it starts with a
/// digit. After `case ` or `u8` a quote opens a character literal.
bool is_digit_separator(const std::string& src, std::size_t i) {
  std::size_t k = i;
  while (k > 0 && (is_ident(src[k - 1]) || src[k - 1] == '\'' ||
                   src[k - 1] == '.'))
    --k;
  return k < i && std::isdigit(static_cast<unsigned char>(src[k])) != 0;
}

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
        } else if (c == '\'' && !is_digit_separator(src, i)) {
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
// Suppressions
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
      add(out, file, static_cast<int>(i + 1), "no-getenv",
          "environment read; take the setting as a command-line flag or "
          "a parameter");
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
          "starts and point-level parallelism");
  }
}


// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

const char* kThreadPoolDir = "src/util/thread_pool";
const char* kBenchJson = "bench/bench_json";

std::vector<Rule> build_rules() {
  const std::vector<std::string> kAllDirs = {"src/", "tests/", "bench/",
                                             "tools/"};
  return {
      // Determinism: every random draw must flow from an explicit seed.
      {"no-random-device",
       "std::random_device is nondeterministic; derive seeds with "
       "duti::derive_seed from an explicit root seed",
       kAllDirs, {}, false, check_random_device},
      {"no-rand",
       "std::rand/srand use hidden global state; use duti::Xoshiro256pp",
       kAllDirs, {}, false, check_rand},
      {"no-wall-clock",
       "wall-clock reads (time(), *_clock::now()) break bit-identical "
       "replay; results must depend only on seeds",
       {"src/", "bench/"}, {}, false, check_wall_clock},
      {"no-default-mt19937",
       "default-constructed std::mt19937 has a fixed but implementation-"
       "defined seed; construct generators from an explicit seed",
       kAllDirs, {}, false, check_default_mt19937},
      {"no-raw-thread",
       "raw std::thread/std::async/OpenMP bypass the deterministic "
       "ThreadPool; use duti::ThreadPool / parallel_for",
       {"src/"}, {kThreadPoolDir}, false, check_raw_thread},
      {"no-getenv",
       "the library and the binaries must not read the environment: an "
       "env-configured global leaks between runs, and a table stops being "
       "a function of its flags and seed; the exceptions are the pool's "
       "DUTI_THREADS and the benches' output directory DUTI_BENCH_OUT",
       {"src/", "bench/", "examples/"}, {kThreadPoolDir, kBenchJson}, false,
       check_getenv},
      // Reduction discipline (the ProbeResult integer-tally contract).
      {"no-unordered-iteration",
       "iteration order over unordered containers varies across runs and "
       "libraries; reductions must iterate deterministic containers",
       {"src/stats/"}, {}, false, check_unordered_iteration},
      {"no-float-accumulate",
       "floating-point += accumulation is order-sensitive; tallies in "
       "reduction paths must stay integral (ProbeResult design)",
       {"src/stats/"}, {}, false, check_float_accumulate},
      // Hygiene.
      {"pragma-once",
       "every header must start with #pragma once",
       kAllDirs, {}, true, check_pragma_once},
      {"no-using-namespace-header",
       "using namespace in a header leaks into every includer",
       kAllDirs, {}, true, check_using_namespace_header},
      {"no-side-effect-assert",
       "assert() with side effects changes behavior under NDEBUG",
       kAllDirs, {}, false, check_side_effect_assert},
      {"no-exit-in-library",
       "library code must not call exit/abort/terminate: it kills the "
       "embedding process (and every in-flight cache write); throw a duti "
       "error and let the binary's edge decide",
       {"src/"}, {"src/util/error.hpp"}, false, check_exit_in_library},
      {"no-intrinsics-outside-kernels",
       "no raw SIMD intrinsics or ISA headers anywhere: every computation "
       "has one portable implementation (DESIGN.md section 11), so no "
       "output can depend on the host's instruction set",
       {"src/", "tests/", "bench/"}, {}, false, check_intrinsics},
      // Protocol-plane discipline (DESIGN.md section 14): trial loops in
      // the sim layer run through reusable flat buffers; per-iteration
      // heap construction is what the batched executor exists to remove.
      {"no-per-trial-alloc",
       "heap allocation (new/make_unique/make_shared) inside a loop in "
       "the sim layer churns the allocator once per trial; reuse flat "
       "per-worker buffers (sim/protocol_batch.hpp) or hoist the "
       "construction out of the loop",
       {"src/sim/"}, {}, false, check_per_trial_alloc},
      // Sweep discipline: benches that q*-sweep an axis should go through
      // the sweep engine (warm starts, point parallelism)
      // instead of a serial loop of cold find_min_param calls.
      {"no-serial-sweep-loop",
       "bench calls find_min_param directly without using run_sweep; "
       "axis sweeps should build SweepPoints and call duti::run_sweep "
       "(src/stats/sweep.hpp) for warm starts and point parallelism",
       {"bench/"}, {}, false, check_serial_sweep_loop},
      // Cross-TU passes (lint_scan.cpp). Layering: the module include DAG
      // against layers.txt.
      {"layer-violation",
       "#include edge crosses into the same or a higher layer than the "
       "including module (layers.txt)"},
      {"layer-cycle",
       "the module include graph contains a cycle; the layering must be a "
       "DAG"},
      {"layer-unknown-module",
       "file belongs to a module that layers.txt does not place"},
      // Reach: every library header feeds a bench or an example.
      {"orphan-module",
       "src/ header that no bench/ or examples/ file reaches through "
       "includes (a reached header also reaches its same-stem .cpp); a "
       "module whose only consumer is its own test feeds no table"},
      {"orphan-function",
       "src/ function, declared in a src/ header, that no bench/, examples/ "
       "or perfbench/ code mentions directly or through other src/ "
       "definitions, and no test but its own module's: an entry point only "
       "its unit test reaches"},
      // RNG-stream dataflow, per function definition.
      {"rng-by-value",
       "function takes an RNG parameter by value; each copy replays the "
       "same stream — pass Rng& (or derive a sub-stream seed)"},
      {"rng-copy",
       "RNG object copied; the copy replays the original's stream — draw "
       "from the original or derive a fresh stream via derive_seed/make_rng"},
      {"rng-captured-in-parallel",
       "parallel_for lambda draws from an RNG captured from the enclosing "
       "scope; worker interleaving breaks bit-identical replay — derive a "
       "per-chunk stream (derive_seed + make_rng) inside the lambda"},
      // Determinism purity of everything a src/stats function can reach.
      {"pure-wall-clock",
       "wall-clock read reachable from a src/stats entry point; probe "
       "results must be a pure function of seeds"},
      {"pure-locale",
       "locale use reachable from a src/stats entry point; formatting and "
       "classification must not depend on the process environment"},
      {"pure-unordered-iteration",
       "unordered-container iteration reachable from a src/stats entry "
       "point; iteration order varies across runs and libraries"},
      {"pure-float-reduce",
       "floating-point accumulation reachable from a src/stats entry "
       "point; reductions must stay integral (ProbeResult design)"},
      // Meta rules, emitted by the suppression ledger itself.
      {"bare-suppression",
       "duti-lint suppressions must carry '-- <justification>' text"},
      {"unknown-rule",
       "suppression names a rule that is not in the registry"},
      {"stale-suppression",
       "justified suppression whose rule produces no finding on its "
       "line/file; delete it so exemptions track reality"},
  };
}

}  // namespace

const std::vector<Rule>& default_rules() {
  static const std::vector<Rule> rules = build_rules();
  return rules;
}

}  // namespace duti::lint
