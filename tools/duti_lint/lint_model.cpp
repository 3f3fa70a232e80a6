// Model layer for duti-lint's cross-TU passes: the layers.txt parser, module
// naming, the token stream, and the function-definition finder. The passes
// in lint_scan.cpp are built from these pieces.
#include "lint.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace duti::lint {

// ---------------------------------------------------------------------------
// layers.txt
// ---------------------------------------------------------------------------

bool parse_layer_policy(const std::string& text, LayerPolicy& policy,
                        std::string& error) {
  policy = LayerPolicy{};
  std::istringstream in(text);
  std::string line;
  std::set<std::string> seen;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::vector<std::string> w;
    std::string word;
    while (words >> word) w.push_back(word);
    if (w.empty()) continue;
    if (w[0] == "layer") {
      if (w.size() < 2) {
        error = "line " + std::to_string(lineno) + ": layer with no modules";
        return false;
      }
      std::vector<std::string> mods(w.begin() + 1, w.end());
      for (const auto& m : mods) {
        if (!seen.insert(m).second) {
          error = "line " + std::to_string(lineno) + ": duplicate module '" +
                  m + "'";
          return false;
        }
      }
      policy.layers.push_back(std::move(mods));
    } else if (w[0] == "allow") {
      if (w.size() != 3) {
        error = "line " + std::to_string(lineno) +
                ": allow expects exactly '<from> <to>'";
        return false;
      }
      policy.allowed_edges.emplace_back(w[1], w[2]);
    } else {
      error = "line " + std::to_string(lineno) + ": unknown directive '" +
              w[0] + "'";
      return false;
    }
  }
  if (policy.layers.empty()) {
    error = "policy declares no layers";
    return false;
  }
  // allow edges must reference placed modules, or the whitelist rots.
  for (const auto& [from, to] : policy.allowed_edges) {
    for (const auto& m : {from, to}) {
      if (!seen.count(m)) {
        error = "allow references unplaced module '" + m + "'";
        return false;
      }
    }
  }
  return true;
}

LayerPolicy load_layer_policy(const std::string& root) {
  const std::string file =
      (std::filesystem::path(root) / "tools/duti_lint/layers.txt")
          .generic_string();
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read layer policy '" + file + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  LayerPolicy policy;
  std::string error;
  if (!parse_layer_policy(buf.str(), policy, error))
    throw std::runtime_error("bad layer policy '" + file + "': " + error);
  return policy;
}

std::string module_of(const std::string& rel_path) {
  const std::size_t slash = rel_path.find('/');
  if (slash == std::string::npos) return "";
  std::string first = rel_path.substr(0, slash);
  if (first != "src") return first;
  const std::size_t slash2 = rel_path.find('/', slash + 1);
  if (slash2 == std::string::npos) return "";
  return rel_path.substr(slash + 1, slash2 - slash - 1);
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::vector<Token> tokenize(const std::vector<LexedLine>& lines) {
  std::vector<Token> out;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& s = lines[li].code;
    const int line = static_cast<int>(li + 1);
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (is_ident_start(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && is_ident_char(s[j])) ++j;
        out.push_back({s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        // pp-number: digits, idents, '.', and the digit separators the
        // lexer leaves intact (1'000'000). Exponent signs are split off —
        // none of the downstream rules care.
        std::size_t j = i + 1;
        while (j < s.size() &&
               (is_ident_char(s[j]) || s[j] == '.' || s[j] == '\''))
          ++j;
        out.push_back({s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (c == '"' || c == '\'') {
        // The lexer blanked literal contents, so literals appear as an
        // adjacent quote pair; emit it as one token.
        if (i + 1 < s.size() && s[i + 1] == c) {
          out.push_back({std::string(2, c), line});
          i += 2;
          continue;
        }
        out.push_back({std::string(1, c), line});
        ++i;
        continue;
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        out.push_back({"::", line});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        out.push_back({"->", line});
        i += 2;
        continue;
      }
      out.push_back({std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Function definitions
// ---------------------------------------------------------------------------

namespace {

/// Keywords that read as `name(...)` but never name a definition.
bool is_nondef_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "if",            "for",        "while",      "switch",
      "return",        "sizeof",     "catch",      "new",
      "delete",        "assert",     "static_assert", "decltype",
      "alignof",       "alignas",    "defined",    "noexcept",
      "throw",         "case",       "constexpr",  "requires",
      "static_cast",   "dynamic_cast", "const_cast", "reinterpret_cast",
      "typeid",        "using",      "operator"};
  return kw.count(t) > 0;
}

/// Index one past the group closer matching the opener at `at` (tokens[at]
/// must be `open`). Returns tokens.size() when unbalanced.
std::size_t skip_group(const std::vector<Token>& tokens, std::size_t at,
                       const char* open, const char* close) {
  int depth = 0;
  for (std::size_t i = at; i < tokens.size(); ++i) {
    if (tokens[i].text == open) ++depth;
    if (tokens[i].text == close && --depth == 0) return i + 1;
  }
  return tokens.size();
}

}  // namespace

std::vector<FunctionDef> find_functions(const std::vector<Token>& tokens) {
  std::vector<FunctionDef> out;
  const std::size_t n = tokens.size();
  std::size_t i = 0;
  while (i + 1 < n) {
    const Token& t = tokens[i];
    if (!is_ident_start(t.text[0]) || is_nondef_keyword(t.text) ||
        tokens[i + 1].text != "(") {
      ++i;
      continue;
    }
    const std::size_t params_begin = i + 1;
    const std::size_t params_end = skip_group(tokens, params_begin, "(", ")");
    if (params_end >= n) break;

    // Trailer scan: const / noexcept(...) / override / -> Type / ctor init
    // list, ending at '{' (definition) or a terminator (not a definition).
    std::size_t j = params_end;
    bool init_list = false, trailing = false;
    bool is_def = false;
    while (j < n) {
      const std::string& w = tokens[j].text;
      // A call-shaped name before any init list or trailing return means
      // the candidate sat inside a return type, as `uint32_t(` does in
      // `std::function<uint32_t(uint64_t)> f(`; the name comes later.
      if (!init_list && !trailing && is_ident_start(w[0]) && j + 1 < n &&
          tokens[j + 1].text == "(" && w != "noexcept" && w != "throw")
        break;
      if (w == "->" || w == "requires") trailing = true;
      if (w == "{") {
        // In a ctor init list, a brace directly after an identifier is a
        // member brace-init group, not the body.
        if (init_list && j > 0 && is_ident_start(tokens[j - 1].text[0])) {
          j = skip_group(tokens, j, "{", "}");
          continue;
        }
        is_def = true;
        break;
      }
      if (w == ";") break;
      // Commas separate ctor initializers; elsewhere they end a candidate.
      if (!init_list && (w == "," || w == "=" || w == ")" || w == "}")) break;
      if (w == "(") {
        j = skip_group(tokens, j, "(", ")");  // noexcept(...), init-list arg
        continue;
      }
      if (w == ":") init_list = true;
      ++j;
    }
    if (!is_def) {
      // Not a definition; resume after the name so nested call arguments
      // are still visited.
      ++i;
      continue;
    }
    FunctionDef def;
    def.name = t.text;
    def.line = t.line;
    def.params_begin = params_begin;
    def.params_end = params_end;
    def.body_begin = j;
    def.body_end = skip_group(tokens, j, "{", "}");
    out.push_back(def);
    i = def.body_end;  // nested lambdas stay inside this body
  }
  return out;
}

}  // namespace duti::lint
