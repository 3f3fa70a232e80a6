// One scan of the tree for duti-lint: a lexed model per file, the per-file
// rules of the registry, the cross-TU passes (include-DAG construction and
// layering enforcement, the orphan-module reach from bench/ and examples/,
// the orphan-function reach by name, the RNG-stream dataflow rules, the
// determinism-purity walk from src/stats entry points), the one suppression
// ledger that settles every finding, and the graph fingerprint.
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "util/fnv.hpp"

namespace duti::lint {
namespace {

// ---------------------------------------------------------------------------
// Per-file model
// ---------------------------------------------------------------------------

/// One scanned file, lexed once; every rule and pass reads this model.
struct FileModel {
  std::string path;
  std::string module;
  std::vector<std::string> raw_lines;  // include paths live in literals
  std::vector<LexedLine> lines;        // blanked code feeds everything else
  std::vector<Token> tokens;
  std::vector<FunctionDef> defs;
};

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

/// An in-tree #include edge, file-granular, with the directive's line.
struct IncludeEdge {
  std::size_t from = 0, to = 0;
  int line = 0;
};

/// Extract and resolve quoted includes. The LEXED line must be a '#'
/// directive — lines inside raw-string fixtures lex to blank code, so test
/// snippets never pollute the graph. The include path itself is read from
/// the RAW line (the lexer blanks string contents). Resolution: same
/// directory first, then a unique "/name" suffix match across the scanned
/// set; unresolved includes (system headers) are ignored.
std::vector<IncludeEdge> resolve_includes(const std::vector<FileModel>& files) {
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) by_path[files[i].path] = i;

  std::vector<IncludeEdge> edges;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileModel& f = files[fi];
    const std::string dir = f.path.find('/') == std::string::npos
                                ? ""
                                : f.path.substr(0, f.path.rfind('/') + 1);
    for (std::size_t li = 0; li < f.lines.size() && li < f.raw_lines.size();
         ++li) {
      const std::string& code = f.lines[li].code;
      std::size_t p = code.find_first_not_of(" \t");
      if (p == std::string::npos || code[p] != '#') continue;
      p = code.find_first_not_of(" \t", p + 1);
      if (p == std::string::npos || code.compare(p, 7, "include") != 0)
        continue;
      const std::string& raw = f.raw_lines[li];
      const std::size_t q1 = raw.find('"');
      if (q1 == std::string::npos) continue;  // <system> include
      const std::size_t q2 = raw.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string inc = raw.substr(q1 + 1, q2 - q1 - 1);
      if (inc.empty()) continue;

      std::size_t to = files.size();
      auto it = by_path.find(dir + inc);
      if (it != by_path.end()) {
        to = it->second;
      } else {
        std::size_t hits = 0;
        for (std::size_t j = 0; j < files.size(); ++j) {
          const std::string& cand = files[j].path;
          if (cand == inc ||
              (cand.size() > inc.size() + 1 &&
               cand.compare(cand.size() - inc.size() - 1, inc.size() + 1,
                            "/" + inc) == 0)) {
            to = j;
            ++hits;
          }
        }
        if (hits != 1) continue;  // unresolved or ambiguous: not ours
      }
      edges.push_back({fi, to, static_cast<int>(li + 1)});
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

/// module -> layer index, from the policy.
std::map<std::string, std::size_t> layer_index(const LayerPolicy& policy) {
  std::map<std::string, std::size_t> at;
  for (std::size_t l = 0; l < policy.layers.size(); ++l)
    for (const auto& m : policy.layers[l]) at[m] = l;
  return at;
}

bool edge_allowed(const LayerPolicy& policy, const std::string& from,
                  const std::string& to) {
  for (const auto& [a, b] : policy.allowed_edges)
    if (a == from && b == to) return true;
  return false;
}

// ---------------------------------------------------------------------------
// RNG dataflow
// ---------------------------------------------------------------------------

bool is_rng_type(const std::string& t) {
  return t == "Rng" || t == "Xoshiro256pp" || t == "mt19937" ||
         t == "mt19937_64";
}

/// RNG-typed names visible in a def: reference/value parameters plus locals
/// declared (or make_rng-initialized) in the body.
std::set<std::string> rng_names_in_def(const std::vector<Token>& toks,
                                       const FunctionDef& def) {
  std::set<std::string> names;
  for (std::size_t i = def.params_begin; i + 1 < def.params_end; ++i) {
    if (!is_rng_type(toks[i].text)) continue;
    std::size_t j = i + 1;
    while (j < def.params_end &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const"))
      ++j;
    if (j < def.params_end && std::isalpha(static_cast<unsigned char>(
                                  toks[j].text[0])) != 0)
      names.insert(toks[j].text);
  }
  for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
    const std::string& t = toks[i].text;
    if (is_rng_type(t)) {
      // "Rng name" declares; "Rng&/Rng*" may alias — track the name too.
      std::size_t j = i + 1;
      while (j < def.body_end && (toks[j].text == "&" || toks[j].text == "*"))
        ++j;
      if (j < def.body_end &&
          std::isalpha(static_cast<unsigned char>(toks[j].text[0])) != 0 &&
          !is_rng_type(toks[j].text))
        names.insert(toks[j].text);
    } else if (t == "auto" && i + 2 < def.body_end) {
      // "auto g = make_rng(...)" and "auto g = <rng>;" both yield streams.
      std::size_t j = i + 1;
      while (j < def.body_end && (toks[j].text == "&" || toks[j].text == "*"))
        ++j;
      if (j + 2 < def.body_end && toks[j + 1].text == "=" &&
          (toks[j + 2].text == "make_rng" || names.count(toks[j + 2].text)))
        names.insert(toks[j].text);
    }
  }
  return names;
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

bool is_blank(const std::string& code) {
  return std::all_of(code.begin(), code.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

// ---------------------------------------------------------------------------
// Cross-TU passes
// ---------------------------------------------------------------------------

/// Layering, orphan modules, the call graph, orphan functions, RNG dataflow
/// and purity over the path-sorted models (`consumer_names`: every name
/// perfbench/ mentions): appends raw (pre-suppression) findings and fills
/// the report's graph metrics.
void check_cross_tu(const std::vector<FileModel>& files,
                    const std::set<std::string>& consumer_names,
                    const LayerPolicy& policy, std::vector<Finding>& raw,
                    LintReport& report) {
  auto add = [&raw](const std::string& file, int line, const std::string& rule,
                    const std::string& message, const std::string& path = "") {
    raw.push_back({file, line, rule, message, path});
  };
  const auto under = [&files](std::size_t fi, const char* dir) {
    return files[fi].path.rfind(dir, 0) == 0;
  };
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) by_path[files[i].path] = i;

  // --- Layering ------------------------------------------------------------
  const std::vector<IncludeEdge> includes = resolve_includes(files);
  report.include_directives = includes.size();

  const auto layer_of = layer_index(policy);
  {
    std::set<std::string> mods;
    for (const auto& f : files)
      if (!f.module.empty()) mods.insert(f.module);
    report.modules.assign(mods.begin(), mods.end());

    std::set<std::string> unknown_flagged;
    for (const auto& f : files) {
      if (f.module.empty() || layer_of.count(f.module)) continue;
      if (!unknown_flagged.insert(f.module).second) continue;
      add(f.path, 0, "layer-unknown-module",
          "module '" + f.module + "' is not placed by layers.txt; add it "
          "to a layer before it grows includes");
    }

    // Module-level edges, deduplicated, with the first include site as the
    // finding anchor (files are path-sorted, so "first" is deterministic).
    std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>
        edge_site;
    for (const auto& e : includes) {
      const std::string& from = files[e.from].module;
      const std::string& to = files[e.to].module;
      if (from.empty() || to.empty() || from == to) continue;
      edge_site.emplace(std::make_pair(from, to),
                        std::make_pair(files[e.from].path, e.line));
    }
    for (const auto& [edge, site] : edge_site)
      report.module_edges.push_back(edge);

    for (const auto& [edge, site] : edge_site) {
      const auto& [from, to] = edge;
      auto fi = layer_of.find(from), ti = layer_of.find(to);
      if (fi == layer_of.end() || ti == layer_of.end()) continue;
      if (ti->second < fi->second || edge_allowed(policy, from, to)) continue;
      add(site.first, site.second, "layer-violation",
          "include edge " + from + " -> " + to + " is illegal: '" + to +
              "' (layer " + std::to_string(ti->second) +
              ") is not below '" + from + "' (layer " +
              std::to_string(fi->second) +
              ") and layers.txt has no allow entry");
    }

    // Cycle detection over the observed module graph (any edge, legal or
    // not): the layering argument is only sound on a DAG.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [edge, site] : edge_site)
      adj[edge.first].push_back(edge.second);
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    auto dfs = [&](auto&& self, const std::string& u) -> void {
      color[u] = 1;
      stack.push_back(u);
      for (const auto& v : adj[u]) {
        if (color[v] == 1) {
          std::string cyc = v;
          for (std::size_t k = stack.size(); k-- > 0;) {
            cyc += " -> " + stack[k];
            if (stack[k] == v) break;
          }
          const auto& site = edge_site.at({u, v});
          add(site.first, site.second, "layer-cycle",
              "module include cycle: " + cyc);
        } else if (color[v] == 0) {
          self(self, v);
        }
      }
      stack.pop_back();
      color[u] = 2;
    };
    for (const auto& [m, _] : adj)
      if (color[m] == 0) dfs(dfs, m);
  }

  // --- Orphan modules ------------------------------------------------------
  // Every src/ header must be reached through includes from a bench/ or
  // examples/ file: a module whose only consumer is its own test feeds no
  // table. A reached header also reaches its same-stem .cpp, whose includes
  // count too (chaos/shrink.hpp is included only by chaos/engine.cpp).
  // A scan with no bench/ or examples/ file (`duti_lint src`, the fixtures)
  // has no roots, and the pass stays silent.
  {
    std::vector<std::vector<std::size_t>> out(files.size());
    for (const auto& e : includes) out[e.from].push_back(e.to);
    for (std::size_t i = 0; i < files.size(); ++i) {
      const std::string& p = files[i].path;
      if (!is_header_path(p)) continue;
      auto it = by_path.find(p.substr(0, p.rfind('.')) + ".cpp");
      if (it != by_path.end()) out[i].push_back(it->second);
    }
    std::vector<bool> reached(files.size(), false);
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < files.size(); ++i)
      if (under(i, "bench/") || under(i, "examples/")) todo.push_back(i);
    const bool has_roots = !todo.empty();
    while (!todo.empty()) {
      const std::size_t u = todo.back();
      todo.pop_back();
      if (reached[u]) continue;
      reached[u] = true;
      todo.insert(todo.end(), out[u].begin(), out[u].end());
    }
    for (std::size_t i = 0; i < files.size(); ++i)
      if (has_roots && !reached[i] && under(i, "src/") &&
          is_header_path(files[i].path))
        add(files[i].path, 0, "orphan-module",
            "no bench/ or examples/ file reaches this header through "
            "includes; give the module a table or delete it");
  }

  // --- Symbol table & call graph -------------------------------------------
  struct DefRef {
    std::size_t file = 0, def = 0;
  };
  std::vector<DefRef> all_defs;
  std::map<std::string, std::vector<std::size_t>> by_name;  // -> all_defs idx
  for (std::size_t fi = 0; fi < files.size(); ++fi)
    for (std::size_t di = 0; di < files[fi].defs.size(); ++di) {
      by_name[files[fi].defs[di].name].push_back(all_defs.size());
      all_defs.push_back({fi, di});
    }
  report.functions = all_defs.size();

  // Call sites per def: (callee name, line). A name is a call when an
  // identifier is directly followed by '(' and is not a keyword-shaped
  // token the definition finder already excludes. A std::-qualified call
  // names the standard library, never a definition in the scan.
  std::vector<std::vector<std::pair<std::string, int>>> calls(all_defs.size());
  for (std::size_t d = 0; d < all_defs.size(); ++d) {
    const FileModel& f = files[all_defs[d].file];
    const FunctionDef& def = f.defs[all_defs[d].def];
    for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
      const std::string& t = f.tokens[i].text;
      if (f.tokens[i + 1].text != "(") continue;
      if (!(std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
            t[0] == '_'))
        continue;
      if (is_rng_type(t)) continue;  // constructions handled by rng rules
      if (i >= 2 && f.tokens[i - 1].text == "::" &&
          f.tokens[i - 2].text == "std")
        continue;
      calls[d].push_back({t, f.tokens[i].line});
    }
  }
  {
    std::set<std::pair<std::size_t, std::size_t>> resolved;
    for (std::size_t d = 0; d < all_defs.size(); ++d)
      for (const auto& [name, line] : calls[d]) {
        auto it = by_name.find(name);
        if (it == by_name.end()) continue;
        for (std::size_t callee : it->second)
          if (callee != d) resolved.insert({d, callee});
      }
    report.call_edges = resolved.size();
  }

  // --- Orphan functions -----------------------------------------------------
  // Every function defined under src/ and declared in a src/ header must be
  // used by code that is not only its own unit test. Mentions are the edges:
  // any identifier naming a definition reaches every src/ definition of that
  // name, so template calls and function pointers count as uses. A reached
  // definition passes on the names in its parameters and body, and, once,
  // those its file and same-stem partner mention outside any definition
  // (default arguments, static tables), minus their own declarations. The
  // first roots are every name in bench/, examples/ and perfbench/; a
  // function they miss is still used when another module's test reaches it
  // (its own tests are tests/test_<stem>.cpp and tests/test_<module>.cpp).
  // Like orphan-module, a scan with no bench/, examples/ or perfbench/ code
  // has no roots and skips the pass.
  {
    const auto is_ident = [](const std::string& t) {
      return std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_';
    };
    const auto stem_of = [](const std::string& path) {
      const std::size_t slash = path.rfind('/') + 1;
      return path.substr(slash, path.rfind('.') - slash);
    };

    // Names each file mentions outside its definitions: every name of a
    // bench/, examples/ or tests/ file; in src/, none that a declaration
    // introduces (`double f(`, `T* f(`, `std::vector<int> f(`).
    std::vector<std::set<std::string>> file_names(files.size());
    std::set<std::string> declared;  // src/ header names followed by '('
    std::vector<std::size_t> partner(files.size(), files.size());
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const FileModel& f = files[fi];
      const bool lib = under(fi, "src/");
      std::vector<char> in_def(f.tokens.size(), 0);
      if (lib)
        for (const auto& d : f.defs)
          std::fill(in_def.begin() + static_cast<std::ptrdiff_t>(
                                         d.params_begin - 1),
                    in_def.begin() + static_cast<std::ptrdiff_t>(d.body_end),
                    1);
      for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const std::string& t = f.tokens[i].text;
        if (!is_ident(t)) continue;
        const bool call =
            i + 1 < f.tokens.size() && f.tokens[i + 1].text == "(";
        if (lib && call && is_header_path(f.path)) declared.insert(t);
        if (in_def[i]) continue;
        if (lib && call && i >= 1) {
          const std::string& prev = f.tokens[i - 1].text;
          if (is_ident(prev) || prev == ">" || prev == "*" || prev == "&" ||
              prev == "~")
            continue;
        }
        file_names[fi].insert(t);
      }
      if (lib) {
        const std::string& p = f.path;
        const std::string base = p.substr(0, p.rfind('.'));
        for (const char* ext : {".hpp", ".cpp"}) {
          auto it = by_path.find(base + ext);
          if (it != by_path.end() && it->second != fi) partner[fi] = it->second;
        }
      }
    }
    std::vector<std::set<std::string>> def_names(all_defs.size());
    for (std::size_t d = 0; d < all_defs.size(); ++d) {
      const FileModel& f = files[all_defs[d].file];
      const FunctionDef& def = f.defs[all_defs[d].def];
      for (std::size_t i = def.params_begin; i < def.body_end; ++i)
        if (is_ident(f.tokens[i].text)) def_names[d].insert(f.tokens[i].text);
    }

    // The src/ definitions reached from the names of `roots`.
    const auto reach = [&](const std::vector<const std::set<std::string>*>&
                               roots) {
      std::vector<char> seen(all_defs.size(), 0), file_seen(files.size(), 0);
      std::vector<std::size_t> todo;
      const auto mention = [&](const std::set<std::string>& names) {
        for (const auto& n : names) {
          auto it = by_name.find(n);
          if (it == by_name.end()) continue;
          for (std::size_t d : it->second)
            if (!seen[d] && under(all_defs[d].file, "src/")) {
              seen[d] = 1;
              todo.push_back(d);
            }
        }
      };
      for (const auto* names : roots) mention(*names);
      while (!todo.empty()) {
        const std::size_t d = todo.back();
        todo.pop_back();
        mention(def_names[d]);
        for (std::size_t fi : {all_defs[d].file, partner[all_defs[d].file]})
          if (fi < files.size() && !file_seen[fi]) {
            file_seen[fi] = 1;
            mention(file_names[fi]);
          }
      }
      return seen;
    };

    std::vector<const std::set<std::string>*> product;
    if (!consumer_names.empty()) product.push_back(&consumer_names);
    for (std::size_t fi = 0; fi < files.size(); ++fi)
      if (under(fi, "bench/") || under(fi, "examples/"))
        product.push_back(&file_names[fi]);
    const std::vector<char> used = reach(product);

    // Unused candidates, grouped by the two test files that do not count.
    std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
        by_own_tests;
    for (std::size_t d = 0; !product.empty() && d < all_defs.size(); ++d) {
      const std::size_t fi = all_defs[d].file;
      if (used[d] || !under(fi, "src/") ||
          !declared.count(files[fi].defs[all_defs[d].def].name))
        continue;
      by_own_tests[{"tests/test_" + stem_of(files[fi].path) + ".cpp",
                    "tests/test_" + files[fi].module + ".cpp"}]
          .push_back(d);
    }
    for (const auto& [own, defs] : by_own_tests) {
      std::vector<const std::set<std::string>*> others;
      for (std::size_t fi = 0; fi < files.size(); ++fi)
        if (under(fi, "tests/") && files[fi].path != own.first &&
            files[fi].path != own.second)
          others.push_back(&file_names[fi]);
      const std::vector<char> tested = reach(others);
      for (std::size_t d : defs) {
        if (tested[d]) continue;
        const FileModel& f = files[all_defs[d].file];
        const FunctionDef& def = f.defs[all_defs[d].def];
        add(f.path, def.line, "orphan-function",
            "'" + def.name + "' is reached by no bench/, examples/ or "
            "perfbench/ code and by no test but its own (" + own.first +
            "); delete it, or name what it is for in an allow");
      }
    }
  }

  // --- RNG dataflow ---------------------------------------------------------
  for (std::size_t d = 0; d < all_defs.size(); ++d) {
    const FileModel& f = files[all_defs[d].file];
    const FunctionDef& def = f.defs[all_defs[d].def];
    const auto& toks = f.tokens;

    // rng-by-value: RNG type in the parameter list not followed by &/*.
    for (std::size_t i = def.params_begin + 1; i < def.params_end; ++i) {
      if (!is_rng_type(toks[i].text)) continue;
      const std::size_t j = i + 1;
      if (j >= def.params_end) continue;
      const std::string& nx = toks[j].text;
      if (nx == "&" || nx == "*" || nx == "::" || nx == ">") continue;
      add(f.path, toks[i].line, "rng-by-value",
          "parameter of RNG type '" + toks[i].text +
              "' taken by value in '" + def.name +
              "'; the copy replays the caller's stream — take Rng&");
    }

    const std::set<std::string> rngs = rng_names_in_def(toks, def);

    // rng-copy: RNG (or auto) variable initialized FROM a known RNG name.
    for (std::size_t i = def.body_begin; i + 4 < def.body_end; ++i) {
      const std::string& t = toks[i].text;
      if (!is_rng_type(t) && t != "auto") continue;
      const std::size_t nm = i + 1;
      if (!(std::isalpha(static_cast<unsigned char>(toks[nm].text[0])) != 0 ||
            toks[nm].text[0] == '_'))
        continue;
      // "Rng a = b;" / "Rng a(b)" / "Rng a{b}" / "auto a = b;" with b a
      // known stream and no call parens after b.
      std::size_t init = 0;
      if (toks[nm + 1].text == "=")
        init = nm + 2;
      else if (t != "auto" &&
               (toks[nm + 1].text == "(" || toks[nm + 1].text == "{"))
        init = nm + 2;
      if (init == 0 || init >= def.body_end) continue;
      const std::string& src_name = toks[init].text;
      if (!rngs.count(src_name) || toks[nm].text == src_name) continue;
      const std::string& after = toks[init + 1].text;
      if (after == "(" || after == ".") continue;  // call / member: not a copy
      add(f.path, toks[i].line, "rng-copy",
          "'" + toks[nm].text + "' copies RNG '" + src_name + "' in '" +
              def.name +
              "'; both replay one stream — draw from the original or "
              "derive_seed a fresh one");
    }

    // rng-captured-in-parallel: a parallel_for lambda that uses an
    // enclosing RNG name without re-deriving its own stream.
    for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
      if (toks[i].text != "parallel_for" || i + 1 >= def.body_end ||
          toks[i + 1].text != "(")
        continue;
      // Find the lambda inside the call: '[' ... ']' [(params)] '{' body '}'.
      std::size_t call_end = i + 1;
      {
        int depth = 0;
        for (std::size_t k = i + 1; k < def.body_end; ++k) {
          if (toks[k].text == "(") ++depth;
          if (toks[k].text == ")" && --depth == 0) {
            call_end = k;
            break;
          }
        }
      }
      std::size_t lb = 0, le = 0;  // lambda body token range
      for (std::size_t k = i + 2; k < call_end; ++k) {
        if (toks[k].text != "[") continue;
        std::size_t m = k;
        while (m < call_end && toks[m].text != "]") ++m;
        ++m;
        if (m < call_end && toks[m].text == "(") {
          int depth = 0;
          while (m < call_end + 1) {
            if (toks[m].text == "(") ++depth;
            if (toks[m].text == ")" && --depth == 0) {
              ++m;
              break;
            }
            ++m;
          }
        }
        if (m >= def.body_end || toks[m].text != "{") continue;
        lb = m;
        int depth = 0;
        le = def.body_end;
        for (std::size_t b = m; b < def.body_end; ++b) {
          if (toks[b].text == "{") ++depth;
          if (toks[b].text == "}" && --depth == 0) {
            le = b;
            break;
          }
        }
        break;
      }
      if (lb == 0) continue;
      for (const auto& name : rngs) {
        bool shadowed = false, used = false;
        int use_line = 0;
        for (std::size_t k = lb + 1; k < le; ++k) {
          if (toks[k].text != name) continue;
          const std::string& prev = toks[k - 1].text;
          if (is_rng_type(prev) || prev == "auto" ||
              (prev == "&" && k >= 2 && (is_rng_type(toks[k - 2].text) ||
                                         toks[k - 2].text == "auto"))) {
            shadowed = true;
            break;
          }
          if (!used) {
            used = true;
            use_line = toks[k].line;
          }
        }
        if (used && !shadowed)
          add(f.path, use_line, "rng-captured-in-parallel",
              "parallel_for lambda in '" + def.name +
                  "' draws from captured RNG '" + name +
                  "'; derive a per-chunk stream inside the lambda "
                  "(make_rng(derive_seed(...)))");
      }
    }
  }

  // --- Determinism purity ----------------------------------------------------
  {
    // BFS from every def in src/stats; parent pointers give the call path.
    // Callees resolve only among definitions under src/: the library cannot
    // include tests/, bench/, tools/ or examples/ (layers.txt), so a
    // same-named definition there is never what a library call runs.
    // Member calls still resolve by bare name, which errs toward false
    // findings, never toward missed ones.
    std::vector<std::size_t> parent(all_defs.size(), all_defs.size());
    std::vector<char> reached(all_defs.size(), 0);
    std::vector<std::size_t> queue;
    for (std::size_t d = 0; d < all_defs.size(); ++d)
      if (under(all_defs[d].file, "src/stats/")) {
        reached[d] = 1;
        queue.push_back(d);
      }
    report.entry_points = queue.size();
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t d = queue[head];
      for (const auto& [name, line] : calls[d]) {
        auto it = by_name.find(name);
        if (it == by_name.end()) continue;
        for (std::size_t callee : it->second)
          if (!reached[callee] && under(all_defs[callee].file, "src/")) {
            reached[callee] = 1;
            parent[callee] = d;
            queue.push_back(callee);
          }
      }
    }
    report.reachable_functions = queue.size();

    auto chain = [&](std::size_t d) {
      std::vector<std::string> names;
      for (std::size_t at = d; at < all_defs.size(); at = parent[at]) {
        names.push_back(files[all_defs[at].file].defs[all_defs[at].def].name);
        if (parent[at] >= all_defs.size()) break;
      }
      std::string out;
      for (std::size_t k = names.size(); k-- > 0;)
        out += names[k] + (k == 0 ? "" : " -> ");
      return out;
    };

    for (const std::size_t d : queue) {
      const FileModel& f = files[all_defs[d].file];
      const FunctionDef& def = f.defs[all_defs[d].def];
      const auto& toks = f.tokens;
      const std::string via = chain(d);
      const bool in_stats = f.path.rfind("src/stats/", 0) == 0;

      std::set<std::string> unordered, floats;
      for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
        const std::string& t = toks[i].text;

        // pure-wall-clock
        if (t == "now" && i >= 1 && toks[i - 1].text == "::" &&
            toks[i + 1].text == "(")
          add(f.path, toks[i].line, "pure-wall-clock",
              "clock ::now() in '" + def.name + "'", via);
        if ((t == "time" || t == "clock" || t == "gettimeofday" ||
             t == "clock_gettime") &&
            toks[i + 1].text == "(")
          add(f.path, toks[i].line, "pure-wall-clock",
              t + "() in '" + def.name + "'", via);

        // pure-locale
        if (t == "setlocale" || t == "imbue" ||
            (t == "locale" && i >= 1 && toks[i - 1].text == "::"))
          add(f.path, toks[i].line, "pure-locale",
              "locale use ('" + t + "') in '" + def.name + "'", via);

        // pure-unordered-iteration: declarations first...
        if (t == "unordered_map" || t == "unordered_set") {
          std::size_t j = i + 1;
          if (j < def.body_end && toks[j].text == "<") {
            int depth = 0;
            while (j < def.body_end) {
              if (toks[j].text == "<") ++depth;
              if (toks[j].text == ">" && --depth == 0) {
                ++j;
                break;
              }
              ++j;
            }
          }
          if (j < def.body_end &&
              (std::isalpha(static_cast<unsigned char>(toks[j].text[0])) !=
                   0 ||
               toks[j].text[0] == '_'))
            unordered.insert(toks[j].text);
        }
        // ...then iteration over a declared name.
        if (unordered.count(t)) {
          const bool range_for = i >= 1 && toks[i - 1].text == ":";
          const bool begin_call =
              i + 3 < def.body_end && toks[i + 1].text == "." &&
              (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin");
          if (range_for || begin_call)
            add(f.path, toks[i].line, "pure-unordered-iteration",
                "iteration over unordered container '" + t + "' in '" +
                    def.name + "'",
                via);
        }

        // pure-float-reduce
        if (t == "accumulate" && toks[i + 1].text == "(") {
          int depth = 0;
          for (std::size_t k = i + 1; k < def.body_end; ++k) {
            if (toks[k].text == "(") ++depth;
            if (toks[k].text == ")" && --depth == 0) break;
            if (depth >= 1 &&
                std::isdigit(static_cast<unsigned char>(toks[k].text[0])) !=
                    0 &&
                toks[k].text.find('.') != std::string::npos) {
              add(f.path, toks[i].line, "pure-float-reduce",
                  "std::accumulate with floating init in '" + def.name +
                      "'; the fold order fixes the result — keep tallies "
                      "integral",
                  via);
              break;
            }
          }
        }
        if (in_stats) {
          if ((t == "double" || t == "float") && i + 1 < def.body_end &&
              (std::isalpha(static_cast<unsigned char>(
                   toks[i + 1].text[0])) != 0 ||
               toks[i + 1].text[0] == '_'))
            floats.insert(toks[i + 1].text);
          if (floats.count(t) && i + 2 < def.body_end &&
              toks[i + 1].text == "+" && toks[i + 2].text == "=")
            add(f.path, toks[i].line, "pure-float-reduce",
                "float accumulation '" + t + " +=' in '" + def.name + "'",
                via);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The suppression ledger
// ---------------------------------------------------------------------------

/// Settles every raw finding, per-file or cross-TU, against the justified
/// directives of its file: a covered finding is credited to the first
/// directive that covers it, the rest are reported. Malformed directives are
/// findings themselves, and a directive that credits nothing is stale.
void settle(const std::vector<FileModel>& files, std::vector<Finding> raw,
            LintReport& report) {
  std::set<std::string> known;
  for (const auto& r : default_rules()) known.insert(r.name);

  struct AllowEntry {
    std::string file, rule;
    bool file_scope = false;
    int target = 0;  // line a line-scoped entry covers
    int at = 0;      // line the directive sits on (finding anchor)
    std::size_t used = 0;
  };
  std::vector<AllowEntry> allows;
  for (const auto& f : files) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      if (f.lines[i].comment.find("duti-lint") == std::string::npos) continue;
      for (const auto& s :
           parse_suppressions(f.lines[i].comment, static_cast<int>(i + 1),
                              is_blank(f.lines[i].code))) {
        if (!s.justified)
          raw.push_back({f.path, s.line, "bare-suppression",
                         "suppression without '-- <justification>' text"});
        if (s.rules.empty())
          raw.push_back({f.path, s.line, "unknown-rule",
                         "suppression names no rule: expected "
                         "allow(<rule>[, <rule>])"});
        for (const auto& name : s.rules) {
          if (!known.count(name)) {
            raw.push_back({f.path, s.line, "unknown-rule",
                           "suppression names unknown rule '" + name + "'"});
            continue;
          }
          if (!s.justified) continue;  // undocumented exemptions don't apply
          AllowEntry e;
          e.file = f.path;
          e.rule = name;
          e.file_scope = s.file_scope;
          e.at = s.line;
          if (!s.file_scope) {
            // A trailing comment covers its own line; a standalone comment
            // covers the next line that has code (so multi-line
            // justifications work).
            e.target = s.line;
            if (s.own_line) {
              std::size_t j = static_cast<std::size_t>(s.line);
              while (j < f.lines.size() && is_blank(f.lines[j].code)) ++j;
              e.target = static_cast<int>(j + 1);
            }
          }
          allows.push_back(std::move(e));
        }
      }
    }
  }

  for (auto& f : raw) {
    auto covers = [&f](const AllowEntry& e) {
      return e.file == f.file && e.rule == f.rule &&
             (e.file_scope || e.target == f.line);
    };
    // Meta findings from the suppression parser are never suppressible.
    const bool meta = f.rule == "bare-suppression" || f.rule == "unknown-rule";
    const auto covering =
        meta ? allows.end() : std::find_if(allows.begin(), allows.end(), covers);
    if (covering != allows.end()) {
      ++covering->used;
      ++report.suppressions_used;
      continue;
    }
    ++report.rule_counts[f.rule];
    report.findings.push_back(std::move(f));
  }
  for (const auto& e : allows) {
    if (e.used > 0) continue;
    ++report.rule_counts["stale-suppression"];
    report.findings.push_back(
        {e.file, e.at, "stale-suppression",
         "suppression of '" + e.rule + "' matches no finding " +
             (e.file_scope ? "in this file" : "on its line") + "; remove it"});
  }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Pure function of the scanned sources: files are path-sorted and every
/// hashed collection is sorted, so input order cannot leak in.
std::uint64_t graph_fingerprint(const std::vector<FileModel>& files,
                                const LintReport& report) {
  Fnv64 h;
  h.u64(report.modules.size());
  for (const auto& m : report.modules) h.str(m);
  h.u64(report.module_edges.size());
  for (const auto& [a, b] : report.module_edges) {
    h.str(a);
    h.str(b);
  }
  std::vector<std::string> defs;
  for (const auto& f : files)
    for (const auto& d : f.defs)
      defs.push_back(f.path + ":" + d.name + ":" + std::to_string(d.line));
  std::sort(defs.begin(), defs.end());
  h.u64(defs.size());
  for (const auto& s : defs) h.str(s);
  h.u64(report.call_edges);
  h.u64(report.include_directives);
  for (const auto& [rule, count] : report.rule_counts) {
    h.str(rule);
    h.u64(count);
  }
  return h.value();
}

}  // namespace

// ---------------------------------------------------------------------------
// lint_sources, lint_tree
// ---------------------------------------------------------------------------

LintReport lint_sources(const std::vector<SourceFile>& sources,
                        const LayerPolicy& policy) {
  // perfbench/ builds against the library on its own terms: the scan reads
  // it only for the names it mentions, which the orphan-function pass counts
  // as uses.
  std::set<std::string> consumer_names;
  std::vector<FileModel> files;
  files.reserve(sources.size());
  for (const auto& src : sources) {
    if (src.path.rfind("perfbench/", 0) == 0) {
      for (const auto& t : tokenize(lex_lines(src.content)))
        consumer_names.insert(t.text);
      continue;
    }
    FileModel f;
    f.path = src.path;
    f.module = module_of(src.path);
    f.raw_lines = split_lines(src.content);
    f.lines = lex_lines(src.content);
    f.tokens = tokenize(f.lines);
    f.defs = find_functions(f.tokens);
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const FileModel& a, const FileModel& b) {
              return a.path < b.path;
            });

  LintReport report;
  for (const auto& r : default_rules()) report.rule_counts[r.name] = 0;
  report.files_scanned = sources.size();
  std::vector<Finding> raw;
  for (const auto& f : files) {
    const bool header = is_header_path(f.path);
    for (const auto& rule : default_rules())
      if (rule.check != nullptr && rule_applies(rule, f.path, header))
        rule.check(f.path, f.lines, raw);
  }
  check_cross_tu(files, consumer_names, policy, raw, report);
  settle(files, std::move(raw), report);
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  report.fingerprint = graph_fingerprint(files, report);
  return report;
}

LintReport lint_tree(const std::string& root,
                     const std::vector<std::string>& rel_paths,
                     const LayerPolicy& policy) {
  namespace fs = std::filesystem;
  // A set, so overlapping paths ("src src/util") still scan each file once:
  // a second copy would make its includes ambiguous and its directives
  // stale.
  std::set<std::string> rel_files;
  auto consider = [&](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc")
      rel_files.insert(fs::relative(p, root).generic_string());
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
  std::vector<SourceFile> sources;
  for (const auto& rel : rel_files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back({rel, buf.str()});
  }
  return lint_sources(sources, policy);
}

}  // namespace duti::lint
