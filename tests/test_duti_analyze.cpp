// Tests for duti-lint's cross-TU passes (tools/duti_lint): layer-policy
// parsing, the token stream and definition finder, layering enforcement over
// in-memory trees (positive AND seeded-violation fixtures), the orphan-module
// reach from bench/ and examples/, the orphan-function reach from bench/,
// examples/, perfbench/ and other modules' tests, the RNG-stream dataflow
// rules, the
// determinism-purity walk from src/stats entry points, suppression of
// cross-TU findings (including staleness), report shapes and fingerprint
// invariance. The per-file rules, the ledger they share and the
// CLI are tested in test_duti_lint.cpp. Fixtures are string literals, so the
// tree-wide `duti_lint` CTest pass does not see their contents.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using duti::lint::Finding;
using duti::lint::FunctionDef;
using duti::lint::LayerPolicy;
using duti::lint::LintReport;
using duti::lint::SourceFile;
using duti::lint::Token;

const char kPolicy[] =
    "layer util\n"
    "layer dist fourier\n"
    "layer stats\n"
    "layer tests\n";

LayerPolicy policy_of(const std::string& text) {
  LayerPolicy p;
  std::string err;
  EXPECT_TRUE(duti::lint::parse_layer_policy(text, p, err)) << err;
  return p;
}

LintReport run(const std::vector<SourceFile>& files,
                  const std::string& policy_text = kPolicy) {
  return duti::lint::lint_sources(files, policy_of(policy_text));
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  return r.rule_counts.at(rule);
}

/// The first finding of `rule`; the per-file rules may report the same line.
const Finding& first_of(const LintReport& r, const std::string& rule) {
  return *std::find_if(r.findings.begin(), r.findings.end(),
                       [&](const Finding& f) { return f.rule == rule; });
}

std::vector<Token> tokens_of(const std::string& src) {
  return duti::lint::tokenize(duti::lint::lex_lines(src));
}

std::vector<FunctionDef> defs_of(const std::string& src) {
  return duti::lint::find_functions(tokens_of(src));
}

// ---------------------------------------------------------------------------
// Layer policy parsing
// ---------------------------------------------------------------------------

TEST(LayerPolicy, ParsesLayersAllowsAndComments) {
  const LayerPolicy p = policy_of(
      "# comment\n"
      "layer util\n"
      "layer dist fourier  # trailing comment\n"
      "\n"
      "allow dist fourier\n");
  ASSERT_EQ(p.layers.size(), 2u);
  EXPECT_EQ(p.layers[0], std::vector<std::string>{"util"});
  EXPECT_EQ(p.layers[1], (std::vector<std::string>{"dist", "fourier"}));
  ASSERT_EQ(p.allowed_edges.size(), 1u);
  EXPECT_EQ(p.allowed_edges[0].first, "dist");
  EXPECT_EQ(p.allowed_edges[0].second, "fourier");
}

TEST(LayerPolicy, RejectsUnknownDirective) {
  LayerPolicy p;
  std::string err;
  EXPECT_FALSE(duti::lint::parse_layer_policy("stratum util\n", p, err));
  EXPECT_NE(err.find("unknown directive"), std::string::npos);
}

TEST(LayerPolicy, RejectsEmptyLayerLine) {
  LayerPolicy p;
  std::string err;
  EXPECT_FALSE(duti::lint::parse_layer_policy("layer\n", p, err));
}

TEST(LayerPolicy, RejectsDuplicateModule) {
  LayerPolicy p;
  std::string err;
  EXPECT_FALSE(
      duti::lint::parse_layer_policy("layer util\nlayer util\n", p, err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(LayerPolicy, RejectsAllowOfUnplacedModule) {
  LayerPolicy p;
  std::string err;
  EXPECT_FALSE(duti::lint::parse_layer_policy(
      "layer util\nallow util ghost\n", p, err));
  EXPECT_NE(err.find("unplaced"), std::string::npos);
}

TEST(LayerPolicy, RejectsEmptyPolicy) {
  LayerPolicy p;
  std::string err;
  EXPECT_FALSE(duti::lint::parse_layer_policy("# only comments\n", p, err));
}

TEST(LayerPolicy, ModuleOfPaths) {
  EXPECT_EQ(duti::lint::module_of("src/util/rng.hpp"), "util");
  EXPECT_EQ(duti::lint::module_of("src/stats/harness.cpp"), "stats");
  EXPECT_EQ(duti::lint::module_of("bench/e1.cpp"), "bench");
  EXPECT_EQ(duti::lint::module_of("tools/duti_lint/lint.hpp"), "tools");
  EXPECT_EQ(duti::lint::module_of("README.md"), "");
}

// ---------------------------------------------------------------------------
// Tokenizer & definition finder
// ---------------------------------------------------------------------------

TEST(Tokenize, IdentsNumbersAndCompoundPunct) {
  const auto t = tokens_of("a->b::c(1'000, 2.5e3);\n");
  std::vector<std::string> texts;
  for (const auto& tok : t) texts.push_back(tok.text);
  const std::vector<std::string> want = {"a", "->", "b",     "::", "c",
                                         "(", "1'000", ",",  "2.5e3", ")",
                                         ";"};
  EXPECT_EQ(texts, want);
}

TEST(Tokenize, LiteralsBecomeBlankPairsAndLinesArePreserved) {
  const auto t = tokens_of("x = \"hello\";\ny = 'q';\n");
  ASSERT_GE(t.size(), 6u);
  EXPECT_EQ(t[2].text, "\"\"");
  EXPECT_EQ(t[2].line, 1);
  bool found_char = false;
  for (const auto& tok : t)
    if (tok.text == "''" && tok.line == 2) found_char = true;
  EXPECT_TRUE(found_char);
}

TEST(FindFunctions, FreeFunctionWithBodySpan) {
  const auto d = defs_of("int add(int a, int b) {\n  return a + b;\n}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].name, "add");
  EXPECT_EQ(d[0].line, 1);
  EXPECT_LT(d[0].params_begin, d[0].params_end);
  EXPECT_LT(d[0].body_begin, d[0].body_end);
}

TEST(FindFunctions, DeclarationsCallsAndKeywordsAreNotDefs) {
  const auto d = defs_of(
      "int add(int a, int b);\n"
      "int x = mul(add(1, 2), 3);\n");
  EXPECT_TRUE(d.empty());
}

TEST(FindFunctions, CtorInitListWithParenAndBraceInit) {
  const auto d = defs_of(
      "Foo::Foo(int a) : x_(a), y_{a + 1} {\n  use(x_);\n}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].name, "Foo");
}

TEST(FindFunctions, NoexceptAndTrailingReturn) {
  const auto d = defs_of(
      "auto f(int v) noexcept(noexcept(g(v))) -> std::vector<int> {\n"
      "  return {v};\n}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].name, "f");
}

TEST(FindFunctions, CallShapedReturnTypeIsNotTheName) {
  const auto d = defs_of(
      "std::function<std::uint32_t(std::uint64_t)> make_map(unsigned r) {\n"
      "  return {};\n}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].name, "make_map");
}

TEST(FindFunctions, LambdaBodyBelongsToEnclosingFunction) {
  const auto d = defs_of(
      "void outer() {\n"
      "  auto fn = [](int v) { return v + 1; };\n"
      "  fn(1);\n"
      "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].name, "outer");
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

TEST(Layering, DownwardEdgeIsClean) {
  const auto r = run({{"src/util/rng.hpp", "#pragma once\nint util_fn();\n"},
                      {"src/stats/harness.cpp",
                       "#include \"util/rng.hpp\"\nint stats_fn();\n"}});
  EXPECT_EQ(count_rule(r, "layer-violation"), 0u);
  EXPECT_EQ(r.include_directives, 1u);
  ASSERT_EQ(r.module_edges.size(), 1u);
  EXPECT_EQ(r.module_edges[0].first, "stats");
  EXPECT_EQ(r.module_edges[0].second, "util");
}

TEST(Layering, UpwardEdgeIsFlaggedAtTheIncludeLine) {
  const auto r = run(
      {{"src/util/rng.hpp", "#pragma once\n#include \"stats/harness.hpp\"\n"},
       {"src/stats/harness.hpp", "#pragma once\n"}});
  ASSERT_EQ(count_rule(r, "layer-violation"), 1u);
  const Finding& f = r.findings[0];
  EXPECT_EQ(f.file, "src/util/rng.hpp");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("util -> stats"), std::string::npos);
}

TEST(Layering, SameLayerSiblingEdgeIsFlagged) {
  const auto r = run(
      {{"src/dist/gen.hpp", "#pragma once\n#include \"fourier/wht.hpp\"\n"},
       {"src/fourier/wht.hpp", "#pragma once\n"}});
  EXPECT_EQ(count_rule(r, "layer-violation"), 1u);
}

TEST(Layering, AllowEntryLegalizesSiblingEdge) {
  const auto r = run(
      {{"src/dist/gen.hpp", "#pragma once\n#include \"fourier/wht.hpp\"\n"},
       {"src/fourier/wht.hpp", "#pragma once\n"}},
      std::string(kPolicy) + "allow dist fourier\n");
  EXPECT_EQ(count_rule(r, "layer-violation"), 0u);
}

TEST(Layering, UnknownModuleIsFlaggedOnce) {
  const auto r = run({{"src/newthing/a.hpp", "#pragma once\n"},
                      {"src/newthing/b.hpp", "#pragma once\n"}});
  EXPECT_EQ(count_rule(r, "layer-unknown-module"), 1u);
}

TEST(Layering, CycleIsDetected) {
  const auto r = run(
      {{"src/util/a.hpp", "#pragma once\n#include \"stats/b.hpp\"\n"},
       {"src/stats/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n"}});
  EXPECT_GE(count_rule(r, "layer-cycle"), 1u);
  bool cycle_message = false;
  for (const auto& f : r.findings)
    if (f.rule == "layer-cycle" &&
        f.message.find("->") != std::string::npos)
      cycle_message = true;
  EXPECT_TRUE(cycle_message);
}

TEST(Layering, SlashlessIncludeResolvesByUniqueSuffix) {
  const auto r = run(
      {{"src/stats/h.cpp", "#include \"rng.hpp\"\n"},
       {"src/util/rng.hpp", "#pragma once\n"}});
  EXPECT_EQ(r.include_directives, 1u);
  EXPECT_EQ(count_rule(r, "layer-violation"), 0u);
}

TEST(Layering, AmbiguousSuffixIsNotResolved) {
  const auto r = run(
      {{"src/stats/h.cpp", "#include \"common.hpp\"\n"},
       {"src/util/common.hpp", "#pragma once\n"},
       {"src/dist/common.hpp", "#pragma once\n"}});
  EXPECT_EQ(r.include_directives, 0u);
}

TEST(Layering, SameDirectoryIncludeWinsOverSuffixMatch) {
  const auto r = run(
      {{"src/stats/h.cpp", "#include \"common.hpp\"\n"},
       {"src/stats/common.hpp", "#pragma once\n"},
       {"src/util/common.hpp", "#pragma once\n"}});
  EXPECT_EQ(r.include_directives, 1u);
  EXPECT_TRUE(r.module_edges.empty());  // intra-module edge, no DAG entry
}

TEST(Layering, RawStringIncludeFixturesAreInvisible) {
  const auto r = run(
      {{"src/util/a.cpp",
        "const char* fixture = R\"(\n#include \"stats/b.hpp\"\n)\";\n"},
       {"src/stats/b.hpp", "#pragma once\n"}});
  EXPECT_EQ(r.include_directives, 0u);
  EXPECT_EQ(count_rule(r, "layer-violation"), 0u);
}

// ---------------------------------------------------------------------------
// Orphan modules
// ---------------------------------------------------------------------------

const std::string kReachPolicy =
    std::string(kPolicy) + "layer bench examples\n";

TEST(OrphanModule, HeaderNoBenchReachesIsFlaggedAtLineZero) {
  const auto r = run(
      {{"bench/e1.cpp", "#include \"util/used.hpp\"\n"},
       {"src/util/used.hpp", "#pragma once\n"},
       {"src/util/unused.hpp", "#pragma once\n"},
       {"tests/test_unused.cpp", "#include \"util/unused.hpp\"\n"}},
      kReachPolicy);
  ASSERT_EQ(count_rule(r, "orphan-module"), 1u);
  const Finding& f = first_of(r, "orphan-module");
  EXPECT_EQ(f.file, "src/util/unused.hpp");
  EXPECT_EQ(f.line, 0);
  EXPECT_NE(f.message.find("no bench/ or examples/ file reaches"),
            std::string::npos);
}

TEST(OrphanModule, SameStemCppCarriesTheReach) {
  const auto r = run(
      {{"examples/demo.cpp", "#include \"stats/engine.hpp\"\n"},
       {"src/stats/engine.hpp", "#pragma once\n"},
       {"src/stats/engine.cpp",
        "#include \"stats/engine.hpp\"\n#include \"util/shrink.hpp\"\n"},
       {"src/util/shrink.hpp", "#pragma once\n"},
       {"src/util/orphan.hpp", "#pragma once\n"}},
      kReachPolicy);
  ASSERT_EQ(count_rule(r, "orphan-module"), 1u);
  EXPECT_EQ(first_of(r, "orphan-module").file, "src/util/orphan.hpp");
}

TEST(OrphanModule, ScanWithoutBenchOrExamplesHasNoRoots) {
  const std::vector<SourceFile> lib = {
      {"src/util/a.hpp", "#pragma once\n"},
      {"src/stats/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n"}};
  EXPECT_EQ(count_rule(run(lib, kReachPolicy), "orphan-module"), 0u);
  std::vector<SourceFile> tree = lib;
  tree.push_back({"bench/e.cpp", "#include \"util/a.hpp\"\n"});
  EXPECT_EQ(count_rule(run(tree, kReachPolicy), "orphan-module"), 1u);
}

TEST(OrphanModule, AllowFileDirectiveIsCredited) {
  const auto r = run(
      {{"bench/e.cpp", "int main() {\n  return 0;\n}\n"},
       {"src/util/kept.hpp",
        "#pragma once\n"
        "// duti-lint: allow-file(orphan-module) -- fixture justification\n"}},
      kReachPolicy);
  EXPECT_EQ(count_rule(r, "orphan-module"), 0u);
  EXPECT_EQ(count_rule(r, "stale-suppression"), 0u);
  EXPECT_EQ(r.suppressions_used, 1u);
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------------------
// Orphan functions
// ---------------------------------------------------------------------------

const SourceFile kCalcHeader = {"src/util/calc.hpp",
                                "#pragma once\n"
                                "int used(int x);\n"
                                "int lonely(int x);\n"};
const SourceFile kCalcSource = {"src/util/calc.cpp",
                                "#include \"util/calc.hpp\"\n"
                                "int used(int x) {\n  return x;\n}\n"
                                "static int helper(int x) {\n  return x;\n}\n"
                                "int lonely(int x) {\n"
                                "  return helper(x);\n}\n"};
const SourceFile kCalcBench = {"bench/e1.cpp",
                               "#include \"util/calc.hpp\"\n"
                               "int main() {\n  return used(1);\n}\n"};

std::vector<std::string> orphan_names(const LintReport& r) {
  std::vector<std::string> names;
  for (const auto& f : r.findings)
    if (f.rule == "orphan-function")
      names.push_back(f.message.substr(1, f.message.find('\'', 1) - 1));
  return names;
}

TEST(OrphanFunction, OnlyItsOwnModuleTestsReachingItIsAFinding) {
  // tests/test_<stem>.cpp and tests/test_<module>.cpp are its own tests;
  // `helper` is unreached too, but no header declares it.
  const auto r = run({kCalcHeader, kCalcSource, kCalcBench,
                      {"tests/test_calc.cpp",
                       "TEST(Calc, Lonely) {\n  EXPECT_EQ(lonely(1), 1);\n}\n"},
                      {"tests/test_util.cpp",
                       "TEST(Util, Lonely) {\n"
                       "  EXPECT_EQ(lonely(2), 2);\n}\n"}},
                     kReachPolicy);
  ASSERT_EQ(orphan_names(r), std::vector<std::string>{"lonely"});
  const Finding& f = first_of(r, "orphan-function");
  EXPECT_EQ(f.file, "src/util/calc.cpp");
  EXPECT_EQ(f.line, 8);
  EXPECT_NE(f.message.find("tests/test_calc.cpp"), std::string::npos);
  EXPECT_EQ(count_rule(r, "orphan-module"), 0u);
}

TEST(OrphanFunction, AnotherModulesTestIsAUse) {
  const auto r = run({kCalcHeader, kCalcSource, kCalcBench,
                      {"tests/test_stats.cpp",
                       "TEST(Stats, Lonely) {\n"
                       "  EXPECT_EQ(lonely(1), 1);\n}\n"}},
                     kReachPolicy);
  EXPECT_EQ(count_rule(r, "orphan-function"), 0u);
}

TEST(OrphanFunction, ReachThroughLibraryDefinitionsAndDefaultArguments) {
  // bench -> used -> lonely, and used's declaration names `fallback` as a
  // default argument; `stray` stays unreached.
  const auto r = run(
      {{"src/util/calc.hpp",
        "#pragma once\n"
        "int used(int x = fallback());\n"
        "int fallback();\n"
        "int lonely(int x);\n"
        "int stray();\n"},
       {"src/util/calc.cpp",
        "#include \"util/calc.hpp\"\n"
        "int used(int x) {\n  return lonely(x);\n}\n"
        "int lonely(int x) {\n  return x;\n}\n"
        "int fallback() {\n  return 0;\n}\n"
        "int stray() {\n  return 1;\n}\n"},
       kCalcBench},
      kReachPolicy);
  EXPECT_EQ(orphan_names(r), std::vector<std::string>{"stray"});
}

TEST(OrphanFunction, TemplateCallsAndFunctionPointersAreUses) {
  const auto r = run(
      {{"src/util/calc.hpp",
        "#pragma once\n"
        "template <class T> T scaled(T x) {\n  return x + x;\n}\n"
        "int hook(int x);\n"},
       {"src/util/calc.cpp",
        "#include \"util/calc.hpp\"\nint hook(int x) {\n  return x;\n}\n"},
       {"bench/e1.cpp",
        "#include \"util/calc.hpp\"\n"
        "int main() {\n  register_fn(&hook);\n  return scaled<int>(2);\n}\n"}},
      kReachPolicy);
  EXPECT_EQ(count_rule(r, "orphan-function"), 0u);
}

TEST(OrphanFunction, PerfbenchIsReadForNamesOnly) {
  // perfbench/ mentions count as uses; its own definitions, includes and
  // module stay out of the report.
  const auto r = run({kCalcHeader, kCalcSource, kCalcBench,
                      {"perfbench/driver/main.cpp",
                       "#include \"util/calc.hpp\"\n"
                       "int drive(Rng rng) {\n  return lonely(1);\n}\n"}},
                     kReachPolicy);
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.functions, 4u);  // main, used, helper, lonely
  EXPECT_EQ(r.files_scanned, 4u);
}

TEST(OrphanFunction, ScanWithoutRootsSkipsThePass) {
  const auto r = run({kCalcHeader, kCalcSource}, kReachPolicy);
  EXPECT_EQ(count_rule(r, "orphan-function"), 0u);
}

TEST(OrphanFunction, JustifiedKeeperIsCredited) {
  SourceFile kept = kCalcSource;
  kept.content.replace(kept.content.find("int lonely"), 0,
                       "// duti-lint: allow(orphan-function) -- fixture\n"
                       "// justification\n");
  const auto r = run({kCalcHeader, kept, kCalcBench}, kReachPolicy);
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.suppressions_used, 1u);
}

// ---------------------------------------------------------------------------
// RNG dataflow
// ---------------------------------------------------------------------------

TEST(RngByValue, FlagsValueParameter) {
  const auto r = run(
      {{"src/util/a.cpp", "void f(Rng g) {\n  g();\n}\n"}});
  ASSERT_EQ(count_rule(r, "rng-by-value"), 1u);
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_NE(r.findings[0].message.find("'f'"), std::string::npos);
}

TEST(RngByValue, ReferenceAndPointerParametersAreClean) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Rng& g, const Rng* h) {\n  g();\n}\n"}});
  EXPECT_EQ(count_rule(r, "rng-by-value"), 0u);
}

TEST(RngByValue, FlagsStdMt19937ByValue) {
  const auto r = run(
      {{"src/util/a.cpp", "void f(std::mt19937_64 g) {\n  g();\n}\n"}});
  EXPECT_EQ(count_rule(r, "rng-by-value"), 1u);
}

TEST(RngCopy, FlagsCopyInitFromKnownStream) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Rng& g) {\n  Rng a = g;\n  a();\n}\n"}});
  ASSERT_EQ(count_rule(r, "rng-copy"), 1u);
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(RngCopy, FlagsDirectInitFromKnownStream) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Rng& g) {\n  Rng a(g);\n  a();\n}\n"}});
  EXPECT_EQ(count_rule(r, "rng-copy"), 1u);
}

TEST(RngCopy, SeedConstructionAndDerivationAreClean) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(std::uint64_t seed) {\n"
                       "  Rng a(seed);\n"
                       "  Rng b = make_rng(derive_seed(seed, 1));\n"
                       "  auto c = make_rng(seed);\n"
                       "  a(); b(); c();\n"
                       "}\n"}});
  EXPECT_EQ(count_rule(r, "rng-copy"), 0u);
}

TEST(RngCopy, AutoCopyOfStreamIsFlaggedButReferenceIsNot) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Rng& g) {\n"
                       "  auto& alias = g;\n"
                       "  auto dup = g;\n"
                       "  alias(); dup();\n"
                       "}\n"}});
  ASSERT_EQ(count_rule(r, "rng-copy"), 1u);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(RngCaptured, FlagsDrawFromCapturedRngInParallelFor) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Pool& pool, Rng& g) {\n"
                       "  pool.parallel_for(8, 1, [&](std::size_t c) {\n"
                       "    auto x = g();\n"
                       "    use(x, c);\n"
                       "  });\n"
                       "}\n"}});
  ASSERT_EQ(count_rule(r, "rng-captured-in-parallel"), 1u);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(RngCaptured, PerChunkDerivationInsideLambdaIsClean) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Pool& pool, std::uint64_t seed, Rng& g) {\n"
                       "  g();\n"
                       "  pool.parallel_for(8, 1, [&](std::size_t c) {\n"
                       "    Rng local = make_rng(derive_seed(seed, c));\n"
                       "    local();\n"
                       "  });\n"
                       "}\n"}});
  EXPECT_EQ(count_rule(r, "rng-captured-in-parallel"), 0u);
}

TEST(RngCaptured, ShadowingDeclarationInsideLambdaIsClean) {
  const auto r = run({{"src/util/a.cpp",
                       "void f(Pool& pool, std::uint64_t seed, Rng& g) {\n"
                       "  pool.parallel_for(8, 1, [&](std::size_t c) {\n"
                       "    Rng g = make_rng(derive_seed(seed, c));\n"
                       "    g();\n"
                       "  });\n"
                       "}\n"}});
  EXPECT_EQ(count_rule(r, "rng-captured-in-parallel"), 0u);
}

// ---------------------------------------------------------------------------
// Determinism purity
// ---------------------------------------------------------------------------

TEST(Purity, WallClockReachableFromStatsCarriesCallPath) {
  const auto r = run(
      {{"src/stats/probe.cpp", "int probe_entry() {\n  return helper(1);\n}\n"},
       {"src/util/h.cpp",
        "int helper(int x) {\n  auto t = Clock::now();\n  return x;\n}\n"}});
  ASSERT_EQ(count_rule(r, "pure-wall-clock"), 1u);
  const Finding& f = first_of(r, "pure-wall-clock");
  EXPECT_EQ(f.file, "src/util/h.cpp");
  EXPECT_EQ(f.line, 2);
  EXPECT_EQ(f.path, "probe_entry -> helper");
}

TEST(Purity, UnreachableWallClockIsNotFlagged) {
  const auto r = run(
      {{"src/stats/probe.cpp", "int probe_entry() {\n  return 1;\n}\n"},
       {"src/util/h.cpp",
        "int helper(int x) {\n  auto t = Clock::now();\n  return x;\n}\n"}});
  EXPECT_EQ(count_rule(r, "pure-wall-clock"), 0u);
  EXPECT_EQ(r.entry_points, 1u);
  EXPECT_EQ(r.reachable_functions, 1u);
}

TEST(Purity, CallsResolveOnlyToLibraryDefinitions) {
  // src/ cannot include tests/ (layers.txt), and a std::-qualified call
  // names the standard library: neither reaches a same-named definition.
  const auto r = run(
      {{"src/stats/probe.cpp",
        "int probe_id(const Key& key) {\n"
        "  std::sort(v.begin(), v.end());\n"
        "  return key.fingerprint();\n"
        "}\n"},
       {"src/util/s.cpp",
        "void sort(int* a, int* b) {\n  auto t = Clock::now();\n}\n"},
       {"tests/helper.cpp",
        "int fingerprint() {\n"
        "  auto t = std::chrono::steady_clock::now();\n"
        "  return 0;\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-wall-clock"), 0u);
  EXPECT_EQ(r.reachable_functions, 1u);
}

TEST(Purity, AccumulateWithFloatInitReachableIsFlagged) {
  const auto r = run(
      {{"src/stats/probe.cpp", "double probe_entry() {\n  return s();\n}\n"},
       {"src/util/m.cpp",
        "double s() {\n"
        "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-float-reduce"), 1u);
}

TEST(Purity, IntegerAccumulateIsClean) {
  const auto r = run(
      {{"src/stats/probe.cpp", "long probe_entry() {\n  return s();\n}\n"},
       {"src/util/m.cpp",
        "long s() {\n"
        "  return std::accumulate(v.begin(), v.end(), 0ULL);\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-float-reduce"), 0u);
}

TEST(Purity, FloatPlusEqualsInsideStatsIsFlagged) {
  const auto r = run({{"src/stats/probe.cpp",
                       "double probe_entry() {\n"
                       "  double s = 0.0;\n"
                       "  s += 1.5;\n"
                       "  return s;\n"
                       "}\n"}});
  ASSERT_EQ(count_rule(r, "pure-float-reduce"), 1u);
  EXPECT_EQ(first_of(r, "pure-float-reduce").line, 3);
}

TEST(Purity, FloatPlusEqualsOutsideStatsIsNotFlagged) {
  // Outside src/stats a float += breaks no rule: the purity walk chases
  // only accumulate-style folds across TU boundaries.
  const auto r = run(
      {{"src/stats/probe.cpp", "double probe_entry() {\n  return s();\n}\n"},
       {"src/util/m.cpp",
        "double s() {\n  double t = 0.0;\n  t += 1.5;\n  return t;\n}\n"}});
  EXPECT_EQ(count_rule(r, "pure-float-reduce"), 0u);
}

TEST(Purity, UnorderedIterationReachableIsFlagged) {
  const auto r = run(
      {{"src/stats/probe.cpp", "void probe_entry() {\n  iterate();\n}\n"},
       {"src/util/u.cpp",
        "void iterate() {\n"
        "  std::unordered_map<int, int> m;\n"
        "  for (auto& kv : m) {\n"
        "    use(kv);\n"
        "  }\n"
        "}\n"}});
  ASSERT_EQ(count_rule(r, "pure-unordered-iteration"), 1u);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(Purity, UnorderedLookupWithoutIterationIsClean) {
  const auto r = run(
      {{"src/stats/probe.cpp", "void probe_entry() {\n  lookup();\n}\n"},
       {"src/util/u.cpp",
        "void lookup() {\n"
        "  std::unordered_map<int, int> m;\n"
        "  m.insert({1, 2});\n"
        "  use(m.count(1));\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-unordered-iteration"), 0u);
}

TEST(Purity, LocaleUseReachableIsFlagged) {
  const auto r = run(
      {{"src/stats/probe.cpp", "void probe_entry() {\n  fmt();\n}\n"},
       {"src/util/u.cpp",
        "void fmt() {\n  auto loc = std::locale();\n}\n"}});
  EXPECT_EQ(count_rule(r, "pure-locale"), 1u);
}

// ---------------------------------------------------------------------------
// Suppressions (shared duti-lint grammar)
// ---------------------------------------------------------------------------

TEST(Suppression, JustifiedAllowCreditsAndSuppresses) {
  const auto r = run(
      {{"src/stats/probe.cpp", "double probe_entry() {\n  return s();\n}\n"},
       {"src/util/m.cpp",
        "double s() {\n"
        "  // duti-lint: allow(pure-float-reduce) -- fixture justification\n"
        "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-float-reduce"), 0u);
  EXPECT_EQ(count_rule(r, "stale-suppression"), 0u);
  EXPECT_EQ(r.suppressions_used, 1u);
  EXPECT_TRUE(r.findings.empty());
}

TEST(Suppression, UnjustifiedAllowDoesNotApply) {
  const auto r = run(
      {{"src/stats/probe.cpp", "double probe_entry() {\n  return s();\n}\n"},
       {"src/util/m.cpp",
        "double s() {\n"
        "  // duti-lint: allow(pure-float-reduce)\n"
        "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
        "}\n"}});
  EXPECT_EQ(count_rule(r, "pure-float-reduce"), 1u);
  EXPECT_EQ(r.suppressions_used, 0u);
}

TEST(Suppression, StaleCrossTuSuppressionIsFlagged) {
  const auto r = run({{"src/util/a.cpp",
                       "// duti-lint: allow(rng-copy) -- nothing here\n"
                       "int x = 1;\n"}});
  ASSERT_EQ(count_rule(r, "stale-suppression"), 1u);
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_NE(r.findings[0].message.find("rng-copy"), std::string::npos);
}

TEST(Suppression, StaleFileScopedSuppressionIsFlagged) {
  const auto r = run({{"src/util/a.cpp",
                       "// duti-lint: allow-file(pure-wall-clock) -- unused\n"
                       "int x = 1;\n"}});
  EXPECT_EQ(count_rule(r, "stale-suppression"), 1u);
}

// ---------------------------------------------------------------------------
// Report, fingerprint
// ---------------------------------------------------------------------------

TEST(Report, JsonShapeHasStableKeys) {
  const auto r = run(
      {{"src/util/rng.hpp", "#pragma once\nint util_fn();\n"},
       {"src/stats/h.cpp",
        "#include \"util/rng.hpp\"\nint f() {\n  return 1;\n}\n"}});
  const std::string js = duti::lint::to_json(r);
  EXPECT_NE(js.find("\"tool\": \"duti_lint\""), std::string::npos);
  EXPECT_NE(js.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"fingerprint\": \""), std::string::npos);
  EXPECT_NE(js.find("\"module_edges\": ["), std::string::npos);
  EXPECT_NE(js.find("[\"stats\", \"util\"]"), std::string::npos);
  EXPECT_NE(js.find("\"rule_counts\""), std::string::npos);
  EXPECT_NE(js.find("\"findings\": []"), std::string::npos);
}

TEST(Report, HumanOutputCarriesReachabilityPath) {
  const auto r = run(
      {{"src/stats/probe.cpp", "int probe_entry() {\n  return helper(1);\n}\n"},
       {"src/util/h.cpp",
        "int helper(int x) {\n  auto t = Clock::now();\n  return x;\n}\n"}});
  const std::string human = duti::lint::to_human(r);
  EXPECT_NE(human.find("src/util/h.cpp:2"), std::string::npos);
  EXPECT_NE(human.find("reachable via probe_entry -> helper"),
            std::string::npos);
}

TEST(Report, DotOutputRanksLayersAndListsEdges) {
  const auto r = run({{"src/util/rng.hpp", "#pragma once\n"},
                      {"src/stats/h.cpp", "#include \"util/rng.hpp\"\n"}});
  const std::string dot = duti::lint::to_dot(r, policy_of(kPolicy));
  EXPECT_NE(dot.find("digraph duti_modules"), std::string::npos);
  EXPECT_NE(dot.find("rank=same; \"util\""), std::string::npos);
  EXPECT_NE(dot.find("\"stats\" -> \"util\";"), std::string::npos);
}

TEST(Fingerprint, InvariantToInputOrder) {
  const std::vector<SourceFile> forward = {
      {"src/util/rng.hpp", "#pragma once\nint util_fn();\n"},
      {"src/stats/h.cpp", "#include \"util/rng.hpp\"\nint f() {\n"
                          "  return 1;\n}\n"}};
  std::vector<SourceFile> reversed(forward.rbegin(), forward.rend());
  const auto a = run(forward);
  const auto b = run(reversed);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, 0u);
}

TEST(Fingerprint, SensitiveToGraphChanges) {
  const auto a = run({{"src/util/rng.hpp", "#pragma once\n"},
                      {"src/stats/h.cpp", "int f() {\n  return 1;\n}\n"}});
  const auto b = run({{"src/util/rng.hpp", "#pragma once\n"},
                      {"src/stats/h.cpp",
                       "#include \"util/rng.hpp\"\nint f() {\n"
                       "  return 1;\n}\n"}});
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

}  // namespace
