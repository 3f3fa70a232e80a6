// Tests for duti-lint's per-file rules (tools/duti_lint). Each rule gets at
// least one positive fixture (snippet that must be flagged) and one
// negative (clean or out-of-scope snippet), plus coverage for suppression
// parsing, the one ledger that settles per-file and cross-TU findings, the
// JSON report shape and the CLI. The cross-TU passes are tested in
// test_duti_analyze.cpp. Fixtures are raw string literals, so the tree-wide
// `duti_lint` CTest pass does not see their contents.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace {

using duti::lint::Finding;
using duti::lint::LintReport;

// One layer placing every module the fixtures use: a one-file fixture has
// no include edges, and no fixture trips layer-unknown-module.
const duti::lint::LayerPolicy kPolicy{
    {{"util", "dist", "fourier", "core", "sim", "testers", "stats", "chaos",
      "bench", "examples", "tools", "tests"}},
    {}};

LintReport lint(const std::string& path, const std::string& content) {
  return duti::lint::lint_sources({{path, content}}, kPolicy);
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(Registry, RuleNamesAreUniqueAndDescribed) {
  std::set<std::string> names;
  for (const auto& rule : duti::lint::default_rules()) {
    EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
    EXPECT_FALSE(rule.description.empty()) << rule.name;
  }
  // 15 per-file rules, 12 cross-TU rules and the ledger's 3 meta rules.
  EXPECT_EQ(names.size(), 30u);
}

TEST(NoRandomDevice, FlagsUseInSrc) {
  const auto r = lint("src/sim/net.cpp", R"(std::random_device rd;
)");
  EXPECT_EQ(count_rule(r, "no-random-device"), 1u);
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(NoRandomDevice, OutOfScopePathIsClean) {
  const auto r = lint("examples/demo.cpp", R"(std::random_device rd;
)");
  EXPECT_EQ(count_rule(r, "no-random-device"), 0u);
}

TEST(NoRand, FlagsRandAndSrand) {
  const auto r = lint("src/a.cpp", R"(int x = rand();
srand(42);
)");
  EXPECT_EQ(count_rule(r, "no-rand"), 2u);
}

TEST(NoRand, IdentifiersContainingRandAreClean) {
  const auto r = lint("src/a.cpp", R"(int operand(int my_rand);
)");
  EXPECT_EQ(count_rule(r, "no-rand"), 0u);
}

TEST(NoWallClock, FlagsQualifiedNowAndTime) {
  const auto r = lint("src/a.cpp",
                      R"(auto t = std::chrono::steady_clock::now();
auto u = Clock::now();
auto v = time(nullptr);
)");
  EXPECT_EQ(count_rule(r, "no-wall-clock"), 3u);
}

TEST(NoWallClock, TestsDirIsOutOfScope) {
  const auto r =
      lint("tests/test_x.cpp", R"(auto t = std::chrono::steady_clock::now();
)");
  EXPECT_EQ(count_rule(r, "no-wall-clock"), 0u);
}

TEST(NoWallClock, TimePointTypesAreClean) {
  const auto r = lint("src/a.cpp",
                      R"(std::chrono::steady_clock::time_point deadline;
double runtime(int x);
)");
  EXPECT_EQ(count_rule(r, "no-wall-clock"), 0u);
}

TEST(NoDefaultMt19937, FlagsDefaultConstruction) {
  const auto r = lint("src/a.cpp", R"(std::mt19937 gen;
std::mt19937_64 wide{};
)");
  EXPECT_EQ(count_rule(r, "no-default-mt19937"), 2u);
}

TEST(NoDefaultMt19937, ExplicitSeedIsClean) {
  const auto r = lint("src/a.cpp", R"(std::mt19937 gen(seed);
std::mt19937_64 wide{derive_seed(root, 3)};
)");
  EXPECT_EQ(count_rule(r, "no-default-mt19937"), 0u);
}

TEST(NoRawThread, FlagsThreadAsyncAndOpenmp) {
  const auto r = lint("src/core/x.cpp", R"(std::thread t(work);
auto f = std::async(work);
#pragma omp parallel for
)");
  EXPECT_EQ(count_rule(r, "no-raw-thread"), 3u);
}

TEST(NoRawThread, ThreadPoolDirAndStaticsAreExempt) {
  const auto pool = lint("src/util/thread_pool.cpp",
                         R"(std::vector<std::thread> workers_;
)");
  EXPECT_EQ(count_rule(pool, "no-raw-thread"), 0u);
  const auto statics = lint("src/core/x.cpp",
                            R"(unsigned hw = std::thread::hardware_concurrency();
)");
  EXPECT_EQ(count_rule(statics, "no-raw-thread"), 0u);
}

TEST(NoGetenvInLibrary, FlagsEnvironmentReadsUnderSrc) {
  const auto r = lint("src/stats/probe_cache.cpp",
                      R"(const char* mode = std::getenv("DUTI_CACHE");
const char* dir = getenv("DUTI_CACHE_DIR");
const char* safe = secure_getenv("HOME");
)");
  EXPECT_EQ(count_rule(r, "no-getenv"), 3u);
}

TEST(NoGetenvInLibrary, ThreadPoolBenchesTestsAndLookalikesAreClean) {
  // The pool's DUTI_THREADS and the benches' DUTI_BENCH_OUT are the only
  // environment reads outside the tests.
  EXPECT_EQ(count_rule(lint("src/util/thread_pool.cpp",
                            R"(const char* env = std::getenv("DUTI_THREADS");
)"),
                       "no-getenv"),
            0u);
  EXPECT_EQ(count_rule(lint("bench/bench_json.hpp",
                            R"(const char* env = std::getenv("DUTI_BENCH_OUT");
)"),
                       "no-getenv"),
            0u);
  // Benches and examples take flags. Tests (which set the environment to
  // prove the library ignores it) and tools are out of scope.
  for (const auto& [path, findings] :
       {std::pair<const char*, std::size_t>{"bench/bench_common.hpp", 1},
        {"tests/t.cpp", 0},
        {"tools/x.cpp", 0},
        {"examples/demo.cpp", 1}}) {
    EXPECT_EQ(count_rule(lint(path, R"(const char* v = std::getenv("DUTI_CACHE");
)"),
                         "no-getenv"),
              findings)
        << path;
  }
  // Identifiers that merely contain the name are not reads.
  EXPECT_EQ(count_rule(lint("src/a.cpp", R"(bool no_getenv = true;
int getenv_calls = count_getenv(log);
)"),
                       "no-getenv"),
            0u);
}

TEST(NoUnorderedIteration, FlagsRangeForOverUnordered) {
  const auto r = lint("src/stats/agg.cpp",
                      R"(std::unordered_map<int, int> tally;
for (const auto& kv : tally) sum += kv.second;
)");
  EXPECT_EQ(count_rule(r, "no-unordered-iteration"), 1u);
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(NoUnorderedIteration, OrderedMapAndOtherDirsAreClean) {
  const auto ordered = lint("src/stats/agg.cpp",
                            R"(std::map<int, int> tally;
for (const auto& kv : tally) sum += kv.second;
)");
  EXPECT_EQ(count_rule(ordered, "no-unordered-iteration"), 0u);
  const auto elsewhere = lint("src/sim/agg.cpp",
                              R"(std::unordered_map<int, int> tally;
for (const auto& kv : tally) touch(kv);
)");
  EXPECT_EQ(count_rule(elsewhere, "no-unordered-iteration"), 0u);
}

TEST(NoFloatAccumulate, FlagsDoubleAccumulatorInStats) {
  const auto r = lint("src/stats/agg.cpp", R"(double acc = 0.0;
acc += weight(i);
)");
  EXPECT_EQ(count_rule(r, "no-float-accumulate"), 1u);
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(NoFloatAccumulate, IntegerTalliesAreClean) {
  const auto r = lint("src/stats/agg.cpp", R"(std::uint64_t tally = 0;
tally += 1;
)");
  EXPECT_EQ(count_rule(r, "no-float-accumulate"), 0u);
}

TEST(NoFloatAccumulate, FloatLiteralRhsFlaggedWithoutDecl) {
  const auto r = lint("src/stats/agg.cpp", R"(score += 0.5;
)");
  EXPECT_EQ(count_rule(r, "no-float-accumulate"), 1u);
}

TEST(PragmaOnce, MissingGuardIsFlaggedInHeadersOnly) {
  const auto hdr = lint("src/core/x.hpp", R"(int f();
)");
  EXPECT_EQ(count_rule(hdr, "pragma-once"), 1u);
  EXPECT_EQ(hdr.findings[0].line, 1);
  const auto guarded = lint("src/core/x.hpp", R"(#pragma once
int f();
)");
  EXPECT_EQ(count_rule(guarded, "pragma-once"), 0u);
  const auto cpp = lint("src/core/x.cpp", R"(int f() { return 1; }
)");
  EXPECT_EQ(count_rule(cpp, "pragma-once"), 0u);
}

TEST(NoUsingNamespaceHeader, FlagsHeadersNotSources) {
  const auto hdr = lint("src/core/x.hpp", R"(#pragma once
using namespace std;
)");
  EXPECT_EQ(count_rule(hdr, "no-using-namespace-header"), 1u);
  const auto cpp = lint("src/core/x.cpp", R"(using namespace duti;
)");
  EXPECT_EQ(count_rule(cpp, "no-using-namespace-header"), 0u);
}

TEST(NoSideEffectAssert, FlagsMutationsInAssert) {
  const auto r = lint("src/core/x.cpp", R"(assert(x++ > 0);
assert(n = next());
)");
  EXPECT_EQ(count_rule(r, "no-side-effect-assert"), 2u);
}

TEST(NoSideEffectAssert, ComparisonsAndStaticAssertAreClean) {
  const auto r = lint("src/core/x.cpp", R"(assert(x == 1);
assert(a <= b && c >= d && e != f);
static_assert(sizeof(int) == 4);
)");
  EXPECT_EQ(count_rule(r, "no-side-effect-assert"), 0u);
}

TEST(NoExitInLibrary, FlagsProcessKillersUnderSrc) {
  const auto r = lint("src/stats/cache.cpp", R"(std::exit(1);
abort();
std::terminate();
quick_exit(0);
std::_Exit(2);
)");
  EXPECT_EQ(count_rule(r, "no-exit-in-library"), 5u);
}

TEST(NoExitInLibrary, ErrorHeaderTestsAndLookalikesAreClean) {
  // The designated fatal-handler header is the one sanctioned home.
  EXPECT_EQ(count_rule(lint("src/util/error.hpp", R"(std::abort();
)"),
                       "no-exit-in-library"),
            0u);
  // Tests and benches may exit; the rule guards the library only.
  EXPECT_EQ(count_rule(lint("tests/t.cpp", R"(exit(1);
)"),
                       "no-exit-in-library"),
            0u);
  // Identifiers that merely contain a killer name are not calls.
  EXPECT_EQ(count_rule(lint("src/a.cpp", R"(void on_exit_hook();
int exit_code = worker_exit;
set_terminate(handler);
bool aborted = was_aborted(run);
)"),
                       "no-exit-in-library"),
            0u);
}

TEST(NoIntrinsicsOutsideKernels, FlagsIntrinsicsInGeneralSources) {
  const auto r = lint("src/fourier/wht.cpp",
                      R"(#include <immintrin.h>
__m256d v = _mm256_loadu_pd(p);
__m128i w = _mm_add_epi64(a, b);
)");
  EXPECT_EQ(count_rule(r, "no-intrinsics-outside-kernels"), 3u);
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(NoIntrinsicsOutsideKernels, FormerKernelPathsAreFlagged) {
  // No path is exempt: the former kernel files are scanned like every
  // other source.
  const auto kern = lint("src/util/kernels_avx2.cpp",
                         R"(#include <immintrin.h>
__m256i v = _mm256_add_epi64(a, b);
)");
  EXPECT_EQ(count_rule(kern, "no-intrinsics-outside-kernels"), 2u);
  const auto simd = lint("src/util/simd.hpp", R"(#pragma once
#include <immintrin.h>
enum class SimdLevel : int { kScalar = 0 };
)");
  EXPECT_EQ(count_rule(simd, "no-intrinsics-outside-kernels"), 1u);
}

TEST(NoIntrinsicsOutsideKernels, LookalikeIdentifiersAreClean) {
  // "_mm_"/"__m256" embedded inside a longer identifier is not an
  // intrinsic use; only a non-identifier left boundary counts.
  const auto r = lint("src/a.cpp", R"(int comm_mm_size = 0;
double gemm_m128_tile = 1.0;
)");
  EXPECT_EQ(count_rule(r, "no-intrinsics-outside-kernels"), 0u);
}

TEST(NoSerialSweepLoop, FlagsBenchCallingFindMinParamWithoutRunSweep) {
  const auto r = lint("bench/e99_demo.cpp", R"(int main() {
  const auto a = find_min_param(probe, cfg);
  const auto b = find_min_param(probe, bracket, cfg);
}
)");
  EXPECT_EQ(count_rule(r, "no-serial-sweep-loop"), 2u);
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(NoSerialSweepLoop, FileUsingRunSweepIsClean) {
  const auto r = lint("bench/e99_demo.cpp", R"(int main() {
  const auto sweep = run_sweep(points, cfg);
  const auto aux = find_min_param(probe, cfg);
}
)");
  EXPECT_EQ(count_rule(r, "no-serial-sweep-loop"), 0u);
}

TEST(NoSerialSweepLoop, OutOfScopeAndLookalikesAreClean) {
  // src/ and tests/ may call find_min_param freely; the rule is bench-only.
  const auto src = lint("src/stats/harness.cpp",
                        "auto r = find_min_param(probe, cfg);\n");
  EXPECT_EQ(count_rule(src, "no-serial-sweep-loop"), 0u);
  // find_min_param_median and mentions in comments/strings don't count.
  const auto bench = lint("bench/e99_demo.cpp", R"(// find_min_param(
double m = find_min_param_median(make_probe, cfg, 5);
const char* s = "find_min_param(";
)");
  EXPECT_EQ(count_rule(bench, "no-serial-sweep-loop"), 0u);
}

TEST(NoSerialSweepLoop, FileScopeSuppressionApplies) {
  const auto r = lint("bench/e99_demo.cpp",
                      R"(// duti-lint: allow-file(no-serial-sweep-loop) -- categorical axis.
const auto a = find_min_param(probe, cfg);
)");
  EXPECT_EQ(count_rule(r, "no-serial-sweep-loop"), 0u);
}

TEST(NoPerTrialAlloc, FlagsAllocationInsideSimLayerLoops) {
  const auto r = lint("src/sim/runner.cpp", R"(void run() {
  for (int t = 0; t < trials; ++t) {
    auto p = std::make_unique<Player>(j);
    auto q = new Message();
  }
  while (more())
    auto s = std::make_shared<State>();
}
)");
  EXPECT_EQ(count_rule(r, "no-per-trial-alloc"), 3u);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(NoPerTrialAlloc, HoistedAllocationIsClean) {
  const auto r = lint("src/sim/runner.cpp", R"(void run() {
  auto p = std::make_unique<Player>(0);
  std::vector<Message> messages;
  for (int t = 0; t < trials; ++t) {
    messages.resize(k);
    use(*p, messages);
  }
}
)");
  EXPECT_EQ(count_rule(r, "no-per-trial-alloc"), 0u);
}

TEST(NoPerTrialAlloc, OutOfScopePathsAreClean) {
  // The rule polices the sim layer only; testers and benches hoist through
  // their own idioms and tests may allocate freely.
  const auto testers = lint("src/testers/foo.cpp", R"(for (;;) {
  auto p = std::make_unique<Player>(0);
}
)");
  EXPECT_EQ(count_rule(testers, "no-per-trial-alloc"), 0u);
  const auto bench = lint("bench/e99_demo.cpp", R"(while (t--) {
  auto p = new Probe();
}
)");
  EXPECT_EQ(count_rule(bench, "no-per-trial-alloc"), 0u);
}

TEST(NoPerTrialAlloc, LookalikesAndNonLoopScopesAreClean) {
  // "new" inside identifiers/comments/strings, and allocation in straight-
  // line code, must not fire.
  const auto r = lint("src/sim/runner.cpp", R"(int renewal = 0;
// for (;;) { new Player; } in a comment
const char* s = "for (;;) { new Player; }";
auto p = std::make_unique<Player>(0);
)");
  EXPECT_EQ(count_rule(r, "no-per-trial-alloc"), 0u);
}

TEST(NoPerTrialAlloc, LineSuppressionApplies) {
  const auto r = lint("src/sim/runner.cpp", R"(for (int t = 0; t < n; ++t) {
  auto p = std::make_unique<P>();  // duti-lint: allow(no-per-trial-alloc) -- cold setup loop
}
)");
  EXPECT_EQ(count_rule(r, "no-per-trial-alloc"), 0u);
}

TEST(Lexer, CommentsAndStringsAreInvisible) {
  const auto r = lint("src/a.cpp",
                      "// std::random_device in a comment\n"
                      "/* std::rand() in a block comment */\n"
                      "const char* s = \"std::random_device\";\n"
                      "const char* raw = R\"(time(nullptr))\";\n");
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
}

TEST(Lexer, DigitSeparatorIsNotACharLiteral) {
  // A naive lexer treats 1'000'000's quotes as char literals and swallows
  // the rest of the line — which would hide the random_device after it.
  const auto r = lint("src/a.cpp",
                      R"(std::size_t n = 1'000'000; std::random_device rd;
)");
  EXPECT_EQ(count_rule(r, "no-random-device"), 1u);
}

TEST(Lexer, QuoteAfterAKeywordOpensACharLiteral) {
  // In `case '"':` the quote after `case` opens a char literal; read as a
  // digit separator, the '"' would open a string that swallows every line
  // after it, the random_device included.
  const auto r = lint("src/a.cpp",
                      "switch (c) {\n  case '\"':\n    break;\n}\n"
                      "std::random_device rd;\n");
  EXPECT_EQ(count_rule(r, "no-random-device"), 1u);
}

TEST(Suppression, TrailingCommentWithJustificationSuppresses) {
  const auto r = lint(
      "src/a.cpp",
      "auto t = time(nullptr);  // duti-lint: allow(no-wall-clock) -- fixture\n");
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.suppressions_used, 1u);
}

TEST(Suppression, StandaloneCommentCoversNextCodeLine) {
  const auto r = lint("src/a.cpp",
                      "// duti-lint: allow(no-wall-clock) -- multi-line\n"
                      "// justification continues here\n"
                      "auto t = time(nullptr);\n");
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.suppressions_used, 1u);
}

TEST(Suppression, FileScopeAllowCoversWholeFile) {
  const auto r = lint("src/a.cpp",
                      "// duti-lint: allow-file(no-wall-clock) -- fixture\n"
                      "auto t = time(nullptr);\n"
                      "auto u = Clock::now();\n");
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.suppressions_used, 2u);
}

TEST(Suppression, MissingJustificationIsAFindingAndDoesNotApply) {
  const auto r = lint("src/a.cpp",
                      "auto t = time(nullptr);  // duti-lint: allow(no-wall-clock)\n");
  EXPECT_EQ(count_rule(r, "bare-suppression"), 1u);
  EXPECT_EQ(count_rule(r, "no-wall-clock"), 1u);  // still reported
  EXPECT_EQ(r.suppressions_used, 0u);
}

TEST(Suppression, UnknownRuleNameIsAFinding) {
  const auto r = lint("src/a.cpp",
                      "// duti-lint: allow(no-such-rule) -- justified\n"
                      "int x = 0;\n");
  EXPECT_EQ(count_rule(r, "unknown-rule"), 1u);
}

TEST(Suppression, WrongRuleDoesNotSuppressOtherFindings) {
  const auto r = lint(
      "src/a.cpp",
      "auto t = time(nullptr);  // duti-lint: allow(no-rand) -- wrong rule\n");
  EXPECT_EQ(count_rule(r, "no-wall-clock"), 1u);
  EXPECT_EQ(r.suppressions_used, 0u);
}

TEST(Report, RuleCountsCoverFullRegistryIncludingZeros) {
  const auto r = lint("src/a.cpp", R"(int x = rand();
)");
  for (const auto& rule : duti::lint::default_rules()) {
    ASSERT_TRUE(r.rule_counts.count(rule.name)) << rule.name;
  }
  EXPECT_EQ(r.rule_counts.at("no-rand"), 1u);
  EXPECT_EQ(r.rule_counts.at("no-random-device"), 0u);
}

TEST(Report, JsonShapeHasStableKeysAndAnchors) {
  const auto r = lint("src/a.cpp", R"(int x = rand();
)");
  const std::string json = duti::lint::to_json(r);
  EXPECT_NE(json.find("\"tool\": \"duti_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_findings\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule_counts\""), std::string::npos);
  EXPECT_NE(json.find("\"no-rand\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"no-wall-clock\": 0"), std::string::npos);
  EXPECT_NE(json.find("{\"file\": \"src/a.cpp\", \"line\": 1, "
                      "\"rule\": \"no-rand\""),
            std::string::npos);
}

TEST(Report, HumanOutputAnchorsFileAndLine) {
  const auto r = lint("src/a.cpp", R"(int x = rand();
)");
  const std::string human = duti::lint::to_human(r);
  EXPECT_NE(human.find("src/a.cpp:1: [no-rand]"), std::string::npos);
  EXPECT_NE(human.find("1 finding"), std::string::npos);
}

TEST(StaleSuppression, UnusedLineScopedSuppressionIsFlagged) {
  const auto r = lint("src/a.cpp",
                      R"(int x = 1;  // duti-lint: allow(no-rand) -- why
)");
  ASSERT_EQ(count_rule(r, "stale-suppression"), 1u);
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_NE(r.findings[0].message.find("'no-rand'"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("on its line"), std::string::npos);
}

TEST(StaleSuppression, UnusedFileScopedSuppressionIsFlagged) {
  const auto r = lint("src/a.cpp",
                      R"(// duti-lint: allow-file(no-rand) -- why
int x = 1;
)");
  ASSERT_EQ(count_rule(r, "stale-suppression"), 1u);
  EXPECT_NE(r.findings[0].message.find("in this file"), std::string::npos);
}

TEST(StaleSuppression, CreditedSuppressionIsNotStale) {
  const auto r = lint("src/a.cpp",
                      R"(int x = rand();  // duti-lint: allow(no-rand) -- why
)");
  EXPECT_EQ(count_rule(r, "stale-suppression"), 0u);
  EXPECT_EQ(count_rule(r, "no-rand"), 0u);
  EXPECT_EQ(r.suppressions_used, 1u);
}

TEST(StaleSuppression, WrongLineSuppressionIsStaleAndFindingSurvives) {
  const auto r = lint("src/a.cpp",
                      R"(int x = 1;  // duti-lint: allow(no-rand) -- why
int y = rand();
)");
  EXPECT_EQ(count_rule(r, "stale-suppression"), 1u);
  EXPECT_EQ(count_rule(r, "no-rand"), 1u);
}

TEST(Ledger, OneDirectiveCreditsAPerFileAndACrossTuFinding) {
  // The shape of src/stats/shape.cpp's curve fit: one directive names a
  // per-file rule and a cross-TU rule, and each credits its own finding.
  const auto r = lint("src/stats/fit.cpp", R"(double fit(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    // duti-lint: allow(no-float-accumulate, pure-float-reduce) -- fixture
    acc += term(i);
  }
  return acc;
}
)");
  EXPECT_TRUE(r.findings.empty()) << duti::lint::to_human(r);
  EXPECT_EQ(r.suppressions_used, 2u);
}

TEST(Ledger, StaleDirectivesOfBothKindsAreFlaggedOnce) {
  const auto r = lint("src/stats/fit.cpp",
                      R"(int x = 1;  // duti-lint: allow(no-rand) -- why
int y = 2;  // duti-lint: allow(rng-copy) -- why
)");
  ASSERT_EQ(r.findings.size(), 2u) << duti::lint::to_human(r);
  EXPECT_EQ(count_rule(r, "stale-suppression"), 2u);
  EXPECT_NE(r.findings[0].message.find("'no-rand'"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("'rng-copy'"), std::string::npos);
}

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(duti::bench::json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, NewlineAndTab) {
  EXPECT_EQ(duti::bench::json_escape("a\nb\tc"), "a\\nb\\tc");
}

TEST(JsonEscape, ControlCharactersUseUnicodeEscapes) {
  EXPECT_EQ(duti::bench::json_escape(std::string("\x01\x1f")),
            "\\u0001\\u001f");
}

TEST(JsonEscape, NonAsciiUtf8PassesThrough) {
  const std::string mu = "\xce\xbc";  // U+03BC in UTF-8
  EXPECT_EQ(duti::bench::json_escape(mu), mu);
}

TEST(JsonEscape, EscapedMessageStaysInsideJsonString) {
  duti::lint::LintReport r;
  r.findings.push_back(
      {"src/a.cpp", 1, "no-rand", "say \"no\" to rand\\srand"});
  r.rule_counts["no-rand"] = 1;
  r.files_scanned = 1;
  const std::string json = duti::lint::to_json(r);
  EXPECT_NE(json.find("say \\\"no\\\" to rand\\\\srand"), std::string::npos);
  EXPECT_EQ(json.find("say \"no\""), std::string::npos);
}

// The CLI exit-code contract (0 clean, 1 findings, 2 usage/IO), pinned
// in-process against a small on-disk tree.
class LintCli : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() / "duti_lint_cli_tree";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "src/util");
    std::filesystem::create_directories(root_ / "src/stats");
    std::filesystem::create_directories(root_ / "tools/duti_lint");
    write("tools/duti_lint/layers.txt", "layer util\nlayer stats\n");
    write("src/clean.cpp", "int x = 1;\n");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel, std::ios::binary);
    out << content;
  }

  int cli(const std::vector<std::string>& extra, std::string* stdout_text,
          std::string* stderr_text) {
    std::vector<std::string> args = {"duti_lint", "--root", root_.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const auto& a : args) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int code = duti::lint::run_lint_cli(static_cast<int>(argv.size()),
                                              argv.data(), out, err);
    if (stdout_text != nullptr) *stdout_text = out.str();
    if (stderr_text != nullptr) *stderr_text = err.str();
    return code;
  }

  std::filesystem::path root_;
};

TEST_F(LintCli, CleanTreeExitsZero) {
  std::string out;
  EXPECT_EQ(cli({}, &out, nullptr), 0);
  EXPECT_NE(out.find("0 findings"), std::string::npos);
}

TEST_F(LintCli, FindingsExitOne) {
  write("src/dirty.cpp", "int x = rand();\n");
  std::string out;
  EXPECT_EQ(cli({}, &out, nullptr), 1);
  EXPECT_NE(out.find("no-rand"), std::string::npos);
}

TEST_F(LintCli, CrossTuFindingExitsOne) {
  write("src/util/bad.hpp", "#pragma once\n#include \"stats/s.hpp\"\n");
  write("src/stats/s.hpp", "#pragma once\n");
  std::string out;
  EXPECT_EQ(cli({}, &out, nullptr), 1);
  EXPECT_NE(out.find("layer-violation"), std::string::npos);
}

TEST_F(LintCli, OverlappingPathsScanEachFileOnce) {
  // A second copy of util/rng.hpp would make the include ambiguous and the
  // directive stale.
  write("src/util/rng.hpp", "#pragma once\n"
                            "// duti-lint: allow(no-rand) -- fixture\n"
                            "int x = rand();\n");
  write("src/stats/s.cpp", "#include \"rng.hpp\"\n");
  std::string out;
  EXPECT_EQ(cli({"src", "src/util"}, &out, nullptr), 0) << out;
  EXPECT_NE(out.find("0 findings in 3 files"), std::string::npos) << out;
  EXPECT_NE(out.find("includes=1 "), std::string::npos) << out;
}

TEST_F(LintCli, ListRulesExitsZero) {
  std::string out;
  EXPECT_EQ(cli({"--list-rules"}, &out, nullptr), 0);
  EXPECT_NE(out.find("no-rand"), std::string::npos);
  EXPECT_NE(out.find("pure-float-reduce"), std::string::npos);
  EXPECT_NE(out.find("stale-suppression"), std::string::npos);
}

TEST_F(LintCli, UnknownFlagExitsTwoWithUsage) {
  std::string err;
  EXPECT_EQ(cli({"--bogus"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown option '--bogus'"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(LintCli, BadRootExitsTwo) {
  std::vector<const char*> argv = {"duti_lint", "--root", "/no/such/root"};
  std::ostringstream out, err;
  EXPECT_EQ(duti::lint::run_lint_cli(static_cast<int>(argv.size()),
                                     argv.data(), out, err),
            2);
  EXPECT_NE(err.str().find("not a directory"), std::string::npos);
}

TEST_F(LintCli, MissingLayerPolicyExitsTwo) {
  std::filesystem::remove(root_ / "tools/duti_lint/layers.txt");
  std::string err;
  EXPECT_EQ(cli({}, nullptr, &err), 2);
  EXPECT_NE(err.find("tools/duti_lint/layers.txt"), std::string::npos);
}

TEST_F(LintCli, JsonReportLandsInOutFile) {
  const std::string out_file = (root_ / "report.json").string();
  EXPECT_EQ(cli({"--json", "--out", out_file}, nullptr, nullptr), 0);
  std::ifstream in(out_file, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"tool\": \"duti_lint\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"graph\": {"), std::string::npos);
}

TEST_F(LintCli, UnwritableOutExitsTwo) {
  std::string err;
  EXPECT_EQ(cli({"--json", "--out",
                 (root_ / "no_such_dir/report.json").string()},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("cannot write"), std::string::npos);
}

}  // namespace
