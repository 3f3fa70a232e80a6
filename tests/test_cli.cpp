#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace duti {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const auto cli = make({"--n=1024", "--eps=0.25"});
  EXPECT_EQ(cli.get_uint<std::uint64_t>("n", 0), 1024u);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.25);
}

TEST(Cli, SpaceSyntax) {
  const auto cli = make({"--n", "2048"});
  EXPECT_EQ(cli.get_uint<std::uint64_t>("n", 0), 2048u);
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenMissing) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_uint<unsigned>("n", 7), 7u);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("mode", "fast"), "fast");
  EXPECT_FALSE(cli.get_bool("verbose", false));
}

TEST(Cli, IntList) {
  const auto cli = make({"--ks=1,2,4,8"});
  const auto ks = cli.get_uint_list<std::int64_t>("ks", {});
  ASSERT_EQ(ks.size(), 4u);
  EXPECT_EQ(ks[0], 1);
  EXPECT_EQ(ks[3], 8);
}

TEST(Cli, IntListFallback) {
  const auto cli = make({});
  const auto ks = cli.get_uint_list<std::int64_t>("ks", {3, 5});
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[1], 5);
}

TEST(Cli, MalformedValuesThrow) {
  const auto cli = make({"--n=abc", "--b=maybe", "--ks=1,x"});
  EXPECT_THROW((void)cli.get_uint<unsigned>("n", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_bool("b", false), InvalidArgument);
  EXPECT_THROW(cli.get_uint_list<std::int64_t>("ks", {}), InvalidArgument);
}

TEST(Cli, TrailingCharactersThrow) {
  const auto cli =
      make({"--trials=150x", "--eps=0.5.3", "--n=1e3", "--ks=2,4x"});
  EXPECT_THROW((void)cli.get_uint<std::size_t>("trials", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_double("eps", 0.0), InvalidArgument);
  EXPECT_THROW((void)cli.get_uint<std::uint64_t>("n", 0), InvalidArgument);
  EXPECT_THROW(cli.get_uint_list<std::int64_t>("ks", {}), InvalidArgument);
}

// Expects `call` to throw InvalidArgument naming --<flag> and `value`.
template <typename Call>
void expect_throws_naming(Call call, const std::string& flag,
                          const std::string& value) {
  try {
    (void)call();
    ADD_FAILURE() << "--" << flag << "=" << value << " did not throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(Cli, UnsignedGettersRejectNegativeAndOutOfRangeValues) {
  // A negative value used to wrap at the call site's cast: --k=-1 became
  // 2^32 - 1 players, --mc-trials=-1 2^64 - 1 trials.
  const auto cli =
      make({"--k=-1", "--mc-trials=-1", "--k32=4294967296", "--seeds=+5",
            "--ks=2,-4", "--ts=1,9223372036854775808", "--reps=2147483648"});
  expect_throws_naming([&] { return cli.get_uint<unsigned>("k", 60); }, "k",
                       "-1");
  expect_throws_naming(
      [&] { return cli.get_uint<std::size_t>("mc-trials", 1); }, "mc-trials",
      "-1");
  expect_throws_naming([&] { return cli.get_uint<unsigned>("k32", 1); },
                       "k32", "4294967296");
  expect_throws_naming([&] { return cli.get_uint<std::uint32_t>("seeds", 1); },
                       "seeds", "+5");
  expect_throws_naming(
      [&] { return cli.get_uint_list<std::int64_t>("ks", {1}); }, "ks",
      "2,-4");
  expect_throws_naming(
      [&] { return cli.get_uint_list<std::int64_t>("ts", {1}); }, "ts",
      "9223372036854775808");
  expect_throws_naming([&] { return cli.get_uint<int>("reps", 1); }, "reps",
                       "2147483648");
}

TEST(Cli, UnsignedGettersTakeTheirWholeRange) {
  const auto cli = make({"--seed=18446744073709551615", "--k=4294967295",
                         "--zero=0", "--ks=0,9223372036854775807"});
  EXPECT_EQ(cli.get_uint<std::uint64_t>("seed", 1), ~0ULL);
  EXPECT_EQ(cli.get_uint<unsigned>("k", 1), 4294967295u);
  EXPECT_EQ(cli.get_uint<int>("zero", 1), 0);
  EXPECT_EQ(cli.get_uint_list<std::int64_t>("ks", {1}),
            (std::vector<std::int64_t>{0, 9223372036854775807LL}));
}

TEST(Cli, ArgumentThatIsNoFlagThrows) {
  try {
    (void)make({"first", "--n=1"});
    ADD_FAILURE() << "a non-flag argument did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'first'"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, HelpDetected) {
  EXPECT_TRUE(make({"--help"}).help_requested());
  EXPECT_TRUE(make({"-h"}).help_requested());
  EXPECT_FALSE(make({}).help_requested());
}

TEST(Cli, EnvironmentSetsNoFlag) {
  ::setenv("DUTI_N", "1", 1);
  const auto cli = make({});
  EXPECT_EQ(cli.get_uint<unsigned>("n", 7), 7u);
  ::unsetenv("DUTI_N");
}

TEST(Cli, UnreadFlagsAreRejected) {
  // Every flag a getter asked for is read, whether or not it parsed to the
  // fallback; each one given but never asked for is named.
  const auto cli = make({"--quick", "--kss=16", "--trails=5", "--n=8"});
  EXPECT_EQ(cli.get_uint<unsigned>("n", 1), 8u);
  EXPECT_TRUE(cli.get_bool("quick", false));
  (void)cli.get_uint_list<unsigned>("ks", {2});
  (void)cli.get_uint<unsigned>("trials", 150);
  try {
    cli.reject_unread();
    ADD_FAILURE() << "unread flags were accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--kss"), std::string::npos) << what;
    EXPECT_NE(what.find("--trails"), std::string::npos) << what;
    EXPECT_EQ(what.find("--n"), std::string::npos) << what;
    EXPECT_EQ(what.find("--quick"), std::string::npos) << what;
  }
  (void)cli.get_string("kss", "");
  (void)cli.get_double("trails", 0.0);
  EXPECT_NO_THROW(cli.reject_unread());
  // --help is not a flag.
  EXPECT_NO_THROW(make({"--help"}).reject_unread());
  EXPECT_NO_THROW(make({}).reject_unread());
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=on"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(make({"--a=off"}).get_bool("a", true));
  EXPECT_FALSE(make({"--a=0"}).get_bool("a", true));
}

}  // namespace
}  // namespace duti
