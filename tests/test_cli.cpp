#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

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
  EXPECT_EQ(cli.get_int("n", 0), 1024);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.25);
}

TEST(Cli, SpaceSyntax) {
  const auto cli = make({"--n", "2048"});
  EXPECT_EQ(cli.get_int("n", 0), 2048);
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenMissing) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("mode", "fast"), "fast");
  EXPECT_FALSE(cli.get_bool("verbose", false));
}

TEST(Cli, IntList) {
  const auto cli = make({"--ks=1,2,4,8"});
  const auto ks = cli.get_int_list("ks", {});
  ASSERT_EQ(ks.size(), 4u);
  EXPECT_EQ(ks[0], 1);
  EXPECT_EQ(ks[3], 8);
}

TEST(Cli, IntListFallback) {
  const auto cli = make({});
  const auto ks = cli.get_int_list("ks", {3, 5});
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[1], 5);
}

TEST(Cli, MalformedValuesThrow) {
  const auto cli = make({"--n=abc", "--b=maybe", "--ks=1,x"});
  EXPECT_THROW((void)cli.get_int("n", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_bool("b", false), InvalidArgument);
  EXPECT_THROW(cli.get_int_list("ks", {}), InvalidArgument);
}

TEST(Cli, TrailingCharactersThrow) {
  const auto cli =
      make({"--trials=150x", "--eps=0.5.3", "--n=1e3", "--ks=2,4x"});
  EXPECT_THROW((void)cli.get_int("trials", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_double("eps", 0.0), InvalidArgument);
  EXPECT_THROW((void)cli.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(cli.get_int_list("ks", {}), InvalidArgument);
}

TEST(Cli, Positional) {
  const auto cli = make({"first", "--n=1", "second"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, HelpDetected) {
  EXPECT_TRUE(make({"--help"}).help_requested());
  EXPECT_TRUE(make({"-h"}).help_requested());
  EXPECT_FALSE(make({}).help_requested());
}

TEST(Cli, EnvironmentSetsNoFlag) {
  ::setenv("DUTI_N", "1", 1);
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  ::unsetenv("DUTI_N");
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
