#include "pam/util/flags.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace pam {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(args.size()), args.data()));
  return parser;
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser p = Parse({"--name=value", "--count=42"});
  EXPECT_EQ(p.GetString("name", ""), "value");
  EXPECT_EQ(p.GetInt("count", 0), 42);
}

TEST(FlagsTest, SpaceSyntax) {
  FlagParser p = Parse({"--name", "value", "--ratio", "2.5"});
  EXPECT_EQ(p.GetString("name", ""), "value");
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0.0), 2.5);
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  FlagParser p = Parse({"--verbose", "--output", "x"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_EQ(p.GetString("output", ""), "x");
}

TEST(FlagsTest, TrailingBareFlag) {
  FlagParser p = Parse({"--rules"});
  EXPECT_TRUE(p.GetBool("rules", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  FlagParser p = Parse({});
  EXPECT_EQ(p.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(p.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(p.GetBool("missing", false));
  EXPECT_TRUE(p.GetBool("missing", true));
  EXPECT_FALSE(p.Has("missing"));
}

TEST(FlagsTest, PositionalArguments) {
  FlagParser p = Parse({"first", "--flag=1", "second"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "first");
  EXPECT_EQ(p.positional()[1], "second");
}

TEST(FlagsTest, BooleanSpellings) {
  FlagParser p = Parse(
      {"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_FALSE(p.GetBool("e", true));
  EXPECT_FALSE(p.GetBool("f", true));
  EXPECT_TRUE(p.error().empty());
}

TEST(FlagsTest, MalformedBoolNamesTheFlagAndKeepsTheDefault) {
  FlagParser p = Parse({"--rules=ture", "--quiet", "off", "--text=yes"});
  EXPECT_TRUE(p.GetBool("text", false));
  EXPECT_TRUE(p.error().empty());
  EXPECT_FALSE(p.GetBool("rules", false));
  EXPECT_EQ(p.error(),
            "--rules must be true, 1, yes, false, 0 or no, got 'ture'");
  // The first malformed value stays the reported one.
  EXPECT_TRUE(p.GetBool("quiet", true));
  EXPECT_EQ(p.error(),
            "--rules must be true, 1, yes, false, 0 or no, got 'ture'");

  for (const char* bad : {"", "TRUE", "2", "y", "nope", " 1"}) {
    FlagParser q = Parse({"--b", bad});
    EXPECT_TRUE(q.GetBool("b", true)) << "'" << bad << "'";
    EXPECT_FALSE(q.error().empty()) << "'" << bad << "'";
  }
}

TEST(FlagsTest, UnknownFlagDetection) {
  FlagParser p = Parse({"--known=1", "--typo=2"});
  std::vector<std::string> unknown = p.UnknownFlags({"known", "other"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagsTest, EmptyFlagNameIsError) {
  const char* args[] = {"prog", "--"};
  FlagParser p;
  EXPECT_FALSE(p.Parse(2, args));
  EXPECT_FALSE(p.error().empty());
  // The `=` form has the same empty name.
  const char* equals_args[] = {"prog", "--=5"};
  FlagParser q;
  EXPECT_FALSE(q.Parse(2, equals_args));
  EXPECT_FALSE(q.error().empty());
}

TEST(FlagsTest, MalformedNumberNamesTheFlagAndKeepsTheDefault) {
  FlagParser p = Parse({"--ranks=2x", "--minsup", "1,5", "--top", "20"});
  EXPECT_EQ(p.GetInt("top", 0), 20);
  EXPECT_TRUE(p.error().empty());
  EXPECT_EQ(p.GetInt("ranks", 4), 4);
  EXPECT_EQ(p.error(), "--ranks must be an integer, got '2x'");
  // The first malformed number stays the reported one.
  EXPECT_DOUBLE_EQ(p.GetDouble("minsup", 1.0), 1.0);
  EXPECT_EQ(p.error(), "--ranks must be an integer, got '2x'");

  for (const char* bad : {"", "abc", "1.5", "9223372036854775808", " 1 "}) {
    FlagParser q = Parse({"--n", bad});
    EXPECT_EQ(q.GetInt("n", -1), -1) << "'" << bad << "'";
    EXPECT_FALSE(q.error().empty()) << "'" << bad << "'";
  }
  for (const char* bad : {"", "x", "1,5", "1e999", "0.5s"}) {
    FlagParser q = Parse({"--d", bad});
    EXPECT_DOUBLE_EQ(q.GetDouble("d", -1.0), -1.0) << "'" << bad << "'";
    EXPECT_FALSE(q.error().empty()) << "'" << bad << "'";
  }
  FlagParser ok = Parse({"--n=-9223372036854775808", "--d=-2.5e-3"});
  EXPECT_EQ(ok.GetInt("n", 0), INT64_MIN);
  EXPECT_DOUBLE_EQ(ok.GetDouble("d", 0.0), -2.5e-3);
  EXPECT_TRUE(ok.error().empty());
}

TEST(FlagsTest, LastValueWins) {
  FlagParser p = Parse({"--x=1", "--x=2"});
  EXPECT_EQ(p.GetInt("x", 0), 2);
}

}  // namespace
}  // namespace pam
