#include "util/flags.h"

#include <gtest/gtest.h>

namespace sss {
namespace {

FlagSet MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  auto parsed =
      FlagSet::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).ValueOrDie();
}

TEST(FlagsTest, EmptyCommandLine) {
  FlagSet flags = MustParse({});
  EXPECT_FALSE(flags.Has("anything"));
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagsTest, SpaceSeparatedValue) {
  FlagSet flags = MustParse({"--name", "value"});
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(*flags.GetString("name", ""), "value");
}

TEST(FlagsTest, EqualsSeparatedValue) {
  FlagSet flags = MustParse({"--key=some=thing"});
  EXPECT_EQ(*flags.GetString("key", ""), "some=thing");
}

TEST(FlagsTest, BooleanSwitch) {
  FlagSet flags = MustParse({"--verbose", "--count", "3"});
  EXPECT_TRUE(flags.Has("verbose"));
  auto b = flags.GetBool("verbose", false);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  EXPECT_FALSE(*flags.GetBool("missing", false));
}

TEST(FlagsTest, BooleanExplicitValues) {
  FlagSet flags = MustParse({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(*flags.GetBool("a", false));
  EXPECT_FALSE(*flags.GetBool("b", true));
  EXPECT_TRUE(*flags.GetBool("c", false));
  EXPECT_FALSE(*flags.GetBool("d", true));
}

TEST(FlagsTest, BooleanGarbageIsInvalid) {
  FlagSet flags = MustParse({"--flag=maybe"});
  EXPECT_FALSE(flags.GetBool("flag", false).ok());
}

TEST(FlagsTest, IntegerValues) {
  FlagSet flags = MustParse({"--n", "42", "--neg=-7"});
  EXPECT_EQ(*flags.GetInt("n", 0), 42);
  EXPECT_EQ(*flags.GetInt("neg", 0), -7);
  EXPECT_EQ(*flags.GetInt("missing", 99), 99);
}

TEST(FlagsTest, IntegerGarbageIsInvalid) {
  FlagSet flags = MustParse({"--n", "4x2"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
}

TEST(FlagsTest, DanglingValueFlagIsInvalidWhenQueriedAsInt) {
  FlagSet flags = MustParse({"--n"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
}

// A bare string flag is a usage error, read like any other flag: it must
// not fall back to the default nor surface later as an unknown flag.
TEST(FlagsTest, DanglingValueFlagIsInvalidWhenQueriedAsString) {
  FlagSet flags = MustParse({"--engine", "--port", "7"});
  const Result<std::string> engine = flags.GetString("engine", "scan");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().message(), "flag --engine requires a value");
  EXPECT_EQ(*flags.GetString("missing", "fallback"), "fallback");
  (void)flags.GetInt("port", 0);
  EXPECT_TRUE(flags.UnreadFlags().empty());
}

TEST(FlagsTest, DoubleValues) {
  FlagSet flags = MustParse({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(*flags.GetDouble("scale", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(*flags.GetDouble("missing", 1.5), 1.5);
}

TEST(FlagsTest, PositionalArguments) {
  FlagSet flags = MustParse({"first", "--k", "3", "second"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(*flags.GetInt("k", 0), 3);
}

TEST(FlagsTest, NegativeNumberConsumedAsValue) {
  // "-7" does not start with "--", so it is a value, not a flag.
  FlagSet flags = MustParse({"--offset", "-7"});
  EXPECT_EQ(*flags.GetInt("offset", 0), -7);
}

TEST(FlagsTest, LastOccurrenceWins) {
  FlagSet flags = MustParse({"--k=1", "--k=2"});
  EXPECT_EQ(*flags.GetInt("k", 0), 2);
}

TEST(FlagsTest, UnreadFlagsReported) {
  FlagSet flags = MustParse({"--used=1", "--typo=2"});
  (void)flags.GetInt("used", 0);
  EXPECT_EQ(flags.UnreadFlags(), (std::vector<std::string>{"typo"}));
}

}  // namespace
}  // namespace sss
