#include "util/flags.h"

#include <gtest/gtest.h>

namespace cascache::util {
namespace {

TEST(FlagParserTest, DefaultsAppliedImmediately) {
  FlagParser parser;
  std::string s;
  int64_t i = 0;
  double d = 0;
  bool b = true;
  parser.AddString("name", "fallback", "h", &s);
  parser.AddInt64("count", 7, "h", &i);
  parser.AddDouble("ratio", 0.5, "h", &d);
  parser.AddBool("verbose", false, "h", &b);
  EXPECT_EQ(s, "fallback");
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, ParsesEqualsAndSpaceSyntax) {
  FlagParser parser;
  std::string s;
  int64_t i = 0;
  parser.AddString("name", "", "h", &s);
  parser.AddInt64("count", 0, "h", &i);
  const char* argv[] = {"--name=abc", "--count", "42"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(i, 42);
}

TEST(FlagParserTest, BareBooleanFlag) {
  FlagParser parser;
  bool b = false;
  parser.AddBool("verbose", false, "h", &b);
  const char* argv[] = {"--verbose"};
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_TRUE(b);
}

TEST(FlagParserTest, BooleanWithValue) {
  FlagParser parser;
  bool b = true;
  parser.AddBool("verbose", true, "h", &b);
  const char* argv[] = {"--verbose=false"};
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser parser;
  const char* argv[] = {"--nope=1"};
  EXPECT_FALSE(parser.Parse(1, argv).ok());
}

TEST(FlagParserTest, MalformedValuesFail) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  bool b = false;
  parser.AddInt64("i", 0, "h", &i);
  parser.AddUint64("u", 0, "h", &u);
  parser.AddDouble("d", 0, "h", &d);
  parser.AddBool("b", false, "h", &b);
  {
    const char* argv[] = {"--i=abc"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--u=-5"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--d=1.2.3"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
  {
    const char* argv[] = {"--b=maybe"};
    EXPECT_FALSE(parser.Parse(1, argv).ok());
  }
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser parser;
  int64_t i = 0;
  parser.AddInt64("count", 0, "h", &i);
  const char* argv[] = {"--count"};
  EXPECT_FALSE(parser.Parse(1, argv).ok());
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  FlagParser parser;
  std::string s;
  parser.AddString("name", "", "h", &s);
  const char* argv[] = {"first", "--name=x", "second"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(FlagParserTest, UsageListsFlags) {
  FlagParser parser;
  double d = 0;
  parser.AddDouble("ratio", 2.5, "the famous ratio", &d);
  const std::string usage = parser.Usage("prog");
  EXPECT_NE(usage.find("--ratio"), std::string::npos);
  EXPECT_NE(usage.find("the famous ratio"), std::string::npos);
  EXPECT_NE(usage.find("2.5"), std::string::npos);
}

TEST(FlagParserTest, NegativeAndLargeNumbers) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  parser.AddInt64("i", 0, "h", &i);
  parser.AddUint64("u", 0, "h", &u);
  parser.AddDouble("d", 0, "h", &d);
  const char* argv[] = {"--i=-123", "--u=18446744073709551615", "--d=-2.5e3"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(i, -123);
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(d, -2500.0);
}

// Integers past their type's range are errors, not saturated (strtoll's
// ERANGE) or narrowed (a value outside int or uint32_t) values; the
// pointee keeps its previous value.
TEST(FlagParserTest, OutOfRangeIntegersFail) {
  for (const char* arg :
       {"--i64=9223372036854775808", "--i64=-9223372036854775809",
        "--u64=18446744073709551616", "--u64=99999999999999999999",
        "--i32=2147483648", "--i32=-2147483649",
        "--i32=99999999999999999999", "--u32=4294967296",
        "--u32=4294967297", "--u32=-1"}) {
    FlagParser parser;
    int64_t i64 = 1;
    uint64_t u64 = 2;
    int i32 = 3;
    uint32_t u32 = 4;
    parser.AddInt64("i64", 1, "h", &i64);
    parser.AddUint64("u64", 2, "h", &u64);
    parser.AddInt("i32", 3, "h", &i32);
    parser.AddUint32("u32", 4, "h", &u32);
    const char* argv[] = {arg};
    const Status status = parser.Parse(1, argv);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_EQ(i64, 1) << arg;
    EXPECT_EQ(u64, 2u) << arg;
    EXPECT_EQ(i32, 3) << arg;
    EXPECT_EQ(u32, 4u) << arg;
  }
}

TEST(FlagParserTest, NarrowIntegersAcceptTheirWholeRange) {
  FlagParser parser;
  int lo = 0;
  int hi = 0;
  uint32_t u = 0;
  parser.AddInt("lo", 0, "h", &lo);
  parser.AddInt("hi", 0, "h", &hi);
  parser.AddUint32("u", 7, "h", &u);
  EXPECT_EQ(u, 7u);
  const char* argv[] = {"--lo=-2147483648", "--hi=2147483647",
                        "--u=4294967295"};
  ASSERT_TRUE(parser.Parse(3, argv).ok());
  EXPECT_EQ(lo, INT32_MIN);
  EXPECT_EQ(hi, INT32_MAX);
  EXPECT_EQ(u, UINT32_MAX);
  EXPECT_NE(parser.Usage("prog").find("--u (default: 7)"), std::string::npos);
}

TEST(FlagParserTest, WasSetTracksExplicitFlags) {
  FlagParser parser;
  double d = 0;
  bool b = false;
  int64_t i = 0;
  parser.AddDouble("rate", 1.0, "h", &d);
  parser.AddBool("verbose", false, "h", &b);
  parser.AddInt64("count", 5, "h", &i);

  const char* argv[] = {"--rate=2.5", "--verbose"};
  ASSERT_TRUE(parser.Parse(2, argv).ok());
  EXPECT_TRUE(parser.WasSet("rate"));
  EXPECT_TRUE(parser.WasSet("verbose"));
  // Flags left at their defaults are not "set" — the CLI uses this to
  // decide whether a flag should override a fault-config file value.
  EXPECT_FALSE(parser.WasSet("count"));
  EXPECT_FALSE(parser.WasSet("no-such-flag"));

  // Parse resets the set-tracking: a second parse with no args reports
  // everything unset again.
  const char* none[] = {"positional-only"};
  ASSERT_TRUE(parser.Parse(1, none).ok());
  EXPECT_FALSE(parser.WasSet("rate"));
  EXPECT_FALSE(parser.WasSet("verbose"));
}

TEST(SplitCommaListTest, Basic) {
  EXPECT_EQ(SplitCommaList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCommaList("solo"), std::vector<std::string>{"solo"});
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_EQ(SplitCommaList("a,,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCommaList(",x,"), std::vector<std::string>{"x"});
}

}  // namespace
}  // namespace cascache::util
