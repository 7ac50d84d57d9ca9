#include "common/argparse.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ht {
namespace {

TEST(ArgParseTokens, UnsignedAcceptsWholeDecimalOrHex) {
  const std::vector<std::pair<std::string, uint64_t>> accepted = {
      {"0", 0},
      {"42", 42},
      {"007", 7},
      {"0x2a", 42},
      {"0X2A", 42},
      {"800000", 800000},
      {"18446744073709551615", UINT64_MAX},
      {"0xffffffffffffffff", UINT64_MAX},
  };
  for (const auto& [text, want] : accepted) {
    uint64_t value = 1;
    EXPECT_TRUE(ParseUintToken(text, &value)) << text;
    EXPECT_EQ(value, want) << text;
  }
  for (const std::string text :
       {"", "abc", "8e5", "1.5", "-1", "+1", " 1", "1 ", "12x", "0x", "0xg",
        "0x-1", "18446744073709551616", "0x10000000000000000"}) {
    uint64_t value = 7;
    EXPECT_FALSE(ParseUintToken(text, &value)) << text;
    EXPECT_EQ(value, 7u) << text;
  }
}

TEST(ArgParseTokens, SignedAddsOnlyALeadingMinus) {
  const std::vector<std::pair<std::string, int64_t>> accepted = {
      {"-1", -1},
      {"3", 3},
      {"-0x10", -16},
      {"9223372036854775807", INT64_MAX},
      {"-9223372036854775808", INT64_MIN},
  };
  for (const auto& [text, want] : accepted) {
    int64_t value = 1;
    EXPECT_TRUE(ParseIntToken(text, &value)) << text;
    EXPECT_EQ(value, want) << text;
  }
  for (const std::string text :
       {"", "-", "--1", "+1", "1-", "9223372036854775808", "-9223372036854775809"}) {
    int64_t value = 7;
    EXPECT_FALSE(ParseIntToken(text, &value)) << text;
    EXPECT_EQ(value, 7) << text;
  }
}

TEST(ArgParseTokens, NumberIsAWholeFiniteToken) {
  const std::vector<std::pair<std::string, double>> accepted = {
      {"0", 0.0}, {"0.02", 0.02}, {"1", 1.0}, {"8e5", 8e5}, {"-0.5", -0.5}};
  for (const auto& [text, want] : accepted) {
    double value = 1.0;
    EXPECT_TRUE(ParseNumberToken(text, &value)) << text;
    EXPECT_EQ(value, want) << text;
  }
  for (const std::string text : {"", "bogus", "0.5x", " 1", "+1", "inf", "nan", "1e999"}) {
    double value = 7.0;
    EXPECT_FALSE(ParseNumberToken(text, &value)) << text;
    EXPECT_EQ(value, 7.0) << text;
  }
}

TEST(ArgParseTokens, ShardIsKOverNWithKInRange) {
  uint32_t index = 0;
  uint32_t count = 0;
  EXPECT_TRUE(ParseShard("2/3", &index, &count));
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(count, 3u);
  for (const char* text : {"3/2", "0/2", "1/0", "1", "/2", "1/", "a/2", "1/2x", "-1/2",
                           "1/4294967296"}) {
    EXPECT_FALSE(ParseShard(text, &index, &count)) << text;
  }
}

TEST(ArgParserDeathTest, MalformedNumericValueExitsNamingTheFlag) {
  const auto parse = [](std::vector<std::string> args) {
    ArgParser parser("tool", "test");
    parser.Option("cycles", "N", "budget", "1").Option("seeds", "LIST", "seeds", "0");
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
    return parser;
  };
  const ArgParser good = parse({"tool", "--cycles=0x10", "--seeds", "1,0x2a"});
  EXPECT_EQ(good.GetUint("cycles"), 16u);
  EXPECT_EQ(good.GetUints("seeds"), (std::vector<uint64_t>{1, 42}));

  const ArgParser bad_scalar = parse({"tool", "--cycles", "abc"});
  EXPECT_EXIT(bad_scalar.GetUint("cycles"), testing::ExitedWithCode(2),
              "tool: error: bad --cycles abc");
  const ArgParser bad_item = parse({"tool", "--seeds=1,8e5"});
  EXPECT_EXIT(bad_item.GetUints("seeds"), testing::ExitedWithCode(2),
              "tool: error: bad --seeds 8e5");
  EXPECT_EXIT(bad_item.GetInts("seeds"), testing::ExitedWithCode(2),
              "tool: error: bad --seeds 8e5");
}

}  // namespace
}  // namespace ht
