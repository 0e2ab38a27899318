#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/schedule.h"
#include "vod/overload.h"

namespace st {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValue) {
  const Flags flags = parse({"--users", "500"});
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.getInt("users", 0), 500);
}

TEST(Flags, EqualsSeparatedValue) {
  const Flags flags = parse({"--seed=42"});
  EXPECT_EQ(flags.getInt("seed", 0), 42);
}

TEST(Flags, BareBooleanFlag) {
  const Flags flags = parse({"--planetlab"});
  EXPECT_TRUE(flags.getBool("planetlab", false));
  EXPECT_TRUE(flags.has("planetlab"));
}

TEST(Flags, BooleanFalseValues) {
  EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
  EXPECT_TRUE(parse({"--x=yes"}).getBool("x", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.getInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.getDouble("missing", 2.5), 2.5);
  EXPECT_EQ(flags.getString("missing", "abc"), "abc");
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, DoubleParsing) {
  const Flags flags = parse({"--ratio", "0.75"});
  EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 0.0), 0.75);
}

TEST(Flags, NonFlagTokenIsError) {
  const Flags flags = parse({"stray"});
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("stray"), std::string::npos);
}

TEST(Flags, BooleanFollowedByFlag) {
  const Flags flags = parse({"--verbose", "--users", "10"});
  EXPECT_TRUE(flags.getBool("verbose", false));
  EXPECT_EQ(flags.getInt("users", 0), 10);
}

TEST(Flags, UnconsumedTracksUnqueriedFlags) {
  const Flags flags = parse({"--known", "1", "--typo", "2"});
  EXPECT_EQ(flags.getInt("known", 0), 1);
  const auto leftover = flags.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Flags, NegativeNumbersAsValues) {
  // "-5" does not start with "--", so it parses as a value.
  const Flags flags = parse({"--offset", "-5"});
  EXPECT_EQ(flags.getInt("offset", 0), -5);
}

// A numeric value that does not parse whole is a flag error naming the flag
// and the value; the getter falls back instead of running with 0.

TEST(Flags, NonNumericIntegerIsError) {
  const Flags flags = parse({"--users", "abc"});
  EXPECT_TRUE(flags.ok());  // parsing argv alone accepts any string
  EXPECT_EQ(flags.getInt("users", 7), 7);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--users"), std::string::npos) << flags.error();
  EXPECT_NE(flags.error().find("'abc'"), std::string::npos) << flags.error();
}

TEST(Flags, TrailingGarbageIntegerIsError) {
  const Flags flags = parse({"--users", "12x"});
  EXPECT_EQ(flags.getInt("users", 7), 7);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("'12x'"), std::string::npos) << flags.error();
}

TEST(Flags, EmptyIntegerIsError) {
  const Flags flags = parse({"--users="});
  EXPECT_EQ(flags.getInt("users", 7), 7);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--users"), std::string::npos) << flags.error();
}

TEST(Flags, OverflowingIntegerIsError) {
  const Flags flags = parse({"--seed", "99999999999999999999"});
  EXPECT_EQ(flags.getInt("seed", 1), 1);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--seed"), std::string::npos) << flags.error();
  EXPECT_NE(flags.error().find("99999999999999999999"), std::string::npos);
  EXPECT_NE(flags.error().find("range"), std::string::npos) << flags.error();
}

TEST(Flags, IntegerRangeLimitsStillParse) {
  const Flags flags = parse({"--lo", "-9223372036854775808", "--hi",
                             "9223372036854775807"});
  EXPECT_EQ(flags.getInt("lo", 0), INT64_MIN);
  EXPECT_EQ(flags.getInt("hi", 0), INT64_MAX);
  EXPECT_TRUE(flags.ok());
}

TEST(Flags, MalformedDoublesAreErrors) {
  for (const char* bad : {"abc", "0.5x", "", "1e999", "nan", "inf"}) {
    const std::string arg = std::string("--ratio=") + bad;
    const Flags flags = parse({arg.c_str()});
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 2.5), 2.5) << bad;
    EXPECT_FALSE(flags.ok()) << bad;
    EXPECT_NE(flags.error().find("--ratio"), std::string::npos) << bad;
  }
}

TEST(Flags, FirstRejectedValueIsReported) {
  const Flags flags = parse({"--users", "abc", "--seed", "x1"});
  (void)flags.getInt("users", 0);
  (void)flags.getInt("seed", 0);
  EXPECT_NE(flags.error().find("--users"), std::string::npos) << flags.error();
  EXPECT_EQ(flags.error().find("--seed"), std::string::npos) << flags.error();
}

// The CLI fail-fast contract: a rejected --faults / --overload spec names the
// offending token so the operator does not have to diff a long spec by eye,
// and each parser publishes its accepted grammar for the error message.

TEST(SpecErrors, FaultParseNamesOffendingToken) {
  fault::Schedule schedule;
  std::string error;
  EXPECT_FALSE(fault::Schedule::parse("crash:t=10,zork=1", &schedule, &error));
  EXPECT_NE(error.find("zork"), std::string::npos);
  EXPECT_FALSE(
      fault::Schedule::parse("meltdown:t=10", &schedule, &error));
  EXPECT_NE(error.find("meltdown"), std::string::npos);
}

TEST(SpecErrors, FaultGrammarListsKindsAndKeys) {
  const std::string grammar = fault::Schedule::grammar();
  for (const char* token :
       {"crash", "blackhole", "loss", "partition", "outage", "t", "dur"}) {
    EXPECT_NE(grammar.find(token), std::string::npos) << token;
  }
}

TEST(SpecErrors, OverloadParseNamesOffendingToken) {
  vod::OverloadConfig config;
  std::string error;
  EXPECT_FALSE(
      vod::OverloadConfig::parse("floor_kbps=200,bogus=3", &config, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(vod::OverloadConfig::parse("queue=nope", &config, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(SpecErrors, OverloadGrammarListsKeys) {
  const std::string grammar = vod::OverloadConfig::grammar();
  for (const char* token : {"floor_kbps", "queue", "deadline", "credit",
                            "contention", "breaker", "cooldown", "slo"}) {
    EXPECT_NE(grammar.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace st
