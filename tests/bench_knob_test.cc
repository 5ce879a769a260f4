// Numeric LINEFS_* bench knobs are parsed strictly: empty input, signs,
// trailing junk, overflow and out-of-range values are rejected, and a bad
// value in the environment ends the bench with a message and a nonzero exit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

#include "bench/harness.h"

namespace linefs::bench {
namespace {

TEST(BenchKnob, AcceptsPlainDecimals) {
  EXPECT_EQ(*ParseKnob<uint64_t>("0"), 0u);
  EXPECT_EQ(*ParseKnob<uint64_t>("1000"), 1000u);
  EXPECT_EQ(*ParseKnob<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_DOUBLE_EQ(*ParseKnob<double>("250000"), 250000.0);
  EXPECT_DOUBLE_EQ(*ParseKnob<double>("1.5e5"), 150000.0);
}

TEST(BenchKnob, RejectsMalformedValues) {
  for (const char* bad : {"", "-1", "-0", "+5", " 5", "5 ", "5x", "abc", "0x10", "1.5"}) {
    EXPECT_FALSE(ParseKnob<uint64_t>(bad).ok()) << "'" << bad << "'";
  }
  for (const char* bad : {"", "-1", "-0.5", "2e5junk", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseKnob<double>(bad).ok()) << "'" << bad << "'";
  }
}

TEST(BenchKnob, RejectsOverflowAndOutOfRange) {
  EXPECT_FALSE(ParseKnob<uint64_t>("18446744073709551616").ok());
  EXPECT_FALSE(ParseKnob<uint64_t>("99999999999999999999999").ok());
  EXPECT_FALSE(ParseKnob<uint64_t>("11", 0, 10).ok());
  EXPECT_TRUE(ParseKnob<uint64_t>("10", 0, 10).ok());
  EXPECT_FALSE(ParseKnob<double>("0.5", 1.0).ok());
  EXPECT_TRUE(ParseKnob<double>("1", 1.0).ok());
}

TEST(BenchKnob, EnvKnobUnsetIsNullopt) {
  ::unsetenv("LINEFS_TEST_KNOB");
  EXPECT_EQ(EnvKnob<uint64_t>("LINEFS_TEST_KNOB"), std::nullopt);
  ::setenv("LINEFS_TEST_KNOB", "42", 1);
  EXPECT_EQ(EnvKnob<uint64_t>("LINEFS_TEST_KNOB"), std::optional<uint64_t>(42));
  ::unsetenv("LINEFS_TEST_KNOB");
}

TEST(BenchKnobDeathTest, MalformedEnvValueExitsNonzero) {
  ::setenv("LINEFS_TEST_KNOB", "-1", 1);
  EXPECT_EXIT(EnvKnob<uint64_t>("LINEFS_TEST_KNOB"), ::testing::ExitedWithCode(2),
              "bad LINEFS_TEST_KNOB='-1': negative value");
  ::setenv("LINEFS_TEST_KNOB", "12abc", 1);
  EXPECT_EXIT(EnvKnob<uint64_t>("LINEFS_TEST_KNOB"), ::testing::ExitedWithCode(2),
              "not a number");
  ::unsetenv("LINEFS_TEST_KNOB");
}

}  // namespace
}  // namespace linefs::bench
