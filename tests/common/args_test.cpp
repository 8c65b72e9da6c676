#include "common/args.h"

#include <gtest/gtest.h>

namespace ptstore {
namespace {

TEST(ParseArg, AcceptsDecimalAndHexInRange) {
  EXPECT_EQ(parse_arg("--n", "42"), 42u);
  EXPECT_EQ(parse_arg("--n", "0x2a"), 42u);
  EXPECT_EQ(parse_arg("--n", "0"), 0u);
  EXPECT_FALSE(parse_arg("--n", "abc"));
  EXPECT_FALSE(parse_arg("--n", "1x"));
  EXPECT_FALSE(parse_arg("--n", "-1"));
  EXPECT_FALSE(parse_arg("--n", "9", 1, 8));
}

TEST(ParseRealArg, AcceptsOnlyAFiniteNumberInRange) {
  EXPECT_EQ(parse_real_arg("--check", "90", 0, 100), 90.0);
  EXPECT_EQ(parse_real_arg("--check", "99.5", 0, 100), 99.5);
  EXPECT_EQ(parse_real_arg("--check", "1e1", 0, 100), 10.0);
  EXPECT_EQ(parse_real_arg("--check", "0", 0, 100), 0.0);
  EXPECT_EQ(parse_real_arg("--check", "100", 0, 100), 100.0);
  for (const char* bad : {"", "abc", "101", "-0.5", "90x", " 90", "+90",
                          "nan", "inf", "0x10", "1e400"}) {
    EXPECT_FALSE(parse_real_arg("--check", bad, 0, 100)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace ptstore
