/**
 * @file
 * parseDecimal, the one unsigned-integer parser: whole tokens only,
 * with "not a number" and "out of range" kept apart.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <system_error>

#include "common/number.h"

namespace mempod {
namespace {

TEST(ParseDecimal, AcceptsWholeDigitRunsOnly)
{
    std::uint64_t v = 7;
    EXPECT_EQ(parseDecimal("0", v), std::errc());
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(parseDecimal("18446744073709551615", v), std::errc());
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "abc", "20000x", "4x2", "-5", "+5", " 5",
                            "5 ", "1e3", "2.5", "0x10"}) {
        v = 7;
        EXPECT_EQ(parseDecimal(bad, v), std::errc::invalid_argument) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
}

TEST(ParseDecimal, OutOfRangeIsItsOwnError)
{
    std::uint64_t wide = 7;
    EXPECT_EQ(parseDecimal("18446744073709551616", wide),
              std::errc::result_out_of_range);
    EXPECT_EQ(wide, 7u);
    std::uint8_t narrow = 7;
    EXPECT_EQ(parseDecimal("255", narrow), std::errc());
    EXPECT_EQ(narrow, 255u);
    EXPECT_EQ(parseDecimal("256", narrow), std::errc::result_out_of_range);
    EXPECT_EQ(narrow, 255u);
    // Junk after the digits is malformed, however long the digits run.
    EXPECT_EQ(parseDecimal("99999999999999999999x", wide),
              std::errc::invalid_argument);
}

} // namespace
} // namespace mempod
