/**
 * @file
 * Locale independence of every number the repo byte-compares: the
 * stats-JSON double renderer and the report table formatter must emit
 * a '.' decimal point even under an LC_NUMERIC locale whose separator
 * is ',' — otherwise goldens and `diff -r` determinism checks break
 * on localized hosts — and the JSON reader must still read one. All
 * three use std::to_chars/from_chars, which never consult the locale;
 * these tests pin that property.
 */
#include <gtest/gtest.h>

#include <clocale>
#include <string>

#include "common/json.h"
#include "sim/report.h"

namespace mempod {
namespace {

/** RAII: switch LC_NUMERIC to a comma-separator locale if available. */
class CommaLocale
{
  public:
    CommaLocale()
    {
        for (const char *name :
             {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR",
              "nl_NL.UTF-8"}) {
            if (std::setlocale(LC_NUMERIC, name)) {
                active_ = name;
                break;
            }
        }
    }
    ~CommaLocale() { std::setlocale(LC_NUMERIC, "C"); }
    const char *active() const { return active_; }

  private:
    const char *active_ = nullptr;
};

TEST(Locale, FormatDoubleIgnoresLcNumeric)
{
    CommaLocale locale;
    if (!locale.active())
        GTEST_SKIP() << "no comma-separator locale installed";
    const std::string s = json::formatDouble(3.14159);
    EXPECT_NE(s.find('.'), std::string::npos) << s;
    EXPECT_EQ(s.find(','), std::string::npos) << s;
    // Shortest-round-trip rendering of 0.1 is "0.1" — byte-for-byte,
    // not whatever the locale would print.
    EXPECT_EQ(json::formatDouble(0.1), "0.1");
}

TEST(Locale, JsonNumbersParseIgnoringLcNumeric)
{
    CommaLocale locale;
    if (!locale.active())
        GTEST_SKIP() << "no comma-separator locale installed";
    const json::Parsed doc = json::parse("[3.25, 1e-3]");
    ASSERT_FALSE(doc.error);
    EXPECT_EQ(*doc.value.items[0].asDouble(), 3.25);
    EXPECT_EQ(*doc.value.items[1].asDouble(), 1e-3);
}

TEST(Locale, TableNumberIgnoresLcNumeric)
{
    CommaLocale locale;
    if (!locale.active())
        GTEST_SKIP() << "no comma-separator locale installed";
    const std::string s = TablePrinter::num(1234.5678, 2);
    EXPECT_EQ(s, "1234.57");
}

TEST(Locale, FormattersAreStableInTheCLocaleToo)
{
    // Sanity in the default locale: same bytes as under a comma one.
    EXPECT_EQ(TablePrinter::num(1234.5678, 2), "1234.57");
    EXPECT_EQ(TablePrinter::num(-0.125, 3), "-0.125");
    EXPECT_EQ(json::formatDouble(16.5), "16.5");
    EXPECT_EQ(json::formatDouble(0.0), "0");
}

} // namespace
} // namespace mempod
