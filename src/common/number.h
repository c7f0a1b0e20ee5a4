/**
 * @file
 * The one parser for unsigned integers typed by people or read from
 * files: config values, harness flags, tool and example arguments, and
 * JSON numbers that must be counts.
 */
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mempod {

/**
 * Parse all of `text` as an unsigned decimal into `out`.
 *
 * Returns std::errc() on success. Returns errc::invalid_argument
 * unless `text` is one whole run of digits (empty, a sign, a space or
 * trailing junk all fail), and errc::result_out_of_range when the
 * digits do not fit in `Unsigned`. `out` is untouched on failure.
 */
template <typename Unsigned>
std::errc
parseDecimal(std::string_view text, Unsigned &out)
{
    static_assert(std::is_unsigned_v<Unsigned> &&
                  !std::is_same_v<Unsigned, bool>);
    Unsigned value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ptr != end)
        return std::errc::invalid_argument;
    if (ec == std::errc())
        out = value;
    return ec;
}

} // namespace mempod
