/**
 * @file
 * The repo's one JSON layer. parse() is a strict RFC 8259 reader that
 * returns a document tree or an error by value — it never exits, so
 * every caller keeps its own failure behaviour (a panic, a fatal with
 * the file and line, or a tool's exit status). Numbers keep their
 * source token, so integers read back exactly over the full 64-bit
 * range. The emitters whose byte formats are a contract (stats,
 * tracer, BENCH and perf sidecars) stay hand-written and share only
 * escape() and formatDouble() from here.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mempod::json {

/**
 * Deepest array/object nesting parse() accepts. Far above anything the
 * repo writes (the config dump is 3 deep); a deeper document is an
 * error rather than a stack overflow.
 */
inline constexpr std::size_t kMaxDepth = 128;

/** One JSON value; objects keep their members in document order. */
struct Value
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    /**
     * A string's decoded contents, or a number's source token (which
     * must be a valid JSON number when the program builds one).
     */
    std::string text;
    std::vector<Value> items; //!< array elements
    std::vector<std::pair<std::string, Value>> members; //!< object members

    /** First member named `key`; nullptr if absent or not an object. */
    const Value *find(std::string_view key) const;

    /**
     * Exact value of an integer token in [0, 2^64-1]; nullopt for
     * non-numbers, fractions, exponents, negatives and overflow.
     */
    std::optional<std::uint64_t> asU64() const;

    /** Nearest double to a number token; nullopt for non-numbers. */
    std::optional<double> asDouble() const;
};

/** Why and where parse() stopped. */
struct Error
{
    std::string message;
    std::size_t offset = 0; //!< byte offset of the offending input
    std::size_t line = 1;   //!< 1-based line containing `offset`
};

/** A parsed document, or the first error in it. */
struct Parsed
{
    Value value;
    std::optional<Error> error;
};

/** Parse one complete document; trailing non-whitespace is an error. */
Parsed parse(std::string_view text);

/** Whole file as bytes; nullopt when it cannot be opened. */
std::optional<std::string> readFile(const std::string &path);

/** Escape `s` for inclusion inside a JSON string literal. */
std::string escape(std::string_view s);

/**
 * Shortest round-trip decimal rendering of `v`; non-finite values
 * become `null` (JSON has no NaN/Inf). Uses std::to_chars, so the
 * bytes are identical under any host LC_NUMERIC locale.
 */
std::string formatDouble(double v);

/**
 * Indented rendering: one member or element per line, two spaces per
 * level, `"key": value`. No trailing newline.
 */
std::string pretty(const Value &v);

/**
 * Every numeric leaf keyed by its dotted path: object members extend
 * the path with ".key", array elements with "[i]" (for example
 * "summary.ammat_ns" or "benchmarks[0].wall_ms"). A later duplicate
 * key overwrites an earlier one.
 */
std::map<std::string, double> flattenNumbers(const Value &v);

} // namespace mempod::json
