#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <system_error>

#include "common/number.h"

namespace mempod::json {

namespace {

/** Thrown inside Parser only; parse() turns it into an Error. */
struct Failure
{
    std::string message;
    std::size_t offset;
};

/** Recursive-descent reader for the RFC 8259 grammar. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s_(text) {}

    Value
    document()
    {
        Value v;
        value(v, 0);
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after the JSON document");
        return v;
    }

  private:
    /** Fail at `offset`; at end of input, that is the problem. */
    [[noreturn]] void
    failAt(std::size_t offset, const std::string &what)
    {
        throw Failure{offset == s_.size() ? "unexpected end of input"
                                          : what,
                      offset};
    }

    [[noreturn]] void
    fail(const std::string &what)
    {
        failAt(pos_, what);
    }

    bool
    at(char c) const
    {
        return pos_ < s_.size() && s_[pos_] == c;
    }

    bool
    atDigit() const
    {
        return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9';
    }

    void
    skipWs()
    {
        while (at(' ') || at('\t') || at('\n') || at('\r'))
            ++pos_;
    }

    void
    expect(char c, const char *what)
    {
        skipWs();
        if (!at(c))
            fail(what);
        ++pos_;
    }

    /** `depth` counts the arrays and objects enclosing `out`. */
    void
    value(Value &out, std::size_t depth)
    {
        skipWs();
        if (at('{') || at('[')) {
            if (depth == kMaxDepth) {
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            }
            container(out, depth + 1);
        } else if (at('"')) {
            out.kind = Value::Kind::kString;
            out.text = string();
        } else if (at('t') || at('f') || at('n')) {
            literal(out);
        } else {
            number(out);
        }
    }

    /** An array or an object: both are comma-separated lists. */
    void
    container(Value &out, std::size_t depth)
    {
        const bool obj = s_[pos_++] == '{';
        out.kind = obj ? Value::Kind::kObject : Value::Kind::kArray;
        skipWs();
        if (at(obj ? '}' : ']')) {
            ++pos_;
            return;
        }
        while (true) {
            if (obj) {
                skipWs();
                if (!at('"'))
                    fail("expected a string key");
                std::string key = string();
                expect(':', "expected ':' after an object key");
                value(out.members.emplace_back(std::move(key), Value{})
                          .second,
                      depth);
            } else {
                value(out.items.emplace_back(), depth);
            }
            skipWs();
            if (!at(','))
                break;
            ++pos_;
        }
        if (obj)
            expect('}', "expected ',' or '}' in an object");
        else
            expect(']', "expected ',' or ']' in an array");
    }

    void
    literal(Value &out)
    {
        for (const std::string_view word : {"true", "false", "null"}) {
            if (s_.substr(pos_, word.size()) == word) {
                pos_ += word.size();
                if (word != "null") {
                    out.kind = Value::Kind::kBool;
                    out.boolean = word == "true";
                }
                return;
            }
        }
        fail("invalid literal");
    }

    void
    digits()
    {
        if (!atDigit())
            fail("expected a digit");
        while (atDigit())
            ++pos_;
    }

    void
    number(Value &out)
    {
        const std::size_t start = pos_;
        if (at('-'))
            ++pos_;
        if (pos_ == start && !atDigit())
            fail("expected a value");
        if (at('0'))
            ++pos_; // no leading zeros: "01" ends the number at "0"
        else
            digits();
        if (at('.')) {
            ++pos_;
            digits();
        }
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            digits();
        }
        out.kind = Value::Kind::kNumber;
        out.text = std::string(s_.substr(start, pos_ - start));
        // Keep asDouble() infallible: reject what no double can hold.
        double d = 0.0;
        if (std::from_chars(s_.data() + start, s_.data() + pos_, d).ec !=
            std::errc())
            failAt(start, "number out of range for a double");
    }

    std::uint32_t
    hex4()
    {
        std::uint32_t v = 0;
        const char *p = s_.data() + pos_;
        const char *end =
            std::from_chars(p, p + std::min<std::size_t>(4, s_.size() - pos_),
                            v, 16)
                .ptr;
        pos_ += end - p;
        if (end != p + 4)
            fail("invalid \\u escape");
        return v;
    }

    /** Code point of the `\uXXXX` (or surrogate pair) at `esc`. */
    std::uint32_t
    codePoint(std::size_t esc)
    {
        std::uint32_t cp = hex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF)
            failAt(esc, "unpaired UTF-16 surrogate");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (s_.substr(pos_, 2) != "\\u")
                failAt(esc, "unpaired UTF-16 surrogate");
            pos_ += 2;
            const std::uint32_t lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
                failAt(esc, "unpaired UTF-16 surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        return cp;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        // The lead byte encodes the count of continuation bytes, each
        // of which carries six more bits.
        static const unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
        const int extra =
            cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
        for (int i = extra - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }

    std::string
    string()
    {
        static constexpr std::string_view kEscape = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        std::string out;
        ++pos_; // opening quote
        while (!at('"')) {
            if (pos_ == s_.size() ||
                static_cast<unsigned char>(s_[pos_]) < 0x20)
                fail("raw control character in a string");
            if (s_[pos_] != '\\') {
                out += s_[pos_++];
                continue;
            }
            const std::size_t esc = pos_++;
            if (at('u')) {
                ++pos_;
                appendUtf8(out, codePoint(esc));
                continue;
            }
            const std::size_t i = pos_ < s_.size()
                                      ? kEscape.find(s_[pos_])
                                      : std::string_view::npos;
            if (i == std::string_view::npos)
                fail("invalid escape sequence");
            out += kDecoded[i];
            ++pos_;
        }
        ++pos_; // closing quote
        return out;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

void
print(const Value &v, std::string &out, std::size_t depth)
{
    switch (v.kind) {
      case Value::Kind::kNull:
        out += "null";
        return;
      case Value::Kind::kBool:
        out += v.boolean ? "true" : "false";
        return;
      case Value::Kind::kNumber:
        out += v.text;
        return;
      case Value::Kind::kString:
        out += '"' + escape(v.text) + '"';
        return;
      case Value::Kind::kArray:
      case Value::Kind::kObject:
        break;
    }
    const bool obj = v.kind == Value::Kind::kObject;
    const std::size_t n = obj ? v.members.size() : v.items.size();
    if (n == 0) {
        out += obj ? "{}" : "[]";
        return;
    }
    out += obj ? "{\n" : "[\n";
    for (std::size_t i = 0; i < n; ++i) {
        out.append(2 * (depth + 1), ' ');
        if (obj)
            out += '"' + escape(v.members[i].first) + "\": ";
        print(obj ? v.members[i].second : v.items[i], out, depth + 1);
        out += i + 1 < n ? ",\n" : "\n";
    }
    out.append(2 * depth, ' ');
    out += obj ? '}' : ']';
}

void
flatten(const Value &v, const std::string &path,
        std::map<std::string, double> &out)
{
    if (v.kind == Value::Kind::kNumber && !path.empty())
        out[path] = *v.asDouble();
    for (const auto &[key, member] : v.members)
        flatten(member, path.empty() ? key : path + "." + key, out);
    for (std::size_t i = 0; i < v.items.size(); ++i)
        flatten(v.items[i], path + "[" + std::to_string(i) + "]", out);
}

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::optional<std::uint64_t>
Value::asU64() const
{
    if (kind != Kind::kNumber)
        return std::nullopt;
    std::uint64_t u = 0;
    if (parseDecimal(text, u) != std::errc())
        return std::nullopt;
    return u;
}

std::optional<double>
Value::asDouble() const
{
    if (kind != Kind::kNumber)
        return std::nullopt;
    double d = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), d);
    return d;
}

Parsed
parse(std::string_view text)
{
    Parsed out;
    try {
        out.value = Parser(text).document();
    } catch (const Failure &f) {
        const auto line = std::count(text.begin(), text.begin() + f.offset,
                                     '\n');
        out.error = Error{f.message, f.offset,
                          static_cast<std::size_t>(line) + 1};
    }
    return out;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    // to_chars emits the shortest representation that round-trips to
    // the identical bit pattern, and — unlike printf's %g — never
    // consults LC_NUMERIC, so goldens hold on any host locale.
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec; // 64 bytes always fit a double
    return std::string(buf, end);
}

std::string
pretty(const Value &v)
{
    std::string out;
    print(v, out, 0);
    return out;
}

std::map<std::string, double>
flattenNumbers(const Value &v)
{
    std::map<std::string, double> out;
    flatten(v, "", out);
    return out;
}

} // namespace mempod::json
