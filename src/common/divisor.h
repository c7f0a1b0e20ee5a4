/**
 * @file
 * Divisor: exact unsigned 64-bit division and modulo by a run-time
 * invariant divisor, for the address arithmetic every demand runs
 * (page -> pod/channel/bank/row decode, logical -> physical placement,
 * CAMEO/THM group members, clock alignment). The geometry fixes these
 * divisors at construction, yet a hardware `div` costs tens of cycles
 * on each use; a precomputed reciprocal turns it into one 64x64->128
 * multiply, an add and two shifts.
 *
 * The method is Granlund and Montgomery's "round-up" reciprocal
 * (Division by Invariant Integers using Multiplication, PLDI 1994,
 * Fig. 4.1): with l = ceil(log2 d) and
 *     m = floor(2^64 * (2^l - d) / d) + 1   (fits 64 bits),
 *     t = (m * n) >> 64,
 *     n / d = (t + ((n - t) >> 1)) >> (l - 1),
 * which is exact for every 64-bit n and every d >= 2. A power of two
 * (including 1, the common geometry) is a plain shift instead; the
 * branch on it is fixed per divisor, so it always predicts.
 */
#pragma once

#include <bit>
#include <cstdint>

#include "common/log.h"

namespace mempod {

/** Precomputed reciprocal of a nonzero 64-bit divisor. */
class Divisor
{
  public:
    Divisor() : Divisor(1) {}

    explicit Divisor(std::uint64_t d) : d_(d)
    {
        MEMPOD_ASSERT(d != 0, "division by zero");
        if (std::has_single_bit(d)) {
            shift_ = std::countr_zero(d);
            return;
        }
        const int l = 64 - std::countl_zero(d - 1); // ceil(log2 d)
        const unsigned __int128 num =
            ((static_cast<unsigned __int128>(1) << l) - d) << 64;
        magic_ = static_cast<std::uint64_t>(num / d) + 1;
        shift_ = l - 1;
    }

    std::uint64_t value() const { return d_; }

    std::uint64_t
    div(std::uint64_t n) const
    {
        if (magic_ == 0)
            return n >> shift_;
        const auto t = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(magic_) * n) >> 64);
        return (t + ((n - t) >> 1)) >> shift_;
    }

    std::uint64_t mod(std::uint64_t n) const { return n - div(n) * d_; }

    struct QuotRem
    {
        std::uint64_t quot;
        std::uint64_t rem;
    };

    QuotRem
    divmod(std::uint64_t n) const
    {
        const std::uint64_t q = div(n);
        return {q, n - q * d_};
    }

  private:
    std::uint64_t d_;
    std::uint64_t magic_ = 0; //!< 0 marks a power of two
    int shift_ = 0;
};

} // namespace mempod
