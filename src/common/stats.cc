#include "common/stats.h"

#include <bit>
#include <cstdio>

namespace mempod {

void
Log2Histogram::sample(std::uint64_t v)
{
    const std::size_t bucket = v == 0 ? 0 : std::bit_width(v);
    if (bucket >= buckets_.size())
        buckets_.resize(bucket + 1, 0);
    ++buckets_[bucket];
    ++count_;
}

std::uint64_t
Log2Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(count_);
    double seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] == 0)
            continue;
        const double in_bucket = static_cast<double>(buckets_[b]);
        if (seen + in_bucket >= target) {
            // Bucket 0 holds only the value 0; bucket b >= 1 covers
            // [2^(b-1), 2^b). Interpolate linearly within that range
            // by the rank position inside the bucket.
            if (b == 0)
                return 0;
            const std::uint64_t lo = 1ull << (b - 1);
            const std::uint64_t span = 1ull << (b - 1); // hi - lo
            const double frac = (target - seen) / in_bucket;
            std::uint64_t v =
                lo + static_cast<std::uint64_t>(
                         frac * static_cast<double>(span));
            const std::uint64_t hi_inclusive = (1ull << b) - 1;
            if (v > hi_inclusive)
                v = hi_inclusive;
            return v;
        }
        seen += in_bucket;
    }
    return buckets_.empty() ? 0 : (1ull << (buckets_.size() - 1));
}

std::string
Log2Histogram::toString() const
{
    std::string out;
    char buf[64];
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] == 0)
            continue;
        const std::uint64_t lo = b == 0 ? 0 : 1ull << (b - 1);
        std::snprintf(buf, sizeof(buf), "[%llu..): %llu  ",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(buckets_[b]));
        out += buf;
    }
    return out;
}

} // namespace mempod
