/**
 * @file
 * The log2-bucketed histogram behind every latency distribution the
 * simulator reports.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mempod {

/** Histogram with power-of-two buckets: [0,1), [1,2), [2,4), ... */
class Log2Histogram
{
  public:
    void sample(std::uint64_t v);

    std::uint64_t count() const { return count_; }

    /** Raw bucket counts; bucket b>=1 covers [2^(b-1), 2^b). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /**
     * Value below which `q` (0..1) of samples fall, linearly
     * interpolated within the winning bucket's value range.
     */
    std::uint64_t percentile(double q) const;

    /** Render a compact textual summary. */
    std::string toString() const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

} // namespace mempod
