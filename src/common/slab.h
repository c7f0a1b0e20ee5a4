/**
 * @file
 * A vector of slots recycled through a free list. Handles are plain
 * indices that stay valid until released, so an event or a completion
 * handle can name a slot in 4 bytes, and a steady-state run performs
 * no allocation. References into the slab are invalidated by acquire()
 * (the vector may grow); hold indices across calls that may acquire.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mempod {

template <typename T>
class Slab
{
  public:
    /** Store `value` in a free slot (reused or new); returns its index. */
    std::uint32_t
    acquire(T value)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(value));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t i = free_.back();
        free_.pop_back();
        slots_[i] = std::move(value);
        return i;
    }

    /** Return slot `i` to the free list; its value stays until reuse. */
    void release(std::uint32_t i) { free_.push_back(i); }

    T &operator[](std::uint32_t i) { return slots_[i]; }
    const T &operator[](std::uint32_t i) const { return slots_[i]; }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace mempod
