#include "tracking/mea.h"

#include <algorithm>

#include "common/log.h"

namespace mempod {

MeaTracker::MeaTracker(std::uint32_t entries, std::uint32_t counter_bits,
                       std::uint32_t id_bits)
    : entries_(entries),
      counterBits_(counter_bits),
      counterMax_(counter_bits >= 32
                      ? ~std::uint32_t{0}
                      : (std::uint32_t{1} << counter_bits) - 1),
      idBits_(id_bits),
      map_(entries)
{
    MEMPOD_ASSERT(entries > 0, "MEA needs at least one entry");
    MEMPOD_ASSERT(counter_bits >= 1 && counter_bits <= 32,
                  "counter width %u out of range", counter_bits);
}

void
MeaTracker::touch(std::uint64_t id)
{
    if (std::uint32_t *count = map_.find(id)) {
        // Operation (a): saturating increment.
        if (*count < counterMax_)
            ++*count;
        return;
    }
    if (map_.size() < entries_) {
        // Operation (b): claim a free entry.
        map_[id] = 1;
        return;
    }
    // Operation (c): decrement all counters, evict zeros. In hardware
    // this is one cycle of parallel subtract-and-compare.
    ++sweeps_;
    evictions_ += map_.eraseIf(
        [](std::uint64_t, std::uint32_t &count) { return --count == 0; });
}

void
MeaTracker::reset()
{
    ++resets_;
    map_.clear();
}

std::vector<TrackedEntry>
MeaTracker::snapshot() const
{
    std::vector<TrackedEntry> out;
    out.reserve(map_.size());
    map_.forEach([&](std::uint64_t id, std::uint32_t count) {
        out.push_back(TrackedEntry{id, count});
    });
    std::sort(out.begin(), out.end(),
              [](const TrackedEntry &a, const TrackedEntry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.id < b.id;
              });
    return out;
}

std::vector<std::uint64_t>
MeaTracker::trackedIds() const
{
    std::vector<std::uint64_t> out;
    out.reserve(map_.size());
    map_.forEach(
        [&](std::uint64_t id, std::uint32_t) { out.push_back(id); });
    return out;
}

std::uint64_t
MeaTracker::storageBits() const
{
    return static_cast<std::uint64_t>(entries_) * (idBits_ + counterBits_);
}

} // namespace mempod
