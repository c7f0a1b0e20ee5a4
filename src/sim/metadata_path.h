/**
 * @file
 * The full bookkeeping-cache access path shared by MemPod, HMA and
 * THM (Section 6.3.3): a MetadataCache probe whose misses inject a
 * blocking read into the memory stream (no priority over demand
 * traffic) and wake every access waiting on the same metadata block
 * when the fill returns. The path charges its own outcome to the
 * owning mechanism's MigrationStats: one hit or miss per access, and
 * each miss's wait (fill time - access time) to metadataPs.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/callback.h"
#include "common/event_queue.h"
#include "common/flat_map.h"
#include "common/metrics.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/metadata_cache.h"

namespace mempod {

/** Cache + miss-fill machinery for migration bookkeeping state. */
class MetadataPath final : private Completer
{
  public:
    /** Maps a metadata block number to its backing-store address. */
    using BlockAddrFn = std::function<Addr(std::uint64_t block)>;

    /**
     * Miss/hit continuation, sized for the largest manager capture:
     * a Pod's {this, pod-local page, Demand}.
     */
    using ReadyFn = MoveFunction<void(), 72>;

    /** @param stats The owner's statistics (hits, misses, metadataPs). */
    MetadataPath(EventQueue &eq, MemorySystem &mem, MigrationStats &stats,
                 std::uint64_t capacity_bytes, std::uint32_t assoc,
                 std::uint32_t entry_bytes, BlockAddrFn block_addr);

    /**
     * Access the entry's metadata: `ready` runs immediately on a hit,
     * or after the injected backing-store read completes on a miss
     * (piggybacking on an outstanding fill of the same block).
     */
    void access(std::uint64_t entry_idx, ReadyFn ready);

    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t outstandingFills() const { return pending_.size(); }
    const MetadataCache &cache() const { return cache_; }

    /** Register hit/miss/fill counters and gauges under `prefix`. */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    /** A miss waiting on its block's fill, and when it arrived. */
    struct Waiter
    {
        TimePs since;
        ReadyFn ready;
    };

    /** The fill of metadata block `ref` returned: wake its waiters. */
    void complete(std::uint32_t ref, TimePs finish) override;

    EventQueue &eq_;
    MemorySystem &mem_;
    MigrationStats &stats_;
    MetadataCache cache_;
    BlockAddrFn blockAddr_;
    std::uint64_t fills_ = 0; //!< injected backing-store reads
    /** Block -> accesses waiting on its fill, in arrival order. */
    FlatMap<std::vector<Waiter>> pending_;
};

} // namespace mempod
