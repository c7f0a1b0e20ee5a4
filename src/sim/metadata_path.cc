#include "sim/metadata_path.h"

#include "common/log.h"

namespace mempod {

MetadataPath::MetadataPath(EventQueue &eq, MemorySystem &mem,
                           MigrationStats &stats,
                           std::uint64_t capacity_bytes,
                           std::uint32_t assoc, std::uint32_t entry_bytes,
                           BlockAddrFn block_addr)
    : eq_(eq),
      mem_(mem),
      stats_(stats),
      cache_(capacity_bytes, assoc, entry_bytes),
      blockAddr_(std::move(block_addr))
{
    MEMPOD_ASSERT(blockAddr_ != nullptr, "need a backing-store mapping");
}

void
MetadataPath::access(std::uint64_t entry_idx, ReadyFn ready)
{
    if (cache_.lookup(entry_idx)) {
        ++stats_.metaCacheHits;
        ready();
        return;
    }
    ++stats_.metaCacheMisses;
    const std::uint64_t block = cache_.blockOf(entry_idx);
    const auto [waiters, first] = pending_.tryEmplace(block);
    waiters->push_back({eq_.now(), std::move(ready)});
    if (!first)
        return; // piggyback on the outstanding fill

    ++fills_;
    MEMPOD_ASSERT(block <= ~std::uint32_t{0},
                  "metadata block %llu overflows a completion ref",
                  static_cast<unsigned long long>(block));
    Request fill;
    fill.addr = blockAddr_(block);
    fill.type = AccessType::kRead;
    fill.kind = Request::Kind::kBookkeeping;
    fill.arrival = eq_.now();
    fill.done = {this, static_cast<std::uint32_t>(block)};
    mem_.access(fill);
}

void
MetadataPath::complete(std::uint32_t ref, TimePs)
{
    const std::uint64_t block = ref;
    cache_.fill(block * cache_.entriesPerBlock());
    // Take the waiters out first: each may re-enter access() and start
    // a new fill, which inserts into (and may rehash) pending_.
    for (Waiter &w : pending_.take(block)) {
        stats_.metadataPs += eq_.now() - w.since;
        w.ready();
    }
}

void
MetadataPath::registerMetrics(MetricRegistry &reg,
                              const std::string &prefix) const
{
    reg.addCounterFn(prefix + ".hits", "metadata-cache hits",
                     [this] { return cache_.hits(); });
    reg.addCounterFn(prefix + ".misses", "metadata-cache misses",
                     [this] { return cache_.misses(); });
    reg.attachCounter(prefix + ".fills",
                      "backing-store reads injected for misses",
                      &fills_);
    reg.addGauge(prefix + ".outstanding_fills",
                 "metadata fills currently in flight", [this] {
                     return static_cast<double>(pending_.size());
                 });
    reg.addGauge(prefix + ".hit_rate",
                 "metadata-cache hit rate so far", [this] {
                     const std::uint64_t total =
                         cache_.hits() + cache_.misses();
                     return total ? static_cast<double>(cache_.hits()) /
                                        static_cast<double>(total)
                                  : 0.0;
                 });
}

} // namespace mempod
