#include "core/mempod_manager.h"

#include <memory>

#include "common/log.h"

namespace mempod {

MemPodManager::MemPodManager(EventQueue &eq, MemorySystem &mem,
                             const MemPodParams &params)
    : eq_(eq), mem_(mem), params_(params),
      intervalTimer_(eq, params.interval, [this] {
          // All Pods run their migration passes in parallel (each via
          // its own engine); the timer then re-arms.
          for (auto &pod : pods_)
              pod->onInterval();
      })
{
    const std::uint32_t n = mem.geom().numPods;
    pods_.reserve(n);
    for (std::uint32_t p = 0; p < n; ++p)
        pods_.push_back(std::make_unique<Pod>(p, eq, mem, params.pod));
}

void
MemPodManager::handleDemand(Demand d)
{
    const std::uint32_t pod =
        mem_.map().podOfPage(AddressMap::pageOf(d.homeAddr));
    pods_[pod]->handleDemand(d);
}

void
MemPodManager::start()
{
    intervalTimer_.start();
}

void
MemPodManager::validateInvariants(bool paranoid) const
{
    for (const auto &pod : pods_)
        pod->validateInvariants(paranoid);
}

const MigrationStats &
MemPodManager::migrationStats() const
{
    aggregated_ = MigrationStats{};
    for (const auto &pod : pods_) {
        const MigrationStats &s = pod->stats();
        aggregated_.migrations += s.migrations;
        aggregated_.bytesMoved += s.bytesMoved;
        aggregated_.blockedRequests += s.blockedRequests;
        aggregated_.intervals += s.intervals;
        aggregated_.candidatesSkipped += s.candidatesSkipped;
        aggregated_.metaCacheHits += s.metaCacheHits;
        aggregated_.metaCacheMisses += s.metaCacheMisses;
        aggregated_.blockedPs += s.blockedPs;
        aggregated_.metadataPs += s.metadataPs;
    }
    // All pods share one timer; report timer firings, not the sum.
    if (!pods_.empty())
        aggregated_.intervals = pods_.front()->stats().intervals;
    return aggregated_;
}

void
MemPodManager::registerMetrics(MetricRegistry &reg)
{
    MemoryManager::registerMetrics(reg);
    for (const auto &pod : pods_)
        pod->registerMetrics(reg);
}

std::uint64_t
MemPodManager::pendingWork() const
{
    std::uint64_t total = 0;
    for (const auto &pod : pods_)
        total += pod->pendingWork();
    return total;
}

std::uint64_t
MemPodManager::trackingStorageBits() const
{
    std::uint64_t total = 0;
    for (const auto &pod : pods_)
        total += pod->trackingStorageBits();
    return total;
}

std::uint64_t
MemPodManager::remapStorageBits() const
{
    std::uint64_t total = 0;
    for (const auto &pod : pods_)
        total += pod->remapStorageBits();
    return total;
}

} // namespace mempod
