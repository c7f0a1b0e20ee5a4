/**
 * @file
 * The top-level MemPod mechanism (Section 5): N independent Pods
 * behind one MemoryManager facade, plus the global interval timer
 * that fires every Pod's migration pass in parallel.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "core/pod.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/mechanism_params.h"

namespace mempod {

/** Clustered interval-based migration manager. */
class MemPodManager : public MemoryManager
{
  public:
    MemPodManager(EventQueue &eq, MemorySystem &mem,
                  const MemPodParams &params);

    void handleDemand(Demand d) override;

    void start() override;

    std::string name() const override { return "MemPod"; }

    const MigrationStats &migrationStats() const override;

    std::uint64_t pendingWork() const override;

    /** Run every Pod's conservation checks. */
    void validateInvariants(bool paranoid) const override;

    /** Aggregate migration.* plus per-Pod pod<i>.* instruments. */
    void registerMetrics(MetricRegistry &reg) override;

    std::size_t numPods() const { return pods_.size(); }
    Pod &pod(std::size_t i) { return *pods_[i]; }
    const Pod &pod(std::size_t i) const { return *pods_[i]; }

    const MemPodParams &params() const { return params_; }

    /** Total modeled tracking storage across Pods (Table 1). */
    std::uint64_t trackingStorageBits() const;

    /** Total modeled remap-table storage across Pods (Table 1). */
    std::uint64_t remapStorageBits() const;

  private:
    EventQueue &eq_;
    MemorySystem &mem_;
    MemPodParams params_;
    std::vector<std::unique_ptr<Pod>> pods_;
    /** Fires every Pod's migration pass in parallel, every interval. */
    PeriodicTimer intervalTimer_;
    mutable MigrationStats aggregated_;
};

} // namespace mempod
