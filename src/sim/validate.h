/**
 * @file
 * Always-on invariant checker: conservation laws the simulation must
 * obey at every epoch and at end of run — demand requests issued ==
 * completed + in-flight, remap tables remain bijections, the AMMAT
 * attribution components sum exactly to the measured AMMAT, energy
 * terms recompute from the line counters, and per-mechanism migration
 * counts match their engines' committed swaps.
 *
 * The checker only *reads* simulation state: its periodic hook rides
 * the existing progress probe (no events are added to the queue, so
 * golden executed-event counts are untouched), and every violation
 * panics with a structured `invariant violated [law]` diagnostic. The
 * individual laws are exposed as free functions so unit tests can
 * feed them deliberately corrupted state.
 */
#pragma once

#include <cstdint>

#include "common/types.h"
#include "core/remap_table.h"
#include "mem/memory_system.h"
#include "sim/energy.h"

namespace mempod {

class DecisionLog;
class MemoryManager;
class TraceFrontend;
struct RunResult;
struct SimConfig;

/**
 * The remap-table bijection law over the sparse form: `moved` holds
 * the off-identity ids of [0, num_ids), each with its location (id ->
 * slot) and resident (slot -> id), and every absent id maps to itself
 * both ways. Verifies that the two halves are mutually inverse
 * permutations and that no stored entry is at identity. An absent id
 * is its own inverse, so checking each stored id's round trips covers
 * every id: O(stored entries), not O(num_ids). Panics naming `what`
 * on the first inconsistent entry.
 */
void checkPermutation(const char *what, std::uint64_t num_ids,
                      const RemapTable::Moved &moved);

/**
 * Verify the AMMAT attribution components sum to the measured AMMAT
 * (relative tolerance 1e-9: the components partition every demand's
 * lifetime exactly, so only rounding may separate them).
 */
void checkAmmatAttribution(const RunResult &r);

/**
 * Verify a reported energy estimate recomputes exactly from the line
 * counters it claims to derive from (and that its terms sum to the
 * reported total). Panics on divergence.
 */
void checkEnergyBalance(const MemorySystem::Stats &stats,
                        bool pod_local_migrations,
                        const EnergyEstimate &reported);

/** Verify a mechanism's commit count matches its engine's. */
void checkMigrationConservation(const char *mechanism,
                                std::uint64_t migrations,
                                std::uint64_t engine_commits);

/**
 * The per-run checker the Simulation owns. Cheap count cross-checks
 * run once per epoch (simulated time) from the progress probe; the
 * full audit — including a paranoid-depth mechanism scan — runs once
 * against the final RunResult.
 */
class InvariantChecker
{
  public:
    /**
     * @param period_ps epoch length between periodic checks.
     * @param decisions the shared ledger, or null when disabled.
     */
    InvariantChecker(const SimConfig &config,
                     const TraceFrontend &frontend,
                     const MemorySystem &mem,
                     const MemoryManager &manager,
                     const DecisionLog *decisions, TimePs period_ps);

    /** Rate-limited per-epoch conservation checks (read-only). */
    void periodicCheck(TimePs now);

    /** End-of-run audit over the assembled RunResult. */
    void finalCheck(const RunResult &r);

    std::uint64_t checksRun() const { return checksRun_; }

  private:
    void checkLiveCounters();

    const SimConfig &config_;
    const TraceFrontend &frontend_;
    const MemorySystem &mem_;
    const MemoryManager &manager_;
    const DecisionLog *decisions_;
    TimePs periodPs_;
    TimePs nextCheckPs_ = 0;
    std::uint64_t lastCompleted_ = 0;
    std::uint64_t checksRun_ = 0;
};

} // namespace mempod
