/**
 * @file
 * SMARTS-style sampled simulation: the FidelityController alternates
 * fast-forward warm-up windows (run under the memory system's warm
 * models, which complete every access instantly, while MEA trackers,
 * remap tables and the decision ledger stay live) with detailed
 * measurement windows (run under the measured models, dram.model),
 * and reduces the
 * per-window AMMAT samples to a mean with a Student-t confidence
 * interval.
 *
 * ## Window schedule
 *
 * Simulated time is tiled into periods of `fastfwdPs + measurePs`.
 * Each period opens with a fast-forward window, then a detailed window
 * whose leading `warmupPct` percent re-warms controller queue and bank
 * state; only the trailing measurement slice contributes a sample:
 *
 *     ammat_k = (totalStallPs(end) - totalStallPs(warmup_end))
 *             / (completed(end) - completed(warmup_end))
 *
 * The controller drives everything with three coordinator-domain
 * events per period (detailed-start, warmup-end, measure-end), so a
 * pending controller event always bounds the frontend's batch
 * admission horizon during functional fast-forward.
 *
 * ## Statistics
 *
 * Windows are treated as independent samples of the workload's AMMAT
 * (the SMARTS estimator). The 95% CI half-width is t(n-1) * s / sqrt(n)
 * with the exact two-sided Student-t critical value for df <= 30 and
 * the normal 1.96 beyond. A run that completes fewer than `minWindows`
 * measurement windows panics: the estimate would be statistically
 * meaningless, and the fix (shorter windows via sim.sampling.*) is a
 * configuration change the user must make.
 */
#pragma once

#include <cstdint>

#include "common/event_queue.h"
#include "sim/config.h"

namespace mempod {

class MemorySystem;
class TraceFrontend;

/** Welford-accumulated samples with a 95% Student-t interval. */
class WindowStats
{
  public:
    void add(double x);

    std::uint64_t count() const { return n_; }
    double mean() const { return mean_; }

    /** Unbiased sample variance (n-1 denominator); 0 when n < 2. */
    double variance() const;

    /** 95% CI half-width t(n-1) * s / sqrt(n); 0 when n < 2. */
    double ciHalfWidth() const;

    /** Two-sided 95% Student-t critical value for `df` degrees of
     *  freedom (exact through df=30, 1.96 beyond); 0 when df == 0. */
    static double tCritical95(std::uint64_t df);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0; //!< sum of squared deviations from the mean
};

/** Drives the fast-forward / detailed window alternation. */
class FidelityController
{
  public:
    /**
     * @param eq Coordinator event queue (window events live here).
     * @param mem Sampled memory system whose warm switch is flipped.
     * @param frontend Frontend whose fast-forward mode is toggled.
     * @param params Validated sampling knobs; panics on a degenerate
     *        configuration (measurePs == 0, warmupPct > 99, or a
     *        warm-up slice that leaves no measurement slice).
     */
    FidelityController(EventQueue &eq, MemorySystem &mem,
                       TraceFrontend &frontend,
                       const SimConfig::SamplingParams &params);

    /**
     * Enter the first fast-forward window and schedule the first
     * detailed window. Call once, at run start, before any events.
     */
    void begin();

    /**
     * End-of-run validation: panics when fewer than `minWindows`
     * measurement windows completed.
     */
    void finish() const;

    const WindowStats &windowStats() const { return stats_; }
    std::uint64_t windowsCompleted() const { return stats_.count(); }

    /** Detailed warm-up slice length, ps (exposed for tests). */
    TimePs warmupPs() const { return warmupPs_; }

  private:
    void enterFastForward();
    void onDetailedStart();
    void onWarmupEnd();
    void onMeasureEnd();

    EventQueue &eq_;
    MemorySystem &mem_;
    TraceFrontend &frontend_;
    SimConfig::SamplingParams params_;
    TimePs warmupPs_ = 0;

    WindowStats stats_;
    double stallAtWarmupEnd_ = 0.0;
    std::uint64_t completedAtWarmupEnd_ = 0;
};

} // namespace mempod
