#include "sim/fidelity.h"

#include <cmath>

#include "common/log.h"
#include "mem/frontend.h"
#include "mem/memory_system.h"

namespace mempod {

void
WindowStats::add(double x)
{
    // Welford's online update: numerically stable for long runs.
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
WindowStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
WindowStats::ciHalfWidth() const
{
    if (n_ < 2)
        return 0.0;
    const double s = std::sqrt(variance());
    return tCritical95(n_ - 1) * s / std::sqrt(static_cast<double>(n_));
}

double
WindowStats::tCritical95(std::uint64_t df)
{
    // Two-sided 95% critical values of Student's t distribution.
    static const double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= sizeof(kTable) / sizeof(kTable[0]))
        return kTable[df - 1];
    return 1.96;
}

FidelityController::FidelityController(
    EventQueue &eq, MemorySystem &mem, TraceFrontend &frontend,
    const SimConfig::SamplingParams &params)
    : eq_(eq), mem_(mem), frontend_(frontend), params_(params)
{
    if (params_.warmupPct > 99) {
        MEMPOD_PANIC("sim.sampling.warmup_pct must be in [0, 99], got "
                     "%u",
                     static_cast<unsigned>(params_.warmupPct));
    }
    warmupPs_ = params_.measurePs * params_.warmupPct / 100;
    if (warmupPs_ >= params_.measurePs) {
        MEMPOD_PANIC("sim.sampling warm-up slice (%llu ps) consumes "
                     "the whole measurement window (%llu ps)",
                     static_cast<unsigned long long>(warmupPs_),
                     static_cast<unsigned long long>(params_.measurePs));
    }
}

void
FidelityController::begin()
{
    enterFastForward();
    eq_.schedule(eq_.now() + params_.fastfwdPs,
                 [this] { onDetailedStart(); });
}

void
FidelityController::enterFastForward()
{
    mem_.setWarm(true);
    frontend_.setFastForward(true);
}

void
FidelityController::onDetailedStart()
{
    mem_.setWarm(false);
    frontend_.setFastForward(false);
    eq_.schedule(eq_.now() + warmupPs_, [this] { onWarmupEnd(); });
}

void
FidelityController::onWarmupEnd()
{
    stallAtWarmupEnd_ = frontend_.totalStallPs();
    completedAtWarmupEnd_ = frontend_.completed();
    eq_.schedule(eq_.now() + (params_.measurePs - warmupPs_),
                 [this] { onMeasureEnd(); });
}

void
FidelityController::onMeasureEnd()
{
    const std::uint64_t completed =
        frontend_.completed() - completedAtWarmupEnd_;
    // An empty window (no demand completed) contributes no sample: the
    // estimator is per-completed-demand, so there is nothing to
    // average. finish() still enforces the minimum sample count.
    if (completed > 0) {
        const double stall =
            frontend_.totalStallPs() - stallAtWarmupEnd_;
        stats_.add(stall / static_cast<double>(completed));
    }
    enterFastForward();
    eq_.schedule(eq_.now() + params_.fastfwdPs,
                 [this] { onDetailedStart(); });
}

void
FidelityController::finish() const
{
    if (stats_.count() < params_.minWindows) {
        MEMPOD_PANIC(
            "sampled simulation completed only %llu of the required "
            "%u measurement windows; shorten sim.sampling.measure_ps/"
            "fastfwd_ps (period is %llu ps) or extend the trace",
            static_cast<unsigned long long>(stats_.count()),
            static_cast<unsigned>(params_.minWindows),
            static_cast<unsigned long long>(params_.measurePs +
                                            params_.fastfwdPs));
    }
}

} // namespace mempod
