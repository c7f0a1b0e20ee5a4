#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"
#include "common/rng.h"

namespace mempod {

CoreModel::CoreModel(const BenchmarkProfile &prof, std::uint8_t core,
                     const GeneratorConfig &cfg)
    : prof_(prof), core_(core), rng_(cfg.seed * 0x100 + core + 1)
{
    footprintPages_ = std::max<std::uint64_t>(
        4, static_cast<std::uint64_t>(
               static_cast<double>(prof.footprintBytes / kPageBytes) *
               cfg.footprintScale));
    hotPages_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(footprintPages_ * prof.hotFraction));
    linesPerFootprint_ = footprintPages_ * kLinesPerPage;
    const double rate = prof.reqsPerUs * cfg.rateScale;
    MEMPOD_ASSERT(rate > 0, "profile '%s' has zero request rate",
                  prof.name.c_str());
    meanGapPs_ = 1e6 / rate;
    // Desynchronize phase boundaries across cores.
    if (prof.phasePeriod > 0)
        nextPhaseAt_ = prof.phasePeriod + rng_.nextBelow(prof.phasePeriod);
}

TraceRecord
CoreModel::next()
{
    advanceClock();
    maybeRotatePhase();

    TraceRecord r;
    r.time = now_;
    r.core = core_;
    r.type = rng_.nextBool(prof_.writeFraction) ? AccessType::kWrite
                                                : AccessType::kRead;

    std::uint64_t line;
    // Revisit one of the recently drawn hot pages: each hot draw grants
    // ~dwellLines-1 further visits (credits), spread over the small
    // active ring and interleaved in time (the LLC absorbs truly
    // back-to-back same-page touches, so an LLC-miss stream never shows
    // them consecutively).
    if (activeCount_ > 0 && dwellCredits_ > 0) {
        --dwellCredits_;
        const std::uint64_t page = active_[rng_.nextBelow(activeCount_)];
        line = page * kLinesPerPage + rng_.nextBelow(kLinesPerPage);
        r.coreLocal = line * kLineBytes;
        return r;
    }
    if (rng_.nextBool(prof_.streamFraction)) {
        // Working-front stream: scatter over a span behind the
        // advancing cursor (constant work per page).
        const auto span = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(prof_.streamSpanLines));
        const std::uint64_t back = rng_.nextBelow(span);
        line = (cursor_ + linesPerFootprint_ - back) % linesPerFootprint_;
        cursor_ = (cursor_ + 1) % linesPerFootprint_;
    } else if (rng_.nextBool(prof_.hotAccessProb)) {
        // A fresh hot page joins the active working set; cold touches
        // below stay single-line.
        const std::uint64_t page =
            hotPage(rng_.nextZipf(hotPages_, prof_.zipfS));
        line = page * kLinesPerPage + rng_.nextBelow(kLinesPerPage);
        active_[activeNext_] = page;
        activeNext_ = (activeNext_ + 1) % active_.size();
        activeCount_ = std::min(activeCount_ + 1, active_.size());
        dwellCredits_ += rng_.nextGeometric(prof_.dwellLines) - 1;
    } else {
        line = rng_.nextBelow(footprintPages_) * kLinesPerPage +
               rng_.nextBelow(kLinesPerPage);
    }
    r.coreLocal = line * kLineBytes;
    return r;
}

void
CoreModel::advanceClock()
{
    // Exponential inter-arrival gap, floored at 1 ps.
    const double u = rng_.nextDouble();
    const double gap = -meanGapPs_ * std::log1p(-u);
    now_ += std::max<TimePs>(1, static_cast<TimePs>(gap));
}

/**
 * Map a zipf rank to a page. The head ranks are pinned (a stable
 * hottest set), while fringe ranks slide over the footprint as drift_
 * advances: a page entering the fringe window ramps from cold through
 * the warm ranks and back out — the cold->hot->cold life cycle of real
 * working sets that rewards recency-based prediction on the lower
 * tiers.
 */
std::uint64_t
CoreModel::hotPage(std::uint64_t rank) const
{
    const std::uint64_t head = std::min<std::uint64_t>(3, hotPages_);
    if (rank < head)
        return rank;
    const std::uint64_t window = footprintPages_ - head;
    return head + (drift_ + (rank - head)) % window;
}

void
CoreModel::maybeRotatePhase()
{
    if (prof_.phasePeriod == 0 || now_ < nextPhaseAt_)
        return;
    const auto shift = static_cast<std::uint64_t>(
        std::max(1.0, hotPages_ * prof_.phaseShift));
    drift_ += shift;
    nextPhaseAt_ += prof_.phasePeriod;
}

SyntheticTraceSource::SyntheticTraceSource(
    std::vector<BenchmarkProfile> core_profiles,
    const GeneratorConfig &config)
{
    MEMPOD_ASSERT(!core_profiles.empty(), "no core profiles");
    MEMPOD_ASSERT(config.totalRequests > 0, "empty trace requested");
    const std::size_t cores = core_profiles.size();
    // Each core contributes requests proportional to its rate so the
    // merged stream reflects the profiles' relative intensities.
    double rate_sum = 0.0;
    for (const auto &p : core_profiles)
        rate_sum += p.reqsPerUs;
    std::vector<std::uint64_t> quota(cores);
    std::uint64_t assigned = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        quota[c] = static_cast<std::uint64_t>(
            config.totalRequests * (core_profiles[c].reqsPerUs / rate_sum));
        assigned += quota[c];
    }
    // The rounding remainder goes to core 0.
    quota[0] += config.totalRequests - assigned;
    for (std::size_t c = 0; c < cores; ++c) {
        const CoreModel model(core_profiles[c],
                              static_cast<std::uint8_t>(c), config);
        add({model, model}, quota[c]);
    }
    start(0);
}

} // namespace mempod
